(* Bound-and-prune evaluation: pruning must be invisible to every
   search decision, and the bounded simulator / delta bind paths must
   be bit-identical to their unbounded / full counterparts. *)

let machine_for (app : App.t) =
  if app.App.app_name = "Maestro" then Presets.lassen ~nodes:1 else Presets.shepard ~nodes:1

(* -------- golden decision identity: default == reference mode -------- *)

let algos =
  [
    ("ccd", fun ev -> Fixtures.search ev (Ccd.make ~rotations:2 ev));
    ("cd", fun ev -> Fixtures.search ev (Cd.make ev));
    ("annealing", fun ev -> Fixtures.search ev (Annealing.make ~max_evals:150 ev));
  ]

let run_leg ~reference (app : App.t) algo =
  let machine = machine_for app in
  let g = app.App.graph ~nodes:1 ~input:(List.hd (app.App.inputs ~nodes:1)) in
  let ev = Evaluator.create ~runs:3 ~reference ~seed:5 machine g in
  let best, perf = algo ev in
  (best, perf, List.map snd (Evaluator.trace ev), Evaluator.stats ev)

let test_golden_identity () =
  List.iter
    (fun (app : App.t) ->
      List.iter
        (fun (algo_name, algo) ->
          let label = Printf.sprintf "%s/%s" app.App.app_name algo_name in
          let b_off, p_off, tr_off, st_off = run_leg ~reference:true app algo in
          let b_on, p_on, tr_on, st_on = run_leg ~reference:false app algo in
          Alcotest.(check bool) (label ^ " same best mapping") true
            (Mapping.equal b_off b_on);
          Alcotest.(check (float 0.0)) (label ^ " same best perf") p_off p_on;
          Alcotest.(check (list (float 0.0))) (label ^ " same improvement trace")
            tr_off tr_on;
          Alcotest.(check int) (label ^ " same suggestions")
            st_off.Evaluator.s_suggested st_on.Evaluator.s_suggested;
          Alcotest.(check int) (label ^ " reference mode cuts nothing") 0
            st_off.Evaluator.s_cut_sims)
        algos)
    App.all

let test_pruning_actually_cuts () =
  (* the identity above would hold trivially if pruning never fired *)
  let _, _, _, st = run_leg ~reference:false App.stencil (fun ev -> Fixtures.search ev (Ccd.make ~rotations:2 ev)) in
  Alcotest.(check bool) "some evaluations were cut" true (st.Evaluator.s_cut_evals > 0);
  Alcotest.(check bool) "some runs were skipped" true (st.Evaluator.s_cut_runs > 0);
  Alcotest.(check bool) "some sims were aborted" true (st.Evaluator.s_cut_sims > 0)

(* -------- simulate_bounded edge cases -------- *)

let sim_setup () =
  let g, _, _ = Fixtures.shared_halo () in
  let machine = Fixtures.default_machine () in
  let sc = Exec.scratch (Exec.compile machine g) in
  let m = Mapping.default_start g machine in
  (sc, m)

let makespan_of = function
  | Ok (r : Exec.result) -> r.Exec.makespan
  | Error e -> Alcotest.fail (Placement.error_to_string e)

let check_result_eq label (a : Exec.result) (b : Exec.result) =
  Alcotest.(check (float 0.0)) (label ^ " makespan") a.Exec.makespan b.Exec.makespan;
  Alcotest.(check (float 0.0)) (label ^ " per_iteration") a.Exec.per_iteration
    b.Exec.per_iteration;
  Alcotest.(check (array (float 0.0))) (label ^ " task_times") a.Exec.task_times
    b.Exec.task_times;
  Alcotest.(check (array (float 0.0))) (label ^ " proc_busy") a.Exec.proc_busy
    b.Exec.proc_busy;
  Alcotest.(check (float 0.0)) (label ^ " bytes_moved") a.Exec.bytes_moved
    b.Exec.bytes_moved;
  Alcotest.(check (array (float 0.0))) (label ^ " channel_bytes") a.Exec.channel_bytes
    b.Exec.channel_bytes;
  Alcotest.(check int) (label ^ " n_copies") a.Exec.n_copies b.Exec.n_copies;
  Alcotest.(check int) (label ^ " demotions") a.Exec.demotions b.Exec.demotions

let test_cutoff_zero () =
  let sc, m = sim_setup () in
  match Exec.simulate_bounded ~cutoff:0.0 sc m with
  | Ok (Exec.Cut t) -> Alcotest.(check (float 0.0)) "cut at time zero" 0.0 t
  | Ok (Exec.Finished _) -> Alcotest.fail "finished under a zero cutoff"
  | Error e -> Alcotest.fail (Placement.error_to_string e)

let test_cutoff_at_and_above_makespan () =
  let sc, m = sim_setup () in
  let full = makespan_of (Exec.simulate ~seed:9 sc m) in
  (* the final completion event pops at exactly [full]: an inclusive
     cutoff there must cut, certifying makespan >= full *)
  (match Exec.simulate_bounded ~seed:9 ~cutoff:full sc m with
  | Ok (Exec.Cut t) ->
      Alcotest.(check bool) "cut time <= makespan" true (t <= full);
      Alcotest.(check bool) "cut time positive" true (t > 0.0)
  | Ok (Exec.Finished _) -> Alcotest.fail "finished with cutoff = makespan"
  | Error e -> Alcotest.fail (Placement.error_to_string e));
  match
    ( Exec.simulate_bounded ~seed:9 ~cutoff:(full *. (1.0 +. 1e-9)) sc m,
      Exec.simulate ~seed:9 sc m )
  with
  | Ok (Exec.Finished r), Ok r_ref -> check_result_eq "just-above cutoff" r_ref r
  | Ok (Exec.Cut _), _ -> Alcotest.fail "cut above the makespan"
  | Error e, _ | _, Error e -> Alcotest.fail (Placement.error_to_string e)

let test_cutoff_with_noise () =
  let sc, m = sim_setup () in
  let run ?cutoff quiet =
    if quiet then Fixtures.quiet_simulate ~noise_sigma:0.05 ~seed:42 ?cutoff sc m
    else Exec.simulate_bounded ~noise_sigma:0.05 ~seed:42 ?cutoff sc m
  in
  let finished label r_ref = function
    | Ok (Exec.Finished r) -> check_result_eq label r_ref r
    | Ok (Exec.Cut _) -> Alcotest.fail (label ^ ": cut without a cutoff")
    | Error e -> Alcotest.fail (Placement.error_to_string e)
  in
  (* seed 42 first runs on the record API, which draws privately; the
     quiet runs then cache its stream, cut part way and continued, and
     the record API reads that stream back.  Unbounded runs must be
     draw-for-draw identical and cuts land on the same clock. *)
  let r_ref =
    match Exec.simulate ~noise_sigma:0.05 ~seed:42 sc m with
    | Ok r -> r
    | Error e -> Alcotest.fail (Placement.error_to_string e)
  in
  let full = r_ref.Exec.makespan in
  let cut label = function
    | Ok (Exec.Cut t) ->
        (* the cut time is the first event clock at or past the cutoff *)
        Alcotest.(check bool) (label ^ " in [cutoff, makespan]") true
          (t >= full /. 2.0 && t <= full);
        t
    | Ok (Exec.Finished _) -> Alcotest.fail (label ^ ": finished past a half-makespan cutoff")
    | Error e -> Alcotest.fail (Placement.error_to_string e)
  in
  finished "noisy unbounded" r_ref (run false);
  let t_private = cut "noisy cut" (run ~cutoff:(full /. 2.0) false) in
  let t_quiet = cut "noisy quiet cut" (run ~cutoff:(full /. 2.0) true) in
  finished "noisy quiet unbounded" r_ref (run true);
  finished "noisy unbounded, cached stream" r_ref (run false);
  let t_cached = cut "noisy cut, cached stream" (run ~cutoff:(full /. 2.0) false) in
  Alcotest.(check (float 0.0)) "quiet cut clock" t_private t_quiet;
  Alcotest.(check (float 0.0)) "cached cut clock" t_private t_cached

(* -------- lower bounds certify the runs they stand in for -------- *)

let test_lower_bounds_certified () =
  (* a 2-node machine exercises the channel floor (cross-node halo
     copies) on top of the per-processor busy bound *)
  let machine = Presets.shepard ~nodes:2 in
  let g = App.stencil.App.graph ~nodes:2 ~input:"200x200" in
  let sc = Exec.scratch (Exec.compile machine g) in
  let m0 = Mapping.default_start g machine in
  let candidates =
    m0
    :: List.filter
         (Mapping.is_valid g machine)
         (List.concat_map
            (fun (c : Graph.collection) ->
              [ Mapping.set_mem m0 c.Graph.cid Kinds.Zero_copy;
                Mapping.set_mem m0 c.Graph.cid Kinds.Frame_buffer ])
            (Graph.collections g))
  in
  List.iter
    (fun m ->
      match Exec.static_lower_bound sc m with
      | Error _ -> () (* strict placement may OOM; nothing to certify *)
      | Ok s ->
          Alcotest.(check bool) "static floor is nonnegative" true (s >= 0.0);
          List.iter
            (fun seed ->
              let lb =
                match Exec.run_lower_bound ~seed sc m with
                | Ok l -> l
                | Error e -> Alcotest.fail (Placement.error_to_string e)
              in
              let mk = makespan_of (Exec.simulate ~seed sc m) in
              Alcotest.(check bool) "static floor <= per-run bound" true (s <= lb);
              Alcotest.(check bool) "per-run bound <= that run's makespan" true
                (lb <= mk))
            [ 1; 2; 3; 4; 5 ];
          (* noise-free: the bound must hold for the deterministic run *)
          let lb0 =
            match Exec.run_lower_bound ~noise_sigma:0.0 sc m with
            | Ok l -> l
            | Error e -> Alcotest.fail (Placement.error_to_string e)
          in
          let mk0 = makespan_of (Exec.simulate ~noise_sigma:0.0 sc m) in
          Alcotest.(check bool) "noise-free bound <= noise-free makespan" true
            (lb0 <= mk0))
    candidates

(* -------- delta binds: patched placement == full re-resolve -------- *)

let neighbor_chain g machine =
  (* a CCD-like walk: each mapping differs from its predecessor in one
     or two coordinates *)
  let m0 = Mapping.default_start g machine in
  let task0 = g.Graph.tasks.(0) in
  let steps =
    List.concat_map
      (fun (c : Graph.collection) ->
        [ (fun m -> Mapping.set_mem m c.Graph.cid Kinds.Zero_copy);
          (fun m -> Mapping.set_mem m c.Graph.cid Kinds.Frame_buffer);
          (fun m ->
            Mapping.set_mem (Mapping.set_proc m task0.Graph.tid Kinds.Cpu) c.Graph.cid
              Kinds.System) ])
      (Graph.collections g)
  in
  List.rev
    (List.fold_left
       (fun acc step ->
         let prev = List.hd acc in
         let next = step prev in
         if Mapping.is_valid g machine next then next :: acc else acc)
       [ m0 ] steps)

let test_delta_bind_bitwise () =
  let g, _, _ = Fixtures.shared_halo () in
  let machine = Fixtures.default_machine () in
  let prob = Exec.compile machine g in
  let sc_chain = Exec.scratch prob in
  let chain = neighbor_chain g machine in
  Alcotest.(check bool) "chain is long enough" true (List.length chain > 3);
  List.iter
    (fun m ->
      let fresh = Exec.scratch prob in
      match (Exec.simulate ~seed:4 sc_chain m, Exec.simulate ~seed:4 fresh m) with
      | Ok r_delta, Ok r_full -> check_result_eq "delta vs full" r_full r_delta
      | Error e, _ | _, Error e -> Alcotest.fail (Placement.error_to_string e))
    chain;
  Alcotest.(check bool) "delta path exercised" true (Exec.delta_binds sc_chain > 0);
  Alcotest.(check int) "fresh scratches never delta-bind" 0
    (Exec.delta_binds (Exec.scratch prob))

let test_delta_bind_fallback_disabled () =
  let g, _, _ = Fixtures.shared_halo () in
  let machine = Fixtures.default_machine () in
  let sc = Exec.scratch (Exec.compile machine g) in
  List.iter
    (fun m ->
      match Exec.simulate ~fallback:true ~seed:4 sc m with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Placement.error_to_string e))
    (neighbor_chain g machine);
  Alcotest.(check int) "fallback mode never delta-binds" 0 (Exec.delta_binds sc);
  Alcotest.(check bool) "fallback mode full-binds" true (Exec.full_binds sc > 0)

(* -------- partial evaluations resume bit-exactly -------- *)

let test_partial_resume_exact () =
  let g, _, _, out, _ = Fixtures.pipeline () in
  let machine = Fixtures.default_machine () in
  let good = Mapping.default_start g machine in
  let bad = Mapping.set_mem good out Kinds.Zero_copy in
  let mk reference = Evaluator.create ~runs:3 ~noise_sigma:0.01 ~reference ~seed:1 machine g in
  (* reference mode sees good then bad *)
  let ev_ref = mk true in
  let p_good_ref = Evaluator.evaluate ev_ref good in
  let p_bad_ref = Evaluator.evaluate ev_ref bad in
  (* default evaluator: bad is cut at the incumbent bound... *)
  let ev = mk false in
  let p_good = Evaluator.evaluate ev good in
  Alcotest.(check (float 0.0)) "incumbent identical" p_good_ref p_good;
  let cut_value = Evaluator.evaluate ~bound:p_good ev bad in
  Alcotest.(check bool) "cut value certifies a loser" true (cut_value >= p_good);
  Alcotest.(check int) "evaluation was cut" 1 (Evaluator.cut_evals ev);
  Alcotest.(check int) "cut candidate not recorded" 1 (Profiles_db.size (Evaluator.db ev));
  (* ...and an unbounded re-suggestion resumes with the original seeds
     and reproduces the unpruned measurement bit-for-bit *)
  let p_bad = Evaluator.evaluate ev bad in
  Alcotest.(check (float 0.0)) "resumed perf identical" p_bad_ref p_bad;
  (match (Profiles_db.find (Evaluator.db ev_ref) bad, Profiles_db.find (Evaluator.db ev) bad) with
  | Some a, Some b ->
      Alcotest.(check (list (float 0.0))) "resumed runs identical" a.Profiles_db.runs
        b.Profiles_db.runs
  | _ -> Alcotest.fail "bad mapping missing from a db");
  (* later candidates see the same noise streams: seed budgets matched *)
  let m3 = Mapping.set_proc good (List.hd (Array.to_list g.Graph.tasks)).Graph.tid Kinds.Cpu in
  if Mapping.is_valid g machine m3 then
    Alcotest.(check (float 0.0)) "next candidate unaffected"
      (Evaluator.evaluate ev_ref m3) (Evaluator.evaluate ev m3)

let test_still_pruned_on_repeat () =
  let g, _, _, out, _ = Fixtures.pipeline () in
  let machine = Fixtures.default_machine () in
  let good = Mapping.default_start g machine in
  let bad = Mapping.set_mem good out Kinds.Zero_copy in
  let ev = Evaluator.create ~runs:3 ~noise_sigma:0.01 ~seed:1 machine g in
  let p_good = Evaluator.evaluate ev good in
  ignore (Evaluator.evaluate ~bound:p_good ev bad);
  let sims = Evaluator.cut_sims ev in
  ignore (Evaluator.evaluate ~bound:p_good ev bad);
  Alcotest.(check int) "re-suggestion answered from the partial record" sims
    (Evaluator.cut_sims ev);
  Alcotest.(check int) "both suggestions counted as cut" 2 (Evaluator.cut_evals ev)

(* A candidate the static floor prunes before run 1, then resumed
   without a bound, runs all of its protocol in the resume: it must be
   charged what the same candidate costs evaluated fresh without a
   bound, bit for bit (the walls summed in run order both times), and
   the partials table must owe nothing once it completes. *)
let test_floor_pruned_resume_charges_fresh () =
  let machine = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:(List.hd (App.stencil.App.inputs ~nodes:1)) in
  let m = Mapping.default_start g machine in
  let fresh = Evaluator.create ~seed:0 machine g in
  let v_fresh = Evaluator.evaluate fresh m in
  let ev = Evaluator.create ~seed:0 machine g in
  let cut_value = Evaluator.evaluate ~bound:1e-300 ev m in
  Alcotest.(check bool) "certified a loser" true (cut_value >= 1e-300);
  Alcotest.(check int) "cut" 1 (Evaluator.cut_evals ev);
  Alcotest.(check int) "by the floor alone" 0 (Evaluator.cut_sims ev);
  Alcotest.(check int) "the partials table owes every run" 7 (Evaluator.cut_runs ev);
  let v = Evaluator.evaluate ev m in
  Alcotest.(check (float 0.0)) "resumed value" v_fresh v;
  Alcotest.(check int64) "resumed virtual time"
    (Int64.bits_of_float (Evaluator.virtual_time fresh))
    (Int64.bits_of_float (Evaluator.virtual_time ev));
  Alcotest.(check int64) "resumed eval time"
    (Int64.bits_of_float (Evaluator.eval_time fresh))
    (Int64.bits_of_float (Evaluator.eval_time ev));
  Alcotest.(check int) "cut_runs back to its value before the cut" 0 (Evaluator.cut_runs ev)

(* The protocol over random workloads: a default and a reference-mode
   evaluator answer one seeded stream of suggestions drawn from a small
   pool (so candidates repeat), each under a bound that tightens,
   loosens or goes to infinity.  The default evaluator then evaluates
   fresh candidates, cuts some (by a floor or mid-run), answers
   repeats from its partials table and resumes others; whatever it
   does, [value < bound] must agree with the reference, and a protocol
   it completes must hold the reference's runs, bit for bit.  Once
   every candidate is re-suggested without a bound, the two databases
   hold the same runs and the partials table owes nothing. *)
type protocol_paths = {
  mutable fresh : int;
  mutable floor_cuts : int;
  mutable sim_cuts : int;
  mutable hits : int;
  mutable resumes : int;
}

let protocol_paths = { fresh = 0; floor_cuts = 0; sim_cuts = 0; hits = 0; resumes = 0 }

let prop_protocol_matches_reference =
  let same_runs (a : Profiles_db.entry) (b : Profiles_db.entry) =
    List.equal
      (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      a.Profiles_db.runs b.Profiles_db.runs
  in
  QCheck.Test.make ~count:100
    ~name:"random workloads: bounded protocol answers as the reference mode"
    Gen.arbitrary_spec (fun spec ->
      let g = Gen.graph_of_spec spec in
      let machine = Presets.shepard ~nodes:1 in
      let mk reference = Evaluator.create ~runs:5 ~reference ~seed:spec.Gen.seed machine g in
      let ev = mk false and ev_ref = mk true in
      let entries key =
        let find e = Profiles_db.find_key (Evaluator.db e) key in
        (find ev, find ev_ref)
      in
      let rng = Rng.create spec.Gen.seed in
      let pool =
        Array.init 5 (fun i ->
            if i = 0 then Mapping.default_start g machine
            else Space.random_mapping (Evaluator.space ev) rng)
      in
      (* the bounds scale the pool's unpruned values, taken from a third
         evaluator so that the two under test see only the stream *)
      let truth = mk true in
      let values =
        List.filter Float.is_finite (Array.to_list (Array.map (Evaluator.evaluate truth) pool))
      in
      let scales = [| 0.01; 0.5; 0.9; 0.99; 1.0; 1.01; 1.1; 2.0 |] in
      let cut = Hashtbl.create 8 in
      let step () =
        let m = pool.(Rng.int rng (Array.length pool)) in
        let key = Mapping.canonical_key m in
        let bound =
          if values = [] || Rng.int rng 5 = 0 then None
          else
            Some
              (List.nth values (Rng.int rng (List.length values))
              *. scales.(Rng.int rng (Array.length scales)))
        in
        let known = fst (entries key) <> None in
        let cut_evals = Evaluator.cut_evals ev and cut_sims = Evaluator.cut_sims ev in
        let evaluated = Evaluator.evaluated ev in
        let v = Evaluator.evaluate ?bound ev m and v_ref = Evaluator.evaluate ?bound ev_ref m in
        let cut_now = Evaluator.cut_evals ev > cut_evals in
        let simulated_cut = Evaluator.cut_sims ev > cut_sims in
        let p = protocol_paths in
        (if Hashtbl.mem cut key then
           if cut_now && not simulated_cut then p.hits <- p.hits + 1
           else p.resumes <- p.resumes + 1
         else if not known then
           if simulated_cut then p.sim_cuts <- p.sim_cuts + 1
           else if cut_now then p.floor_cuts <- p.floor_cuts + 1
           else if Evaluator.evaluated ev > evaluated then p.fresh <- p.fresh + 1);
        if cut_now then Hashtbl.replace cut key () else Hashtbl.remove cut key;
        let b = Option.value bound ~default:infinity in
        v < b = (v_ref < b)
        &&
        match entries key with
        | Some e, Some e_ref -> same_runs e e_ref
        | Some _, None -> false
        | None, _ -> true
      in
      List.for_all (fun _ -> step ()) (List.init 30 Fun.id)
      && Array.for_all
           (fun m ->
             ignore (Evaluator.evaluate ev m : float);
             ignore (Evaluator.evaluate ev_ref m : float);
             match entries (Mapping.canonical_key m) with
             | Some e, Some e_ref -> same_runs e e_ref
             | None, None -> true
             | _ -> false)
           pool
      && Profiles_db.size (Evaluator.db ev) = Profiles_db.size (Evaluator.db ev_ref)
      && Evaluator.cut_runs ev = 0
      && List.mem "partials 0" (Evaluator.save_state ev))

let protocol_matches_reference =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_protocol_matches_reference in
  Alcotest.test_case name speed (fun () ->
      let p = protocol_paths in
      p.fresh <- 0;
      p.floor_cuts <- 0;
      p.sim_cuts <- 0;
      p.hits <- 0;
      p.resumes <- 0;
      run ();
      if List.mem 0 [ p.fresh; p.floor_cuts; p.sim_cuts; p.hits; p.resumes ] then
        Alcotest.failf
          "vacuous: %d fresh, %d floor cuts, %d simulated cuts, %d partials hits, %d resumes"
          p.fresh p.floor_cuts p.sim_cuts p.hits p.resumes)

let test_noop_counter () =
  let g, _, _, _, _ = Fixtures.pipeline () in
  let machine = Fixtures.default_machine () in
  let ev = Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:1 machine g in
  ignore (Fixtures.search ev (Cd.make ev));
  (* CD re-proposes the incumbent's own coordinates on every sweep *)
  Alcotest.(check bool) "noop neighbors skipped" true (Evaluator.noop_skips ev > 0);
  Alcotest.(check int) "stats snapshot agrees" (Evaluator.noop_skips ev)
    (Evaluator.stats ev).Evaluator.s_noop_skips

let suite =
  [
    Alcotest.test_case "golden identity" `Slow test_golden_identity;
    Alcotest.test_case "pruning cuts" `Quick test_pruning_actually_cuts;
    Alcotest.test_case "cutoff zero" `Quick test_cutoff_zero;
    Alcotest.test_case "cutoff at makespan" `Quick test_cutoff_at_and_above_makespan;
    Alcotest.test_case "cutoff with noise" `Quick test_cutoff_with_noise;
    Alcotest.test_case "lower bounds certified" `Quick test_lower_bounds_certified;
    Alcotest.test_case "delta bind bitwise" `Quick test_delta_bind_bitwise;
    Alcotest.test_case "delta bind fallback" `Quick test_delta_bind_fallback_disabled;
    Alcotest.test_case "partial resume exact" `Quick test_partial_resume_exact;
    Alcotest.test_case "repeat prune cheap" `Quick test_still_pruned_on_repeat;
    Alcotest.test_case "floor-pruned resume charges as fresh" `Quick
      test_floor_pruned_resume_charges_fresh;
    protocol_matches_reference;
    Alcotest.test_case "noop counter" `Quick test_noop_counter;
  ]
