(* PR 9 symmetry analysis: the orbit partition is a partition (1-WL +
   verified transpositions), canonicalization is idempotent and
   invariant under within-orbit relabelings, the canonical
   representative carries the same noise-free static cost, the engine
   seen-set round-trips through the checkpoint codec, and the reduced
   search (canonicalization + seen-set + dominance) is never worse than
   the unreduced one at an equal trial budget on every bundled app. *)

let small_apps =
  [
    (App.circuit, "n50w200");
    (App.stencil, "500x500");
    (App.pennant, "320x90");
    (App.htr, "8x8y9z");
    (App.maestro, "lf4r16");
  ]

(* A workload with genuine symmetry: [k] byte-identical tasks, each
   owning a private identically-declared array.  No cross-task edges or
   overlaps distinguish them, so they must form one orbit. *)
let clones_graph k =
  let arrays =
    List.init k (fun i ->
        Workload.array_decl ~name:(Printf.sprintf "a%d" i) ~elems:40_000.0
          ~comps:2 ())
  in
  let tasks =
    List.init k (fun i ->
        Workload.task_decl
          ~name:(Printf.sprintf "clone%d" i)
          ~work_elems:40_000.0 ~flops_per_elem:25.0 ~group_size:2
          ~cpu_eff:0.7 ~gpu_eff:0.9
          ~accesses:[ Workload.read_write (Printf.sprintf "a%d" i) ]
          ())
  in
  Workload.build ~name:(Printf.sprintf "clones%d" k) ~iterations:2 ~arrays ~tasks

(* ---- orbit partition --------------------------------------------------- *)

let check_partition g =
  let sym = Symmetry.build g in
  let n = Graph.n_tasks g in
  Alcotest.(check int) "n_tasks" n (Symmetry.n_tasks sym);
  let seen = Array.make n 0 in
  let orbits = Symmetry.orbits sym in
  Array.iteri
    (fun oi members ->
      Alcotest.(check bool) "orbit non-empty" true (Array.length members > 0);
      Array.iteri
        (fun j tid ->
          seen.(tid) <- seen.(tid) + 1;
          if j > 0 then
            Alcotest.(check bool) "members ascending" true (members.(j - 1) < tid);
          Alcotest.(check int) "orbit_of consistent" oi (Symmetry.orbit_of sym tid))
        members)
    orbits;
  Array.iter (fun c -> Alcotest.(check int) "each task in one orbit" 1 c) seen;
  Array.iteri
    (fun oi members ->
      if oi > 0 then
        Alcotest.(check bool) "orbits ordered by smallest member" true
          (orbits.(oi - 1).(0) < members.(0)))
    orbits;
  Alcotest.(check int) "n_orbits" (Array.length orbits) (Symmetry.n_orbits sym);
  (* same_orbit agrees with the partition on every pair *)
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      Alcotest.(check bool) "same_orbit matches partition"
        (Symmetry.orbit_of sym a = Symmetry.orbit_of sym b)
        (Symmetry.same_orbit sym a b)
    done
  done;
  sym

let prop_orbits_partition =
  QCheck.Test.make ~count:60 ~name:"orbits partition the task set"
    Gen.arbitrary_spec
    (fun spec ->
      ignore (check_partition (Gen.graph_of_spec spec));
      true)

let test_clones_one_orbit () =
  let sym = check_partition (clones_graph 4) in
  Alcotest.(check int) "one nontrivial orbit" 1 (Symmetry.n_nontrivial sym);
  Alcotest.(check int) "largest orbit is all clones" 4 (Symmetry.largest_orbit sym);
  (* and the quotient saves bits: 4 interchangeable tasks with c > 1
     per-task choices collapse ordered tuples to multisets *)
  let saved = Symmetry.log2_reduction sym ~combos:(fun _ -> 8.0) in
  Alcotest.(check bool) "log2 reduction positive" true (saved > 0.0)

let test_node_classes () =
  (* preset nodes are replicated: one class covering every node *)
  let m = Presets.shepard ~nodes:3 in
  let cls = Symmetry.node_classes m in
  Alcotest.(check int) "one class" 1 (Array.length cls);
  Alcotest.(check int) "all nodes" 3 (Array.length cls.(0))

(* ---- canonicalization -------------------------------------------------- *)

(* Relabel within one orbit: member i takes the block (distribution,
   strategy, processor, positional argument memories) of member perm(i). *)
let apply_perm g (members : int array) (perm : int array) m =
  let nt = Graph.n_tasks g in
  let dist = Array.init nt (Mapping.distribute_of m) in
  let strat = Array.init nt (Mapping.strategy_of m) in
  let proc = Array.init nt (Mapping.proc_of m) in
  let mem =
    Array.map (fun (c : Graph.collection) -> Mapping.mem_of m c.Graph.cid)
      g.Graph.cols
  in
  let dist' = Array.copy dist and strat' = Array.copy strat in
  let proc' = Array.copy proc and mem' = Array.copy mem in
  Array.iteri
    (fun i tid ->
      let src = members.(perm.(i)) in
      dist'.(tid) <- dist.(src);
      strat'.(tid) <- strat.(src);
      proc'.(tid) <- proc.(src);
      List.iteri
        (fun j (c : Graph.collection) ->
          let cs = List.nth (Graph.task g src).Graph.args j in
          mem'.(c.Graph.cid) <- mem.(cs.Graph.cid))
        (Graph.task g tid).Graph.args)
    members;
  Mapping.make g
    ~strategy:(fun (t : Graph.task) -> strat'.(t.Graph.tid))
    ~distribute:(fun (t : Graph.task) -> dist'.(t.Graph.tid))
    ~proc:(fun (t : Graph.task) -> proc'.(t.Graph.tid))
    ~mem:(fun (c : Graph.collection) -> mem'.(c.Graph.cid))

let canon_cases spec =
  let machine = Presets.testbed ~nodes:2 in
  let graphs = [ Gen.graph_of_spec spec; clones_graph 3 ] in
  List.iter
    (fun g ->
      let space = Space.make ~symmetry:true g machine in
      let sym = Symmetry.build g in
      let rng = Rng.create (spec.Gen.seed + 23) in
      for _ = 1 to 10 do
        let m = Space.random_unconstrained space rng in
        let c = Space.canonicalize space m in
        (* idempotent *)
        if not (Mapping.equal c (Space.canonicalize space c)) then
          Alcotest.fail "canonicalize not idempotent";
        (* invariant under any within-orbit relabeling of the canonical
           representative *)
        Array.iter
          (fun members ->
            if Array.length members >= 2 then begin
              let perm = Array.init (Array.length members) Fun.id in
              Rng.shuffle rng perm;
              let relabeled = apply_perm g members perm c in
              if not (Mapping.equal c (Space.canonicalize space relabeled)) then
                Alcotest.fail "canonical not invariant under orbit relabeling"
            end)
          (Symmetry.orbits sym)
      done)
    graphs

let prop_canonical_stable =
  QCheck.Test.make ~count:40
    ~name:"canonicalize is idempotent and relabeling-invariant"
    Gen.arbitrary_spec
    (fun spec ->
      canon_cases spec;
      true)

(* sampled mappings come out canonical already *)
let test_random_mapping_canonical () =
  let machine = Presets.shepard ~nodes:2 in
  let g = clones_graph 4 in
  let space = Space.make ~symmetry:true g machine in
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let m = Space.random_mapping space rng in
    if not (Mapping.equal m (Space.canonicalize space m)) then
      Alcotest.fail "random_mapping returned a non-canonical mapping"
  done

(* The certificate behind seen-set skipping: the canonical
   representative has bit-equal noise-free *static* cost, and a
   simulated makespan that agrees up to dispatch tie order. *)
let test_canonical_cost_certificate () =
  let machine = Presets.shepard ~nodes:2 in
  (* DES dispatch tie order is not relabeling-invariant; on the tiny
     clones graphs each dispatch quantum is a large fraction of the
     makespan, so the drift bound is proportionally looser there. *)
  let cases =
    (clones_graph 3, "clones3", 0.35)
    :: (clones_graph 5, "clones5", 0.35)
    :: List.map
         (fun ((app : App.t), input) ->
           (app.App.graph ~nodes:2 ~input, app.App.app_name, 0.15))
         small_apps
  in
  List.iter
    (fun (g, name, sim_tol) ->
      let space = Space.make ~symmetry:true g machine in
      let sc = Exec.scratch (Exec.compile machine g) in
      let rng = Rng.create 11 in
      let nontrivial = ref 0 in
      for _ = 1 to 25 do
        let m = Space.random_unconstrained space rng in
        let c = Space.canonicalize space m in
        if not (Mapping.equal m c) then incr nontrivial;
        match (Exec.static_lower_bound sc m, Exec.static_lower_bound sc c) with
        | Ok a, Ok b ->
            if not (a = b || Float.abs (a -. b) <= 1e-12 *. Float.abs a) then
              Alcotest.fail
                (Printf.sprintf "%s: static floor changed: %.17g vs %.17g" name a b);
            (match
               ( Exec.simulate ~noise_sigma:0.0 ~seed:0 sc m,
                 Exec.simulate ~noise_sigma:0.0 ~seed:0 sc c )
             with
            | Ok rm, Ok rc ->
                let a = rm.Exec.makespan and b = rc.Exec.makespan in
                if Float.abs (a -. b) > sim_tol *. Float.max a b then
                  Alcotest.fail
                    (Printf.sprintf
                       "%s: simulated makespan drifted past tie-order tolerance: \
                        %.17g vs %.17g"
                       name a b)
            | Ok _, Error e | Error e, Ok _ ->
                Alcotest.fail
                  (Printf.sprintf "%s: validity changed by canonicalization: %s"
                     name
                     (Placement.error_to_string e))
            | Error _, Error _ -> ())
        | Error _, Error _ -> ()
        | Ok _, Error e | Error e, Ok _ ->
            Alcotest.fail
              (Printf.sprintf "%s: feasibility changed by canonicalization: %s" name
                 (Placement.error_to_string e))
      done;
      (* the clones graphs must actually exercise nontrivial relabelings *)
      if String.length name >= 6 && String.sub name 0 6 = "clones" then
        Alcotest.(check bool) (name ^ " canonicalization non-vacuous") true
          (!nontrivial > 0))
    cases

(* ---- seen-set checkpoint codec ----------------------------------------- *)

let test_seen_roundtrip () =
  let machine = Presets.shepard ~nodes:2 in
  let g = clones_graph 4 in
  let ev =
    Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:0 ~symmetry:true
      ~dominance:true machine g
  in
  let seen = Engine.seen_create (Space.canonicalize (Evaluator.space ev)) in
  let strat = Ccd.make ~rotations:2 ev in
  let o = Engine.run ~seen ~start:(Mapping.default_start g machine) ev strat in
  Alcotest.(check bool) "seen-set populated" true (Engine.seen_size seen > 0);
  let ck ~seen =
    Engine.checkpoint_string ~seen ev strat ~trials:o.Engine.trials
      ~steps:o.Engine.steps ~wall:0.0 ~best:(o.Engine.best, o.Engine.perf)
  in
  match Engine.snapshot_of_string (ck ~seen) with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check int) "one line per memoized orbit"
        (Engine.seen_size seen)
        (List.length s.Engine.s_symmetry);
      let seen2 = Engine.seen_create (Space.canonicalize (Evaluator.space ev)) in
      (match Engine.seen_restore seen2 s.Engine.s_symmetry with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check int) "restored size" (Engine.seen_size seen)
        (Engine.seen_size seen2);
      (* bit-exact: re-serializing the restored set reproduces the
         section *)
      (match Engine.snapshot_of_string (ck ~seen:seen2) with
      | Error e -> Alcotest.fail e
      | Ok s2 ->
          Alcotest.(check (list string)) "section round-trips bit-exactly"
            s.Engine.s_symmetry s2.Engine.s_symmetry);
      (* and a garbled line is rejected, not silently dropped *)
      let seen3 = Engine.seen_create (Space.canonicalize (Evaluator.space ev)) in
      (match Engine.seen_restore seen3 [ "not a seen line" ] with
      | Ok () -> Alcotest.fail "seen_restore accepted a garbled line"
      | Error _ -> ())

(* ---- one key per proposal ---------------------------------------------- *)

(* The engine hands the evaluator its seen-set key only when the
   canonicalizer returned the candidate itself.  A twin is memoized
   under its representative's key but must be measured and recorded
   under its own, in plain and in ranked sweeps alike.  Reference mode
   cuts nothing, so every measured candidate enters the database. *)
let test_twins_keyed_as_themselves () =
  let machine = Presets.shepard ~nodes:2 in
  let g = clones_graph 4 in
  List.iter
    (fun ranked ->
      let ev =
        Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:0 ~reference:true
          ~symmetry:true ~dominance:true machine g
      in
      let space = Evaluator.space ev in
      let seen = Engine.seen_create (Space.canonicalize space) in
      let sg = if ranked then Some (Surrogate.create space) else None in
      ignore
        (Engine.run ~seen ?surrogate:sg ~start:(Mapping.default_start g machine) ev
           (Ccd.make ?surrogate:sg ~rotations:2 ev));
      let db = Evaluator.db ev in
      let entries = Profiles_db.top db (Profiles_db.size db) in
      let twins =
        List.filter
          (fun (e : Profiles_db.entry) ->
            Space.canonicalize space e.mapping != e.mapping)
          entries
      in
      Alcotest.(check bool) "twins were measured" true (twins <> []);
      List.iter
        (fun (e : Profiles_db.entry) ->
          match Profiles_db.find db e.mapping with
          | Some found ->
              Alcotest.(check bool) "recorded under its own key" true
                (Mapping.equal found.mapping e.mapping)
          | None -> Alcotest.fail "a measured mapping is not found by its own key")
        entries)
    [ false; true ]

(* ---- driver: resume + flag discipline ---------------------------------- *)

let test_driver_resume_with_symmetry () =
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let path = Filename.temp_file "automap_sym" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let run ?checkpoint ?resume_from ~max_trials () =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials
          ?checkpoint ~checkpoint_every:20 ?resume_from
          (Driver.Ccd { rotations = 5 })
          m g
      in
      let full = run ~max_trials:60 () in
      Alcotest.(check bool) "symmetry skipped duplicates" true
        (full.Driver.symmetry_skips > 0);
      let truncated = run ~checkpoint:path ~max_trials:20 () in
      Alcotest.(check bool) "checkpoint written" true
        (truncated.Driver.checkpoints_written >= 1);
      let resumed = run ~resume_from:path ~max_trials:60 () in
      Alcotest.(check bool) "same best mapping" true
        (Mapping.equal full.Driver.best resumed.Driver.best);
      Alcotest.(check (float 0.0)) "same search perf" full.Driver.search_perf
        resumed.Driver.search_perf;
      Alcotest.(check int) "same evaluation count" full.Driver.evaluated
        resumed.Driver.evaluated;
      (* symmetry is decision state: a checkpoint written without it
         must not resume under it (loud fingerprint mismatch) *)
      let off =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:20
          ~symmetry:false ~checkpoint:path ~checkpoint_every:10
          (Driver.Ccd { rotations = 5 })
          m g
      in
      Alcotest.(check bool) "symmetry-off checkpoint written" true
        (off.Driver.checkpoints_written >= 1);
      match run ~resume_from:path ~max_trials:60 () with
      | _ -> Alcotest.fail "resume accepted a symmetry-off checkpoint"
      | exception Failure msg ->
          Alcotest.(check bool) "mismatch names the fingerprint" true
            (Str_helpers.contains msg "fingerprint"))

(* ---- ISSUE acceptance: reduced search never worse ---------------------- *)

let test_reduced_search_never_worse () =
  let machine = Presets.shepard ~nodes:2 in
  let apps_with_skips = ref 0 in
  List.iter
    (fun ((app : App.t), input) ->
      let g = app.App.graph ~nodes:2 ~input in
      let run ~reduce =
        let ev =
          Evaluator.create ~runs:1 ~noise_sigma:0.0 ~seed:0 ~symmetry:reduce
            ~dominance:reduce machine g
        in
        let seen =
          if reduce then
            Some (Engine.seen_create (Space.canonicalize (Evaluator.space ev)))
          else None
        in
        let o =
          Engine.run
            ~budget:(Budget.make ~max_trials:120 ())
            ?seen
            ~start:(Mapping.default_start g machine)
            ev (Ccd.make ~rotations:2 ev)
        in
        (o.Engine.perf, Evaluator.symmetry_skips ev)
      in
      let base_perf, _ = run ~reduce:false in
      let red_perf, skips = run ~reduce:true in
      Alcotest.(check bool)
        (app.App.app_name ^ " reduced no worse at equal trials")
        true
        (red_perf <= base_perf +. 1e-12);
      if skips > 0 then incr apps_with_skips)
    small_apps;
  Alcotest.(check bool) "skips on at least 3 apps" true (!apps_with_skips >= 3)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_orbits_partition;
    Alcotest.test_case "clones form one orbit" `Quick test_clones_one_orbit;
    Alcotest.test_case "preset nodes form one class" `Quick test_node_classes;
    QCheck_alcotest.to_alcotest prop_canonical_stable;
    Alcotest.test_case "random_mapping is canonical" `Quick
      test_random_mapping_canonical;
    Alcotest.test_case "canonical cost certificate" `Quick
      test_canonical_cost_certificate;
    Alcotest.test_case "seen-set checkpoint round-trip" `Quick test_seen_roundtrip;
    Alcotest.test_case "twins are keyed as themselves" `Quick
      test_twins_keyed_as_themselves;
    Alcotest.test_case "driver resume with symmetry" `Quick
      test_driver_resume_with_symmetry;
    Alcotest.test_case "reduced search acceptance (all apps)" `Quick
      test_reduced_search_never_worse;
  ]
