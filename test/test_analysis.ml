(* Static feasibility analyzer (§4.2): preset lint severities, the
   domain soundness contract against the runtime (Mapping.validate +
   strict Placement.resolve), static-floor soundness, and the
   acceptance criteria for domain-pruned search on the real apps. *)

let small_apps =
  [
    (App.circuit, "n50w200");
    (App.stencil, "500x500");
    (App.pennant, "320x90");
    (App.htr, "8x8y9z");
    (App.maestro, "lf4r16");
  ]

(* A shepard-shaped cluster whose Frame-Buffer holds only 8 KB: every
   sizable unaliased GPU-task argument certifiably cannot live in FB,
   so the analyzer has real capacity certificates to prove on the
   bundled apps while System/Zero-Copy keep the workload feasible. *)
let tight_shepard ~nodes =
  let s = Presets.shepard ~nodes in
  Machine.make ~name:"TightShepard" ~nodes
    ~node:{ s.Machine.node with Machine.fb_capacity = 8192.0 }
    ~exec_bw:s.Machine.exec_bw ~compute:s.Machine.compute ~copy:s.Machine.copy ()

let test_headless_error () =
  let machine = Presets.headless ~nodes:1 in
  let g, _, _, _, _ = Fixtures.pipeline () in
  let a = Analysis.analyze machine g in
  Alcotest.(check bool) "infeasible" false (Analysis.feasible a);
  Alcotest.(check bool)
    "unreachable-memory error" true
    (List.exists
       (fun (d : Analysis.diagnostic) -> d.Analysis.code = "unreachable-memory")
       (Analysis.errors a))

let test_presets_clean () =
  (* every working preset must analyze error-free on every bundled app
     it can actually host (warnings and infos are allowed).  Two pairs
     are genuinely infeasible and must be flagged instead: Maestro
     sizes its high-fidelity arrays for 64 GB frame buffers, far past
     the Testbed's 1 GB FB / 2 GB ZC, and its GPU-only tasks have no
     variant CpuOnly can run. *)
  let expect_infeasible machine_name app_name =
    app_name = "Maestro" && (machine_name = "Testbed" || machine_name = "CpuOnly")
  in
  List.iter
    (fun mk ->
      let machine = mk ~nodes:2 in
      List.iter
        (fun ((app : App.t), input) ->
          let g = app.App.graph ~nodes:2 ~input in
          if expect_infeasible machine.Machine.name app.App.app_name then
            Alcotest.(check bool)
              (app.App.app_name ^ " on " ^ machine.Machine.name ^ " infeasible")
              false
              (Analysis.feasible (Analysis.analyze machine g))
          else
            match Analysis.errors (Analysis.analyze machine g) with
            | [] -> ()
            | d :: _ ->
                Alcotest.fail
                  (Printf.sprintf "%s on %s: [%s] %s: %s" app.App.app_name
                     machine.Machine.name d.Analysis.code d.Analysis.subject
                     d.Analysis.message))
        small_apps)
    [ Presets.shepard; Presets.lassen; Presets.testbed; Presets.cpu_only ]

let test_api_gate () =
  let machine = Presets.headless ~nodes:1 in
  let g, _, _, _, _ = Fixtures.pipeline () in
  match Automap_api.check_feasible machine g with
  | exception Automap_api.Infeasible a ->
      Alcotest.(check bool)
        "message names the unreachable memory" true
        (Str_helpers.contains (Automap_api.infeasible_message a) "unreachable-memory")
  | _ -> Alcotest.fail "check_feasible accepted the headless machine"

let test_tight_machine_prunes () =
  (* non-vacuity: on the capacity-constrained machine the domains must
     actually exclude Frame-Buffer for some collection, and Space must
     expose the restriction *)
  let machine = tight_shepard ~nodes:2 in
  let g = App.circuit.App.graph ~nodes:2 ~input:"n50w200" in
  let dom = Analysis.compute_domains machine g in
  Alcotest.(check bool)
    "some FB-infeasible collection" true
    (List.exists
       (fun (c : Graph.collection) ->
         not (Analysis.mem_feasible dom ~cid:c.Graph.cid Kinds.Frame_buffer))
       (Graph.collections g));
  let space = Space.make g machine in
  Alcotest.(check bool) "space pruned" true (Space.pruned space);
  Alcotest.(check bool)
    "some collection loses FB in mem_choices_for" true
    (List.exists
       (fun (c : Graph.collection) ->
         List.length (Space.mem_choices_for space ~cid:c.Graph.cid Kinds.Gpu)
         < List.length (Space.mem_choices space Kinds.Gpu))
       (Graph.collections g))

(* Soundness contract: the analyzer never excludes a coordinate value
   the runtime accepts.  Random workloads, unconstrained random
   mappings; whenever validate + strict resolve both pass, every
   mapped coordinate must sit inside its computed domain.  The tight
   machine makes the property non-vacuous (many values really are
   excluded); the testbed covers the typical ample-capacity case. *)
let prop_domains_sound =
  QCheck.Test.make ~count:80
    ~name:"domains never exclude a coordinate the runtime accepts"
    Gen.arbitrary_spec
    (fun spec ->
      let g = Gen.graph_of_spec spec in
      List.for_all
        (fun machine ->
          let dom = Analysis.compute_domains machine g in
          let space = Space.make ~domains:false g machine in
          let rng = Rng.create (spec.Gen.seed + 17) in
          let sound = ref true in
          for _ = 1 to 15 do
            let m = Space.random_unconstrained space rng in
            match Mapping.validate g machine m with
            | Error _ -> ()
            | Ok () -> (
                match Placement.resolve machine g m with
                | Error _ -> ()
                | Ok _ ->
                    for tid = 0 to Graph.n_tasks g - 1 do
                      if
                        not
                          (List.mem (Mapping.proc_of m tid)
                             (Analysis.proc_domain dom tid))
                      then sound := false
                    done;
                    List.iter
                      (fun (c : Graph.collection) ->
                        let k = Mapping.proc_of m c.Graph.owner in
                        if
                          not
                            (List.mem
                               (Mapping.mem_of m c.Graph.cid)
                               (Analysis.mem_domain dom ~cid:c.Graph.cid k))
                        then sound := false)
                      (Graph.collections g))
          done;
          !sound)
        [ Presets.testbed ~nodes:2; tight_shepard ~nodes:2 ])

(* The critical-path-tightened static floor must stay below every
   simulated makespan of the same mapping, at any noise level/seed. *)
let prop_static_floor_sound =
  QCheck.Test.make ~count:40
    ~name:"static lower bound never exceeds a simulated makespan"
    Gen.arbitrary_spec
    (fun spec ->
      let g = Gen.graph_of_spec spec in
      let machine = Presets.testbed ~nodes:2 in
      let sc = Exec.scratch (Exec.compile machine g) in
      let m = Mapping.default_start g machine in
      match Exec.static_lower_bound sc m with
      | Error _ -> true
      | Ok floor ->
          floor >= 0.0
          && List.for_all
               (fun (sigma, seed) ->
                 match Exec.simulate ~noise_sigma:sigma ~seed sc m with
                 | Ok r -> floor <= r.Exec.makespan *. (1.0 +. 1e-9) +. 1e-12
                 | Error _ -> true)
               [ (0.0, 0); (0.03, 1); (0.3, 7) ])

let test_floor_covers_critical_path () =
  (* pipeline: produce -> consume is a 2-task chain, so the floor must
     be at least 2 dispatches deep — strictly more than the busiest
     single node's serialization would give for one instance each *)
  let machine = Presets.testbed ~nodes:4 in
  let g, _, _, _, _ = Fixtures.pipeline ~group_size:4 () in
  let sc = Exec.scratch (Exec.compile machine g) in
  match Exec.static_lower_bound sc (Mapping.default_start g machine) with
  | Error e -> Alcotest.fail (Placement.error_to_string e)
  | Ok floor ->
      Alcotest.(check bool)
        "floor >= depth * dispatch" true
        (floor >= 2.0 *. machine.Machine.compute.Machine.runtime_dispatch -. 1e-15)

(* ISSUE acceptance: on every bundled app, the domain-pruned CCD search
   must reach a best makespan no worse than the unpruned baseline while
   paying for strictly fewer Placement resolutions — the skipped dead
   coordinates were exactly the candidates whose strict resolve ends in
   OOM — and must actually report skipped dead coordinates. *)
let test_pruned_search_no_worse () =
  (* per-app machine: one GPU memory kind holds only half the app's
     largest per-shard argument — so that kind is certifiably dead for
     at least that collection — while the remaining kinds stay ample,
     keeping the workload feasible and the live coordinate space
     identical between the pruned and unpruned runs.  Frame-Buffer is
     the tightened kind except for Maestro, whose GPU-only tasks place
     their arguments in FB at the start mapping (FB must stay at
     Maestro's design size of 64 GB/node); there Zero-Copy is
     tightened instead, forcing the hf arrays into FB. *)
  let tight_for ?(knob = `Fb) g ~nodes =
    let maxb =
      List.fold_left
        (fun acc (c : Graph.collection) -> Float.max acc c.Graph.bytes)
        0.0 (Graph.collections g)
    in
    let s = Presets.shepard ~nodes in
    let node =
      match knob with
      | `Fb ->
          {
            s.Machine.node with
            Machine.fb_capacity = 0.5 *. maxb;
            Machine.zc_capacity = 1e15;
            Machine.sysmem_per_socket = 1e15;
          }
      | `Zc ->
          {
            s.Machine.node with
            Machine.zc_capacity = 0.5 *. maxb;
            Machine.sysmem_per_socket = 1e15;
          }
    in
    Machine.make ~name:"Tight" ~nodes ~node ~exec_bw:s.Machine.exec_bw
      ~compute:s.Machine.compute ~copy:s.Machine.copy ()
  in
  List.iter
    (fun ((app : App.t), input) ->
      let g = app.App.graph ~nodes:2 ~input in
      let knob = if app.App.app_name = "Maestro" then `Zc else `Fb in
      let machine = tight_for ~knob g ~nodes:2 in
      let run domain_prune =
        let ev =
          Evaluator.create ~runs:1 ~noise_sigma:0.0 ~seed:0 ~domain_prune machine g
        in
        let _, perf = Fixtures.search ev (Ccd.make ~rotations:2 ev) in
        (perf, Evaluator.stats ev)
      in
      let p_on, st_on = run true in
      let p_off, st_off = run false in
      Alcotest.(check bool)
        (app.App.app_name ^ " pruned no worse")
        true
        (p_on <= p_off +. 1e-12);
      let resolutions (st : Evaluator.stats) =
        st.Evaluator.s_delta_binds + st.Evaluator.s_full_binds + st.Evaluator.s_oom
      in
      Alcotest.(check bool)
        (app.App.app_name ^ " strictly fewer resolutions")
        true
        (resolutions st_on < resolutions st_off);
      Alcotest.(check bool)
        (app.App.app_name ^ " dead coordinates skipped")
        true
        (st_on.Evaluator.s_dead_coord_skips > 0))
    small_apps

(* Dominance soundness: substituting a dominator for a dominated value
   in any mapping keeps the mapping feasible, never adds work (the
   noise-free busy time summed over processors) and is never slower.
   Swaps keep every other coordinate fixed, so any regression is
   attributable to the claimed dominance.

   The memory rule does not yet earn "never slower" on every workload:
   it certifies only the owner's own duration, and a task made shorter
   can reorder a shared processor, the per-node dispatcher or a channel
   FIFO and finish the run later (a Graham anomaly).  A sweep of
   QCHECK_SEED 1-1000 fails [prop_dominance_sound] on 24 seeds (0.03% to
   9% slower, no added work).  The property keeps the full claim, so it
   fails on such seeds until the rule is fixed; the first
   counterexample is kept below as an expected failure. *)

let set_proc g m tid k =
  Mapping.make g
    ~strategy:(fun (t : Graph.task) -> Mapping.strategy_of m t.Graph.tid)
    ~distribute:(fun (t : Graph.task) -> Mapping.distribute_of m t.Graph.tid)
    ~proc:(fun (t : Graph.task) ->
      if t.Graph.tid = tid then k else Mapping.proc_of m t.Graph.tid)
    ~mem:(fun (c : Graph.collection) -> Mapping.mem_of m c.Graph.cid)

let set_mem g m cid k =
  Mapping.make g
    ~strategy:(fun (t : Graph.task) -> Mapping.strategy_of m t.Graph.tid)
    ~distribute:(fun (t : Graph.task) -> Mapping.distribute_of m t.Graph.tid)
    ~proc:(fun (t : Graph.task) -> Mapping.proc_of m t.Graph.tid)
    ~mem:(fun (c : Graph.collection) ->
      if c.Graph.cid = cid then k else Mapping.mem_of m c.Graph.cid)

let slower a b = a > (b *. (1.0 +. 1e-9)) +. 1e-15
let total_busy (r : Exec.result) = Array.fold_left ( +. ) 0.0 r.Exec.proc_busy

(* Checks every dominated value reachable from [samples] random
   mappings and returns how many substitution pairs were exercised.  A
   substitution that is infeasible or adds work fails the test; one
   that is slower fails it too unless [on_slower] is given, which then
   receives the pair's name and both makespans. *)
let check_dominance_sound ?(samples = 12) ?on_slower ~seed machine g =
  let a = Analysis.analyze machine g in
  let dom = Analysis.dominance a in
  if Analysis.n_dominated dom = 0 then 0
  else begin
    let space = Space.make ~domains:false g machine in
    let sc = Exec.scratch (Exec.compile machine g) in
    let rng = Rng.create seed in
    let exercised = ref 0 in
    let check name orig subst =
      match Exec.simulate ~noise_sigma:0.0 ~seed:0 sc orig with
      | Error _ -> ()
      | Ok r_b -> (
          incr exercised;
          match Exec.simulate ~noise_sigma:0.0 ~seed:0 sc subst with
          | Error e ->
              Alcotest.fail
                (Printf.sprintf "%s: dominator substitution became infeasible: %s"
                   name
                   (Placement.error_to_string e))
          | Ok r_a ->
              if slower (total_busy r_a) (total_busy r_b) then
                Alcotest.fail
                  (Printf.sprintf "%s: dominator adds work: %.17g vs %.17g" name
                     (total_busy r_a) (total_busy r_b));
              if slower r_a.Exec.makespan r_b.Exec.makespan then (
                match on_slower with
                | Some f -> f name r_a.Exec.makespan r_b.Exec.makespan
                | None ->
                    Alcotest.fail
                      (Printf.sprintf "%s: dominator slower: %.17g vs %.17g" name
                         r_a.Exec.makespan r_b.Exec.makespan)))
    in
    for _ = 1 to samples do
      let m = Space.random_unconstrained space rng in
      for tid = 0 to Graph.n_tasks g - 1 do
        List.iter
          (fun (dominated, dominator) ->
            check
              (Printf.sprintf "%s task %d: %s > %s" g.Graph.gname tid
                 (Kinds.proc_kind_to_string dominator)
                 (Kinds.proc_kind_to_string dominated))
              (set_proc g m tid dominated)
              (set_proc g m tid dominator))
          (Analysis.dominated_procs dom tid)
      done;
      List.iter
        (fun (c : Graph.collection) ->
          let owner_kind = Mapping.proc_of m c.Graph.owner in
          List.iter
            (fun (dominated, dominator) ->
              check
                (Printf.sprintf "%s c%d under %s: %s > %s" g.Graph.gname
                   c.Graph.cid
                   (Kinds.proc_kind_to_string owner_kind)
                   (Kinds.mem_kind_to_string dominator)
                   (Kinds.mem_kind_to_string dominated))
                (set_mem g m c.Graph.cid dominated)
                (set_mem g m c.Graph.cid dominator))
            (Analysis.dominated_mems dom ~cid:c.Graph.cid owner_kind))
        (Graph.collections g)
    done;
    !exercised
  end

let test_dominance_sound_apps () =
  let exercised = ref 0 in
  List.iter
    (fun ((app : App.t), input) ->
      let g = app.App.graph ~nodes:2 ~input in
      List.iter
        (fun machine ->
          exercised := !exercised + check_dominance_sound ~seed:29 machine g)
        [ Presets.shepard ~nodes:2; tight_shepard ~nodes:2 ])
    small_apps;
  (* the bundled apps must make this test non-vacuous *)
  Alcotest.(check bool) "dominated substitutions exercised" true (!exercised > 0)

let prop_dominance_sound =
  QCheck.Test.make ~count:30
    ~name:"dominator substitution is feasible and never slower"
    Gen.arbitrary_spec
    (fun spec ->
      let g = Gen.graph_of_spec spec in
      List.iter
        (fun machine ->
          ignore
            (check_dominance_sound ~samples:6 ~seed:(spec.Gen.seed + 31) machine g))
        [ Presets.shepard ~nodes:2; tight_shepard ~nodes:2 ];
      true)

(* The first counterexample of the seed sweep (QCHECK_SEED=93), an
   expected failure of "never slower": on fuzz580665, moving collection
   c0 of a GPU task from Zero_copy to the Frame_buffer that dominates it
   makes the run later, 0.00080944 s against 0.00080588 s.  Feasibility
   and added work are still asserted.  The slowdown is reported, not
   asserted, so a fix of the memory rule passes here too (and should
   then delete this case, since [prop_dominance_sound] covers it). *)
let test_dominance_known_anomaly () =
  let spec =
    { Gen.n_arrays = 2; n_tasks = 2; seed = 580665; iterations = 3; group_size = 1 }
  in
  let g = Gen.graph_of_spec spec in
  let slowdowns = ref [] in
  List.iter
    (fun machine ->
      ignore
        (check_dominance_sound ~samples:6 ~seed:(spec.Gen.seed + 31)
           ~on_slower:(fun name a b -> slowdowns := (name, a, b) :: !slowdowns)
           machine g))
    [ Presets.shepard ~nodes:2; tight_shepard ~nodes:2 ];
  match List.rev !slowdowns with
  | [] -> print_endline "XPASS: the known dominance anomaly no longer reproduces"
  | (name, a, b) :: _ ->
      Printf.printf "XFAIL (expected): %s: dominator slower: %.17g vs %.17g\n" name a b

(* ---- channel lint -------------------------------------------------- *)

(* The quadratic channel scan the linear lint replaced, kept as its
   oracle: every ordered memory pair, reporting the first pair of each
   asymmetric kind pair and the first pair of each channel class. *)
let channel_lint_oracle (machine : Machine.t) =
  let diags = ref [] in
  let add severity code message =
    diags := { Analysis.severity; code; subject = "machine"; message } :: !diags
  in
  let mems = machine.Machine.memories in
  let seen = Hashtbl.create 16 in
  let name (m : Machine.memory) = Kinds.mem_kind_to_string m.Machine.mkind in
  Array.iter
    (fun (a : Machine.memory) ->
      Array.iter
        (fun (b : Machine.memory) ->
          let ch = Machine.channel_between machine a b in
          let rev = Machine.channel_between machine b a in
          if rev <> ch && not (Hashtbl.mem seen (`Asym (a.Machine.mkind, b.Machine.mkind)))
          then begin
            Hashtbl.add seen (`Asym (a.Machine.mkind, b.Machine.mkind)) ();
            add Analysis.Warning "asymmetric-channel"
              (Printf.sprintf "%s->%s and %s->%s use different channels" (name a)
                 (name b) (name b) (name a))
          end;
          if ch <> Machine.Same_memory && not (Hashtbl.mem seen (`Chan ch)) then begin
            Hashtbl.add seen (`Chan ch) ();
            let bw = Machine.channel_bandwidth machine ch in
            if not (bw > 0.0) then
              add Analysis.Error "dead-channel"
                (Printf.sprintf "channel %s->%s has non-positive bandwidth %g" (name a)
                   (name b) bw)
          end)
        mems)
    mems;
  List.rev !diags

let channel_diags machine =
  List.filter
    (fun (d : Analysis.diagnostic) ->
      d.Analysis.code = "asymmetric-channel" || d.Analysis.code = "dead-channel")
    (Analysis.machine_lint machine)

let with_copy (m : Machine.t) copy =
  Machine.make ~name:m.Machine.name ~nodes:m.Machine.nodes ~node:m.Machine.node
    ~exec_bw:m.Machine.exec_bw ~compute:m.Machine.compute ~copy
    ?topology:m.Machine.topology ()

let dead msg = [ { Analysis.severity = Analysis.Error; code = "dead-channel";
                   subject = "machine"; message = msg } ]

let test_dead_channels () =
  let s = Presets.shepard ~nodes:2 in
  (* Machine.make rejects a zero or negative bandwidth outright, so the
     only non-positive rate the lint can meet is NaN, which slips past
     make's [v <= 0] checks (and parses from codec text) *)
  Alcotest.check_raises "zero net bandwidth rejected"
    (Invalid_argument "Machine.make: net_bandwidth must be positive") (fun () ->
      ignore (with_copy s { s.Machine.copy with Machine.net_bandwidth = 0.0 }));
  Alcotest.check_raises "zero pcie bandwidth rejected on a GPU node"
    (Invalid_argument "Machine.make: pcie_bw must be positive") (fun () ->
      ignore (with_copy s { s.Machine.copy with Machine.pcie_bw = 0.0 }));
  Alcotest.(check int) "shepard nodes carry a GPU" 1 s.Machine.node.Machine.gpus;
  let check label machine expected =
    let got = channel_diags machine in
    Alcotest.(check (list string)) label
      (List.map (fun d -> d.Analysis.message) expected)
      (List.map (fun d -> d.Analysis.message) got);
    Alcotest.(check bool) (label ^ " (records)") true (got = expected);
    Alcotest.(check bool) (label ^ " (infeasible)") false
      (Analysis.feasible (Analysis.analyze machine (App.stencil.App.graph ~nodes:2 ~input:"500x500")))
  in
  (* the first Network pair the scan meets is node 0's SYS(socket 0)
     against node 1's SYS(socket 0) *)
  check "NaN network bandwidth"
    (with_copy s { s.Machine.copy with Machine.net_bandwidth = Float.nan })
    (dead "channel SYS->SYS has non-positive bandwidth nan");
  (* and the first PCIe pair is SYS(socket 0) against the node's FB *)
  check "NaN PCIe bandwidth"
    (with_copy s { s.Machine.copy with Machine.pcie_bw = Float.nan })
    (dead "channel SYS->FB has non-positive bandwidth nan");
  Alcotest.(check int) "healthy preset has no channel diagnostics" 0
    (List.length (channel_diags s))

(* Machines over presets, node counts 1-64, topology specs, NaN-poisoned
   copy rates and codec round trips. *)
let gen_lint_machine =
  let open QCheck.Gen in
  let base =
    oneof
      [
        (let* mk =
           oneofl
             [ Presets.shepard; Presets.lassen; Presets.testbed; Presets.cpu_only;
               Presets.headless ]
         in
         let* nodes = int_range 1 64 in
         return (mk ~nodes));
        (let* spec =
           oneof
             [
               map2 (Printf.sprintf "grid:%dx%d") (int_range 1 8) (int_range 1 8);
               map2 (Printf.sprintf "torus:%dx%d") (int_range 2 8) (int_range 2 8);
               map (Printf.sprintf "direct:%d") (int_range 1 64);
               oneofl [ "fattree:1:4"; "fattree:2:4"; "fattree:3:4"; "fattree:2:8"; "fattree:6:2" ];
             ]
         in
         let* free = bool in
         let spec = if free then spec ^ ":free" else spec in
         match Presets.of_spec spec ~nodes:1 with
         | Ok m -> return m
         | Error e -> failwith e);
      ]
  in
  let* m = base in
  let* poison = list_repeat 5 (frequencyl [ (4, false); (1, true) ]) in
  let* codec = bool in
  let rate i v = if List.nth poison i then Float.nan else v in
  let c = m.Machine.copy in
  let m =
    with_copy m
      { c with
        Machine.memcpy_bw = rate 0 c.Machine.memcpy_bw;
        cross_socket_bw = rate 1 c.Machine.cross_socket_bw;
        pcie_bw = rate 2 c.Machine.pcie_bw;
        gpu_peer_bw = rate 3 c.Machine.gpu_peer_bw;
        net_bandwidth = rate 4 c.Machine.net_bandwidth }
  in
  return (if codec then Machine_codec.round_trip_exn m else m)

let prop_channel_lint_oracle =
  QCheck.Test.make ~count:150
    ~name:"linear channel lint equals the quadratic oracle"
    (QCheck.make
       ~print:(fun m ->
         Printf.sprintf "%s (%d nodes)" m.Machine.name m.Machine.nodes)
       gen_lint_machine)
    (fun m -> channel_diags m = channel_lint_oracle m)

let suite =
  [
    Alcotest.test_case "headless unreachable memory" `Quick test_headless_error;
    Alcotest.test_case "dead channels are flagged" `Quick test_dead_channels;
    QCheck_alcotest.to_alcotest prop_channel_lint_oracle;
    Alcotest.test_case "presets analyze clean" `Quick test_presets_clean;
    Alcotest.test_case "api refuses infeasible" `Quick test_api_gate;
    Alcotest.test_case "tight machine prunes" `Quick test_tight_machine_prunes;
    QCheck_alcotest.to_alcotest prop_domains_sound;
    QCheck_alcotest.to_alcotest prop_static_floor_sound;
    Alcotest.test_case "dominance sound on apps" `Quick test_dominance_sound_apps;
    QCheck_alcotest.to_alcotest prop_dominance_sound;
    Alcotest.test_case "dominance known anomaly (expected failure)" `Quick
      test_dominance_known_anomaly;
    Alcotest.test_case "floor covers critical path" `Quick test_floor_covers_critical_path;
    Alcotest.test_case "pruned search acceptance" `Quick test_pruned_search_no_worse;
  ]
