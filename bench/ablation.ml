(* Ablation benches for the design choices DESIGN.md calls out:

   - rotations: §5 fixes CCD at 5 rotations ("more increased the search
     time without improving performance, fewer made CCD perform
     similarly to CD") — we sweep the knob;
   - algorithms: the full panel at equal virtual-time budget, adding
     the baselines the paper discusses but does not plot (HEFT from
     related work, valid-space random sampling, simulated annealing);
   - measurement runs: §5 evaluates every candidate 7 times because
     "individual mappings can have significant variation in
     performance from run to run" — we quantify how often a 1-run
     search picks the wrong mapping;
   - objective: §3.3 claims the framework "is suitable for minimizing
     other metrics (e.g., power consumption)" — we tune the same app
     for time and for energy and show the mappings diverge;
   - online: §6's inspector-executor deployment mode. *)

let seed () = !Bench_common.scale.seed

let rotations () =
  Bench_common.section "Ablation: CCD rotations (Pennant 320x90, 1 node)";
  let machine = Presets.shepard ~nodes:1 in
  let g = App.pennant.App.graph ~nodes:1 ~input:"320x90" in
  let t = Table.create [ "rotations"; "best (ms/iter)"; "evaluated"; "search time (s)" ] in
  List.iter
    (fun rotations ->
      let r =
        Driver.run ~runs:(Bench_common.runs ()) ~final_runs:1 ~seed:(seed ())
          (Driver.Ccd { rotations }) machine g
      in
      Table.add_row t
        [
          string_of_int rotations;
          Printf.sprintf "%.3f" (r.Driver.perf *. 1e3);
          string_of_int r.Driver.evaluated;
          Printf.sprintf "%.1f" r.Driver.virtual_search_time;
        ])
    [ 2; 3; 5; 8 ];
  Table.print t

let algorithms () =
  Bench_common.section "Ablation: search-algorithm panel at equal budget (Pennant 320x90)";
  let machine = Presets.shepard ~nodes:1 in
  let g = App.pennant.App.graph ~nodes:1 ~input:"320x90" in
  let ccd =
    Driver.run ~runs:(Bench_common.runs ()) ~final_runs:1 ~seed:(seed ())
      (Driver.Ccd { rotations = 5 }) machine g
  in
  let budget = ccd.Driver.virtual_search_time in
  let default_perf =
    match
      Bench_common.measure_mapping ~runs:(Bench_common.runs ()) machine g
        (Mapping.default_start g machine) ~seed:(seed ())
    with
    | Some v -> v
    | None -> nan
  in
  let heft_perf =
    match
      Bench_common.measure_mapping ~runs:(Bench_common.runs ()) machine g
        (Heft.mapping machine g) ~seed:(seed ())
    with
    | Some v -> Printf.sprintf "%.3f" (v *. 1e3)
    | None -> "OOM"
  in
  let t = Table.create [ "algorithm"; "best (ms/iter)"; "vs default"; "evaluated" ] in
  Table.add_row t [ "default mapper"; Printf.sprintf "%.3f" (default_perf *. 1e3); "1.00"; "-" ];
  Table.add_row t [ "HEFT (related work)"; heft_perf; ""; "-" ];
  let row name (r : Driver.result) =
    Table.add_row t
      [
        name;
        Printf.sprintf "%.3f" (r.Driver.perf *. 1e3);
        Printf.sprintf "%.2f" (default_perf /. r.Driver.perf);
        string_of_int r.Driver.evaluated;
      ]
  in
  row "CCD" ccd;
  List.iter
    (fun algo ->
      row (Driver.algo_name algo)
        (Driver.run ~runs:(Bench_common.runs ()) ~final_runs:1 ~seed:(seed ()) ~budget
           algo machine g))
    [
      Driver.Cd;
      Driver.Ensemble_tuner;
      Driver.Random_walk { max_evals = 100_000 };
      Driver.Annealing { max_evals = 100_000 };
    ];
  Table.print t

let measurement_runs () =
  Bench_common.section
    "Ablation: candidate-measurement repetitions under run-to-run noise (Circuit n100w400)";
  let machine = Presets.shepard ~nodes:1 in
  let g = App.circuit.App.graph ~nodes:1 ~input:"n100w400" in
  (* ground truth: noise-free performance of the search result *)
  let truth mapping =
    match Exec.run ~noise_sigma:0.0 machine g mapping with
    | Ok r -> r.Exec.per_iteration
    | Error _ -> infinity
  in
  let t =
    Table.create
      [ "runs/candidate"; "mean regret vs noise-free best (%)"; "trials" ]
  in
  let trials = if !Bench_common.scale.full then 10 else 5 in
  let best_truth = ref infinity in
  let regrets =
    List.map
      (fun runs ->
        let rs =
          List.init trials (fun trial ->
              let ev =
                Evaluator.create ~runs ~noise_sigma:0.08 ~seed:(100 + trial) machine g
              in
              let m =
                (Engine.run ~start:(Mapping.default_start g machine) ev (Ccd.make ev))
                  .Engine.best
              in
              let v = truth m in
              best_truth := Float.min !best_truth v;
              v)
        in
        (runs, rs))
      [ 1; 3; 7 ]
  in
  List.iter
    (fun (runs, rs) ->
      let regret =
        Stats.mean (List.map (fun v -> 100.0 *. ((v /. !best_truth) -. 1.0)) rs)
      in
      Table.add_row t
        [ string_of_int runs; Printf.sprintf "%.1f" regret; string_of_int trials ])
    regrets;
  Table.print t

let objective () =
  Bench_common.section "Ablation: time vs energy objective (Circuit n800w3200, 1 node)";
  let machine = Presets.shepard ~nodes:1 in
  let g = App.circuit.App.graph ~nodes:1 ~input:"n800w3200" in
  let pm = Energy.default_power in
  let describe label mapping =
    match Exec.run ~noise_sigma:0.0 machine g mapping with
    | Ok r ->
        Printf.printf "  %-14s %8.3f ms/iter  %8.3f J/iter   %s\n" label
          (r.Exec.per_iteration *. 1e3)
          (Energy.joules_per_iteration machine pm r)
          (Report.placement_summary g mapping)
    | Error e -> Printf.printf "  %-14s %s\n" label (Placement.error_to_string e)
  in
  let for_time =
    Driver.run ~runs:(Bench_common.runs ()) ~final_runs:(Bench_common.final_runs ())
      ~seed:(seed ()) (Driver.Ccd { rotations = 5 }) machine g
  in
  let for_energy =
    Driver.run ~runs:(Bench_common.runs ()) ~final_runs:(Bench_common.final_runs ())
      ~seed:(seed ())
      ~objective:(fun machine r -> Energy.joules_per_iteration machine pm r)
      (Driver.Ccd { rotations = 5 }) machine g
  in
  describe "default" (Mapping.default_start g machine);
  describe "tuned (time)" for_time.Driver.best;
  describe "tuned (energy)" for_energy.Driver.best

let online () =
  Bench_common.section "Ablation: inspector-executor on-line tuning (HTR 16x16y18z)";
  let machine = Presets.shepard ~nodes:1 in
  let g = App.htr.App.graph ~nodes:1 ~input:"16x16y18z" in
  let t =
    Table.create
      [ "job length (iters)"; "search share"; "untuned (s)"; "tuned (s)"; "speedup" ]
  in
  List.iter
    (fun total_iterations ->
      List.iter
        (fun search_fraction ->
          let r = Online.run ~seed:(seed ()) ~search_fraction ~total_iterations machine g in
          Table.add_row t
            [
              string_of_int total_iterations;
              Printf.sprintf "%.0f%%" (search_fraction *. 100.0);
              Printf.sprintf "%.2f" r.Online.default_total;
              Printf.sprintf "%.2f" r.Online.tuned_total;
              Printf.sprintf "%.2f" r.Online.speedup;
            ])
        [ 0.05; 0.2 ])
    [ 2_000; 20_000 ];
  Table.print t

let strategy () =
  Bench_common.section
    "Ablation: group-task distribution strategies (Circuit n800w3200, 4 nodes)";
  (* §3.2 flags searching the cross-node decomposition as future work
     and §5 notes Circuit's custom mapper used a different decomposition
     than AutoMap; the extended space closes that gap. *)
  let machine = Presets.shepard ~nodes:4 in
  let g = App.circuit.App.graph ~nodes:4 ~input:"n800w3200" in
  let describe label mapping =
    match
      Bench_common.measure_mapping ~runs:(Bench_common.runs ()) machine g mapping
        ~seed:(seed ())
    with
    | Some v -> Printf.printf "  %-22s %8.3f ms/iter\n" label (v *. 1e3)
    | None -> Printf.printf "  %-22s OOM\n" label
  in
  let default = Mapping.default_start g machine in
  describe "default (blocked)" default;
  describe "all-cyclic"
    (Mapping.make g
       ~strategy:(fun _ -> Mapping.Cyclic)
       ~distribute:(fun t -> Mapping.distribute_of default t.Graph.tid)
       ~proc:(fun t -> Mapping.proc_of default t.Graph.tid)
       ~mem:(fun c -> Mapping.mem_of default c.Graph.cid));
  let tune ?extended label =
    let r =
      Driver.run ~runs:(Bench_common.runs ()) ~final_runs:(Bench_common.final_runs ())
        ~seed:(seed ()) ?extended (Driver.Ccd { rotations = 5 }) machine g
    in
    Printf.printf "  %-22s %8.3f ms/iter  (%d evaluated)\n" label
      (r.Driver.perf *. 1e3) r.Driver.evaluated
  in
  tune "AM-CCD (paper space)";
  tune ~extended:true "AM-CCD (extended)"

let run () =
  rotations ();
  strategy ();
  algorithms ();
  measurement_runs ();
  objective ();
  online ()
