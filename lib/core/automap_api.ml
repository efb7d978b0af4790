type comparison = {
  label : string;
  mapping : Mapping.t;
  perf : float;
  speedup_vs_default : float;
}

type tuning = {
  machine : Machine.t;
  graph : Graph.t;
  analysis : Analysis.t;
  result : Driver.result;
  default_perf : float;
  comparisons : comparison list;
}

exception Infeasible of Analysis.t

let check_feasible machine graph =
  let a = Analysis.analyze machine graph in
  if not (Analysis.feasible a) then raise (Infeasible a);
  a

let infeasible_message a =
  String.concat "; "
    (List.map
       (fun (d : Analysis.diagnostic) ->
         Printf.sprintf "[%s] %s: %s" d.Analysis.code d.Analysis.subject
           d.Analysis.message)
       (Analysis.errors a))

let speedup ~baseline t = baseline /. t

let measure_mapping ?(runs = 7) ?(seed = 9001) ?noise_sigma machine graph mapping =
  let ev = Evaluator.create ~runs ?noise_sigma ~seed machine graph in
  Stats.mean (Evaluator.measure ev mapping)

let tune ?(seed = 0) ?runs ?final_runs ~app ~machine ~input () =
  let graph = app.App.graph ~nodes:machine.Machine.nodes ~input in
  (* Static feasibility gate: error-level diagnostics certify that no
     candidate can validate and place, so the search would only ever
     measure penalties — refuse instead of burning the budget. *)
  let analysis = check_feasible machine graph in
  let result =
    Driver.run ?runs ?final_runs ~seed (Driver.Ccd { rotations = 5 }) machine graph
  in
  let default_mapping = Mapping.default_start graph machine in
  let custom = app.App.custom graph machine in
  let measure = measure_mapping ~seed:(seed + 77) machine graph in
  let default_perf = measure default_mapping in
  let perf_or_inf m = try measure m with Failure _ -> infinity in
  let comparisons =
    List.map
      (fun (label, mapping, perf) ->
        { label; mapping; perf; speedup_vs_default = speedup ~baseline:default_perf perf })
      [
        ("default", default_mapping, default_perf);
        ("custom", custom, perf_or_inf custom);
        ("automap", result.Driver.best, result.Driver.perf);
      ]
  in
  { machine; graph; analysis; result; default_perf; comparisons }
