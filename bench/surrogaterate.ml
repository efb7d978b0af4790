(* Surrogate-guided search benchmark: how much exact simulation does
   the online cost model save?

   For every benchmark app it runs the same CCD search two ways at the
   same trial budget on fresh evaluators —

     exact    plain sweep order, no model;
     rerank   each task's candidates proposed best-predicted-first,
              every candidate still simulated;

   — and reports, per leg, the final best, the trials and exact
   simulations needed to first reach the exact leg's final quality,
   candidates/sec, and the model's counters and rank correlation.  The
   never-worse gate is enforced here, not just observed: a rerank leg
   ending above the exact leg's final best is a hard failure, the same
   line test_surrogate holds and CI replays on the smoke inputs.

   Results go to stdout and BENCH_surrogaterate.json.

   Usage: dune exec bench/surrogaterate.exe [-- --smoke] [-- --out FILE]
     --smoke   Stencil + Pennant only, smaller budget (CI leg)        *)

let out_file = ref "BENCH_surrogaterate.json"
let smoke = ref false

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out" :: f :: rest ->
        out_file := f;
        parse rest
    | unknown :: _ ->
        Printf.eprintf "surrogaterate: unknown argument %S\n" unknown;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let now = Unix.gettimeofday

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let machine_for (app : App.t) ~nodes =
  if app.App.app_name = "Maestro" then Presets.lassen ~nodes else Presets.shepard ~nodes

type leg = {
  mode : string;
  wall : float;
  perf : float;
  improvements : (int * float) list;  (* (trial, best-so-far) *)
  st : Evaluator.stats;
}

let run_leg ~rerank machine g ~max_trials =
  let ev = Evaluator.create ~seed:3 machine g in
  let sg = if rerank then Some (Surrogate.create (Evaluator.space ev)) else None in
  Option.iter (Evaluator.attach_surrogate ev) sg;
  let improvements = ref [] in
  let t0 = now () in
  let o =
    Engine.run
      ~budget:(Budget.make ~max_trials ())
      ~on_event:(function
        | Engine.Improve { trial; perf; _ } -> improvements := (trial, perf) :: !improvements
        | _ -> ())
      ?surrogate:sg
      ~start:(Mapping.default_start g machine)
      ev
      (Ccd.make ?surrogate:sg ~rotations:5 ev)
  in
  {
    mode = (if rerank then "rerank" else "exact");
    wall = now () -. t0;
    perf = o.Engine.perf;
    improvements = List.rev !improvements;
    st = Evaluator.stats ev;
  }

(* first trial at which the leg's best-so-far reached [quality]; the
   exact leg's own final best is the target, so the exact leg always
   terminates this search *)
let trials_to quality leg =
  List.find_map (fun (t, p) -> if p <= quality then Some t else None) leg.improvements

type row = {
  row_app : string;
  row_input : string;
  budget : int;
  exact : leg;
  rerank : leg;
}

let bench_app (app : App.t) ~input ~max_trials =
  let nodes = 2 in
  let machine = machine_for app ~nodes in
  let g = app.App.graph ~nodes ~input in
  let exact = run_leg ~rerank:false machine g ~max_trials in
  let rerank = run_leg ~rerank:true machine g ~max_trials in
  (* the gate: at the same trial budget, the rerank leg may never end
     worse than the exact search *)
  if rerank.perf > exact.perf then
    failwith
      (Printf.sprintf "surrogaterate: %s rerank leg ended worse than exact (%.6g > %.6g)"
         app.App.app_name rerank.perf exact.perf);
  let report l =
    let cands = float_of_int l.st.Evaluator.s_suggested /. l.wall in
    let reached =
      match trials_to exact.perf l with
      | Some t -> Printf.sprintf "%4d trials" t
      | None -> "   never   "
    in
    Printf.printf
      "  %-6s best %.6g | to-exact-best %s | %4d sims | %7.1f cand/s | %d trained, %d \
       reranks%s\n%!"
      l.mode l.perf reached l.st.Evaluator.s_evaluated cands
      l.st.Evaluator.s_surrogate_trained l.st.Evaluator.s_surrogate_reranks
      (if Float.is_finite l.st.Evaluator.s_spearman then
         Printf.sprintf " | spearman %.3f" l.st.Evaluator.s_spearman
       else "")
  in
  Printf.printf "%s %s (budget %d trials):\n%!" app.App.app_name input max_trials;
  report exact;
  report rerank;
  { row_app = app.App.app_name; row_input = input; budget = max_trials; exact; rerank }

let json_leg target l =
  Printf.sprintf
    {|{"mode": %S, "wall": %.5f, "perf": %.6e, "trials_to_exact_best": %s, "suggested": %d, "evaluated": %d, "cands_per_sec": %.2f, "surrogate_trained": %d, "surrogate_reranks": %d, "spearman_rank_corr": %s, "never_worse": true}|}
    l.mode l.wall l.perf
    (match trials_to target l with Some t -> string_of_int t | None -> "null")
    l.st.Evaluator.s_suggested l.st.Evaluator.s_evaluated
    (float_of_int l.st.Evaluator.s_suggested /. l.wall)
    l.st.Evaluator.s_surrogate_trained l.st.Evaluator.s_surrogate_reranks
    (if Float.is_finite l.st.Evaluator.s_spearman then
       Printf.sprintf "%.4f" l.st.Evaluator.s_spearman
     else "null")

let () =
  let apps =
    if !smoke then [ (App.stencil, "500x500"); (App.pennant, "320x90") ]
    else
      [
        (App.circuit, "n50w200");
        (App.stencil, "500x500");
        (App.pennant, "320x90");
        (App.htr, "8x8y9z");
        (App.maestro, "lf4r16");
      ]
  in
  let max_trials = if !smoke then 150 else 400 in
  Printf.printf "surrogaterate: %s mode, 2 nodes, CCD(5), %d-trial budget, exact vs rerank\n%!"
    (if !smoke then "smoke" else "bench")
    max_trials;
  let rows = List.map (fun (app, input) -> bench_app app ~input ~max_trials) apps in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"bench\": \"surrogaterate\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"commit\": %S,\n" (git_commit ()));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"smoke\": %b,\n  \"nodes\": 2,\n  \"budget_trials\": %d,\n  \"apps\": [\n"
       !smoke max_trials);
  List.iteri
    (fun i row ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"app\": %S, \"input\": %S,\n     \"exact\": %s,\n     \"rerank\": \
            %s}%s\n"
           row.row_app row.row_input
           (json_leg row.exact.perf row.exact)
           (json_leg row.exact.perf row.rerank)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out !out_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" !out_file
