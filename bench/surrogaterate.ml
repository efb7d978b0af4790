(* Surrogate-guided search benchmark: how much exact simulation does
   the online cost model save?

   For every benchmark app it runs the same batched CCD search three
   ways at the same trial budget on fresh evaluators —

     exact    plain batch order, no model (the PR 6 baseline);
     rerank   batches permuted best-predicted-first, every candidate
              still simulated;
     skim     reranked and truncated to the top-K predictions per
              batch once the model is past warmup;

   — and reports, per leg, the final best, the trials and exact
   simulations needed to first reach the exact leg's final quality,
   candidates/sec, and the model's counters and rank correlation.  The
   never-worse gate is enforced here, not just observed: a surrogate
   leg ending above the exact leg's final best is a hard failure, the
   same line test_surrogate holds and CI replays on the smoke inputs.

   Results go to stdout and BENCH_surrogaterate.json.  With
   AUTOMAP_NO_SURROGATE set the whole report is stamped skipped.

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

let no_surrogate = Sys.getenv_opt "AUTOMAP_NO_SURROGATE" <> None
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

type mode = Exact | Rerank | Skim of int

(* the skim leg uses a small correlation window so warmup (2x window)
   ends inside even the smoke budget — the default 64 is tuned for
   long searches *)
let skim_window = 8

let run_leg mode machine g ~max_trials =
  let ev = Evaluator.create ~seed:3 machine g in
  let sg =
    match mode with
    | Exact -> None
    | Rerank -> Some (Surrogate.create (Evaluator.space ev))
    | Skim k -> Some (Surrogate.create ~window:skim_window ~skim:k (Evaluator.space ev))
  in
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
      (Ccd.make ~batch:true ?surrogate:sg ~rotations:5 ev)
  in
  {
    mode = (match mode with Exact -> "exact" | Rerank -> "rerank" | Skim _ -> "skim");
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
  skim : leg;
  skim_k : int;
}

let bench_app (app : App.t) ~input ~max_trials ~skim_k =
  let nodes = 2 in
  let machine = machine_for app ~nodes in
  let g = app.App.graph ~nodes ~input in
  let exact = run_leg Exact machine g ~max_trials in
  let rerank = run_leg Rerank machine g ~max_trials in
  let skim = run_leg (Skim skim_k) machine g ~max_trials in
  (* the gate: at the same trial budget, a surrogate leg may never end
     worse than the exact search *)
  List.iter
    (fun l ->
      if l.perf > exact.perf then
        failwith
          (Printf.sprintf "surrogaterate: %s %s leg ended worse than exact (%.6g > %.6g)"
             app.App.app_name l.mode l.perf exact.perf))
    [ rerank; skim ];
  let report l =
    let cands = float_of_int l.st.Evaluator.s_suggested /. l.wall in
    let reached =
      match trials_to exact.perf l with
      | Some t -> Printf.sprintf "%4d trials" t
      | None -> "   never   "
    in
    Printf.printf
      "  %-6s best %.6g | to-exact-best %s | %4d sims | %7.1f cand/s | %d trained, %d \
       reranks, %d skims%s\n%!"
      l.mode l.perf reached l.st.Evaluator.s_evaluated cands
      l.st.Evaluator.s_surrogate_trained l.st.Evaluator.s_surrogate_reranks
      l.st.Evaluator.s_surrogate_skips
      (if Float.is_finite l.st.Evaluator.s_spearman then
         Printf.sprintf " | spearman %.3f" l.st.Evaluator.s_spearman
       else "")
  in
  Printf.printf "%s %s (budget %d trials, skim K=%d):\n%!" app.App.app_name input
    max_trials skim_k;
  report exact;
  report rerank;
  report skim;
  { row_app = app.App.app_name; row_input = input; budget = max_trials; exact; rerank;
    skim; skim_k }

let json_leg target l =
  Printf.sprintf
    {|{"mode": %S, "wall": %.5f, "perf": %.6e, "trials_to_exact_best": %s, "suggested": %d, "evaluated": %d, "cands_per_sec": %.2f, "surrogate_trained": %d, "surrogate_reranks": %d, "surrogate_skips": %d, "spearman_rank_corr": %s, "never_worse": true}|}
    l.mode l.wall l.perf
    (match trials_to target l with Some t -> string_of_int t | None -> "null")
    l.st.Evaluator.s_suggested l.st.Evaluator.s_evaluated
    (float_of_int l.st.Evaluator.s_suggested /. l.wall)
    l.st.Evaluator.s_surrogate_trained l.st.Evaluator.s_surrogate_reranks
    l.st.Evaluator.s_surrogate_skips
    (if Float.is_finite l.st.Evaluator.s_spearman then
       Printf.sprintf "%.4f" l.st.Evaluator.s_spearman
     else "null")

let () =
  if no_surrogate then begin
    let oc = open_out !out_file in
    Printf.fprintf oc
      "{\n  \"bench\": \"surrogaterate\",\n  \"commit\": %S,\n  \"skipped\": true\n}\n"
      (git_commit ());
    close_out oc;
    Printf.printf "surrogaterate: AUTOMAP_NO_SURROGATE set, skipped (wrote %s)\n%!"
      !out_file;
    exit 0
  end;
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
  let skim_k = 12 in
  Printf.printf
    "surrogaterate: %s mode, 2 nodes, CCD(5) batch, %d-trial budget, exact vs rerank \
     vs skim(%d)\n%!"
    (if !smoke then "smoke" else "bench")
    max_trials skim_k;
  let rows = List.map (fun (app, input) -> bench_app app ~input ~max_trials ~skim_k) apps in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"bench\": \"surrogaterate\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"commit\": %S,\n" (git_commit ()));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"skipped\": false,\n  \"smoke\": %b,\n  \"nodes\": 2,\n  \"budget_trials\": \
        %d,\n  \"skim_k\": %d,\n  \"apps\": [\n"
       !smoke max_trials skim_k);
  List.iteri
    (fun i row ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"app\": %S, \"input\": %S,\n     \"exact\": %s,\n     \"rerank\": \
            %s,\n     \"skim\": %s}%s\n"
           row.row_app row.row_input
           (json_leg row.exact.perf row.exact)
           (json_leg row.exact.perf row.rerank)
           (json_leg row.exact.perf row.skim)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out !out_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" !out_file
