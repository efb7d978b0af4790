(* Pure helpers of the end-to-end benchmark: the metric catalog (names,
   units, directions — BENCHMARK.json must list exactly these), the
   order statistics the benchmark reports, and the compare verdicts.
   Kept free of timing and I/O so the tier-1 test can exercise them on
   fabricated inputs. *)

(* ---- order statistics -------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] ("exclusive"
   method), the rule the benchmark's acceptance spread is computed with,
   so [compare] and the acceptance check read the same numbers. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "quartiles: empty sample"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Linear-interpolation percentile, [p] in [0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: empty sample"
  else
    let pos = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* Samples strictly above the [p]th percentile of [n] samples. *)
let beyond p n = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

(* The highest reported percentile with at least [min_beyond] samples
   beyond it — a tail figure resting on fewer samples is noise. *)
let tail_percentile ?(min_beyond = 10) n =
  List.find_opt (fun p -> beyond p n >= min_beyond) [ 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* ---- metric catalog ---------------------------------------------------- *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  deterministic : bool;  (* a function of the seed alone, never of timing *)
}

let m ?(det = false) name unit_ better = { name; unit_; better; deterministic = det }

(* Every workload reports every one of these; README.md defines each
   per workload. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "latency_p50_s" "s" Lower;
    m "throughput_per_s" "1/s" Higher;
    m ~det:true "speedup_vs_default" "x" Higher;
    m "peak_rss_mb" "MB" Lower;
  ]

(* From the --trace pass: the searches rebuilt from their public parts
   (serve-mix rebuilds the searches its map requests ran). *)
let per_layer =
  [
    m "presets.build_ms" "ms" Lower;
    m "app.graph_ms" "ms" Lower;
    m "analysis.analyze_ms" "ms" Lower;
    m "exec.compile_ms" "ms" Lower;
    m ~det:true "exec.compiled_kwords" "kword" Lower;
    m "driver.prep_ms" "ms" Lower;
    m "strategy.step_ms" "ms" Lower;
    m ~det:true "strategy.steps" "count" Lower;
    m "strategy.step_us" "us" Lower;
    m "evaluator.eval_ms" "ms" Lower;
    m ~det:true "evaluator.protocol_cands" "count" Lower;
    m "evaluator.cands_per_s" "1/s" Higher;
    m ~det:true "evaluator.cache_hits" "count" Higher;
    m ~det:true "evaluator.cut_evals" "count" Higher;
    m ~det:true "evaluator.noop_skips" "count" Higher;
    m ~det:true "evaluator.symmetry_skips" "count" Higher;
    m ~det:true "evaluator.prune_ratio" "ratio" Higher;
    m ~det:true "evaluator.sim_ratio" "ratio" Lower;
    m ~det:true "exec.cone_replays" "count" Higher;
    m ~det:true "exec.full_replays" "count" Lower;
    m ~det:true "exec.cone_ratio" "ratio" Higher;
    m ~det:true "exec.cut_sims" "count" Higher;
    m ~det:true "exec.delta_binds" "count" Higher;
    m ~det:true "exec.full_binds" "count" Lower;
    m "engine.post_ms" "ms" Lower;
    m "engine.other_ms" "ms" Lower;
    m ~det:true "engine.trials" "count" Lower;
    m ~det:true "engine.accept_ratio" "ratio" Higher;
    m ~det:true "engine.trials_to_best" "count" Lower;
    m "engine.time_to_best_ms" "ms" Lower;
    m "driver.final_ms" "ms" Lower;
    m "trace.overhead_ratio" "ratio" Lower;
  ]

let find_metric name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)

(* ---- compare verdicts -------------------------------------------------- *)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* [gain better a b] > 0 when [b] reads better than [a]. *)
let gain better a b = match better with Lower -> a -. b | Higher -> b -. a

(* [parent] and [child] are per-run values, paired by index.  A gain
   needs the child to win at least nine tenths of all pairs (ties count
   for neither) and a median gap wider than the parent's interquartile
   range.  Without a gain: a parent spread wider than [bound] (a share
   of the parent's median) leaves the metric unresolved unless every
   child run reads better than every parent run; otherwise a median
   worse by more than [bound] is a regression.  [bound = None] (a
   per-layer metric) applies the gain rule in both directions. *)
let verdict ~better ?bound ~parent ~child () =
  if parent = [] || child = [] then invalid_arg "verdict: empty sample";
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip parent child in
  let n = List.length pairs in
  let count f = List.length (List.filter (fun (a, b) -> f (gain better a b)) pairs) in
  let wins = count (fun g -> g > 0.0) and losses = count (fun g -> g < 0.0) in
  let q1a, meda, q3a = quartiles parent in
  let q1b, medb, q3b = quartiles child in
  let gap = gain better meda medb in
  if wins * 10 >= 9 * n && gap > q3a -. q1a then Improved
  else
    match bound with
    | None ->
        if losses * 10 >= 9 * n && -.gap > q3b -. q1b then Regressed else Unchanged
    | Some bound ->
        let all_better =
          List.for_all (fun a -> List.for_all (fun b -> gain better a b > 0.0) child) parent
        in
        if (q3a -. q1a) > bound *. Float.abs meda && not all_better then Unresolved
        else if -.gap > bound *. Float.abs meda then Regressed
        else Unchanged

(* Two run sets of the same code agree when their medians differ by at
   most [bound] of the first. *)
let agree ~bound a b =
  let ma = Stats.median a and mb = Stats.median b in
  Float.abs (mb -. ma) <= bound *. Float.abs ma

(* ---- JSON access (the wire codec is the repo's JSON) ------------------- *)

let field k = function Wire.Obj fs -> List.assoc_opt k fs | _ -> None

let num = function Some (Wire.Num f) -> Some f | _ -> None

let str = function Some (Wire.Str s) -> Some s | _ -> None

let read_json path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match Wire.of_string s with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* BENCHMARK.json: (name, unit, better, bound) of every listed metric. *)
let benchmark_metrics json =
  let section k =
    match field k json with
    | Some (Wire.Arr items) ->
        List.map
          (fun it ->
            let name = Option.value ~default:"" (str (field "name" it)) in
            let unit_ = Option.value ~default:"" (str (field "unit" it)) in
            let better =
              match str (field "better" it) with
              | Some "higher" -> Higher
              | Some "lower" -> Lower
              | _ -> failwith ("BENCHMARK.json: bad \"better\" for " ^ name)
            in
            (name, unit_, better, num (field "bound" it)))
          items
    | _ -> failwith ("BENCHMARK.json: missing " ^ k)
  in
  (section "end_to_end", section "per_layer")

(* ---- comparing run files ----------------------------------------------- *)

(* One workload's result in one run file.  A workload whose process
   crashed leaves only {"correct": false}: it counts as one failed
   operation and reports no metric. *)
type run = { ru_failed : int; ru_values : (string * float) list }

let run_of_result res =
  let failed = Option.fold ~none:0 ~some:int_of_float (num (field "failed" res)) in
  let values =
    match field "metrics" res with
    | Some (Wire.Obj ms) ->
        List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (num (field "value" v))) ms
    | _ -> []
  in
  let correct = field "correct" res = Some (Wire.Bool true) in
  { ru_failed = (if correct then failed else max 1 failed); ru_values = values }

(* A run file as e2e.exe writes it.  [rf_size] is what fixes the amount
   of work (--seconds, --quick, --trace): runs of different sizes
   measure different work and are never compared. *)
type run_file = { rf_seed : float option; rf_size : Wire.json list; rf_runs : (string * run) list }

let run_file_of_json ~name j =
  match field "workloads" j with
  | Some (Wire.Obj ws) ->
      {
        rf_seed = num (field "seed" j);
        rf_size = List.map (fun k -> Option.value ~default:Wire.Null (field k j)) [ "seconds"; "quick"; "trace" ];
        rf_runs =
          List.map (fun (w, e) -> (w, run_of_result (Option.value ~default:Wire.Null (field "result" e)))) ws;
      }
  | _ -> failwith (name ^ ": no workloads")

type row = {
  row_workload : string;
  row_metric : string;
  row_a : (float * float * float) option;  (* quartiles of A, the parent *)
  row_b : (float * float * float) option;  (* quartiles of B, the change *)
  row_verdict : string;
  row_bad : bool;
}

(* One row per workload of A for its failed operations, then one per
   listed metric that A reports.  A row is bad when B fails more
   operations per run than A, when B lacks a metric more often than A
   does (a crashed run reports none), or on a regression of a bounded
   metric.  A gain made while failing more operations is void.
   [~agree:true] checks two run sets of the same code instead: no
   failures on either side, medians within the bound, and deterministic
   metrics equal on every pair of runs made with the same seed.
   [metrics] is [benchmark_metrics]'s (name, unit, better, bound). *)
let compare_runs ~agree:agree_mode ~metrics a b =
  (match List.sort_uniq compare (List.map (fun f -> f.rf_size) (a @ b)) with
  | [] | [ _ ] -> ()
  | _ -> failwith "compare: the runs differ in --seconds, --quick or --trace, so they measured different work");
  let workloads =
    List.fold_left
      (fun acc f -> List.fold_left (fun acc (w, _) -> if List.mem w acc then acc else acc @ [ w ]) acc f.rf_runs)
      [] a
  in
  let q xs = if xs = [] then None else Some (quartiles xs) in
  List.concat_map
    (fun w ->
      let runs files = List.filter_map (fun f -> Option.map (fun r -> (f.rf_seed, r)) (List.assoc_opt w f.rf_runs)) files in
      let ra = runs a and rb = runs b in
      let na = float_of_int (List.length ra) and nb = float_of_int (List.length rb) in
      let fails rs = List.map (fun (_, r) -> float_of_int r.ru_failed) rs in
      let total rs = List.fold_left ( +. ) 0.0 (fails rs) in
      let more_failures = if agree_mode then total ra +. total rb > 0.0 else total rb *. na > total ra *. nb in
      let failed_row =
        {
          row_workload = w; row_metric = "failed"; row_a = q (fails ra); row_b = q (fails rb);
          row_verdict = (if rb = [] then "missing" else if more_failures then "more failures" else "ok");
          row_bad = rb = [] || more_failures;
        }
      in
      let metric_row (mn, _, better, bound) =
        let vals rs = List.map (fun (seed, r) -> (seed, List.assoc_opt mn r.ru_values)) rs in
        let va = vals ra and vb = vals rb in
        let av = List.filter_map snd va and bv = List.filter_map snd vb in
        let missing v n = n -. float_of_int (List.length v) in
        if av = [] then None
        else
          let verdict, bad =
            if bv = [] || missing bv nb *. na > missing av na *. nb then ("missing", true)
            else if agree_mode then
              let det = match find_metric mn with Some x -> x.deterministic | None -> false in
              let rec same_where_seeded = function
                | (sa, Some x) :: va, (sb, Some y) :: vb -> (sa <> sb || x = y) && same_where_seeded (va, vb)
                | _ :: va, _ :: vb -> same_where_seeded (va, vb)
                | _ -> true
              in
              let ok =
                (match bound with Some bd -> agree ~bound:bd av bv | None -> true)
                && ((not det) || same_where_seeded (va, vb))
              in
              ((if ok then "agree" else "DISAGREE"), not ok)
            else
              match verdict ~better ?bound ~parent:av ~child:bv () with
              | Improved when more_failures -> ("void (more failures)", false)
              | Regressed -> ("regressed", bound <> None)
              | v -> (verdict_to_string v, false)
          in
          Some
            { row_workload = w; row_metric = mn; row_a = q av; row_b = q bv; row_verdict = verdict; row_bad = bad }
      in
      failed_row :: List.filter_map metric_row metrics)
    workloads
