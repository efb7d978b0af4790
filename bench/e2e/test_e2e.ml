(* Tier-1 checks of the end-to-end benchmark's helpers: the order
   statistics it reports, the compare verdicts on fabricated runs, and
   that the metric catalog is exactly what BENCHMARK.json lists. *)

open E2e_lib

let feq a b = Float.abs (a -. b) < 1e-9
let flt = Alcotest.testable (fun ppf f -> Format.fprintf ppf "%.12g" f) feq
let q3 = Alcotest.(triple flt flt flt)
let range a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

(* expected values from Python's statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  Alcotest.check q3 "1..10" (2.75, 5.5, 8.25) (quartiles (range 1 10));
  Alcotest.check q3 "1..4 shuffled" (1.25, 2.5, 3.75) (quartiles [ 3.; 1.; 4.; 2. ]);
  (* the exclusive method extrapolates beyond a tiny sample *)
  Alcotest.check q3 "two points" (0.75, 1.5, 2.25) (quartiles [ 2.; 1. ]);
  Alcotest.check q3 "one point" (5.0, 5.0, 5.0) (quartiles [ 5. ]);
  Alcotest.check_raises "empty" (Invalid_argument "quartiles: empty sample") (fun () ->
      ignore (quartiles []))

let test_percentile () =
  Alcotest.check flt "p50 even" 2.5 (percentile 50.0 [ 4.; 1.; 3.; 2. ]);
  Alcotest.check flt "p90 of 1..11" 10.0 (percentile 90.0 (range 1 11));
  Alcotest.check flt "p0" 1.0 (percentile 0.0 (range 1 11));
  Alcotest.check flt "p100" 11.0 (percentile 100.0 (range 1 11));
  Alcotest.check flt "interpolated" 1.5 (percentile 50.0 [ 1.; 2. ])

(* a tail percentile is reported only with >= 10 samples beyond it *)
let test_tail_rule () =
  let t = Alcotest.(option flt) in
  Alcotest.check t "300 samples" (Some 95.0) (tail_percentile 300);
  Alcotest.check Alcotest.int "p95 of 300" 15 (beyond 95.0 300);
  Alcotest.check t "100 samples" (Some 90.0) (tail_percentile 100);
  Alcotest.check t "40 samples" (Some 75.0) (tail_percentile 40);
  Alcotest.check t "20 samples" (Some 50.0) (tail_percentile 20);
  Alcotest.check t "19 samples" None (tail_percentile 19);
  Alcotest.check t "1000 samples" (Some 99.0) (tail_percentile 1000)

let v = Alcotest.testable (fun ppf x -> Format.pp_print_string ppf (verdict_to_string x)) ( = )

let parent = [ 1.00; 1.02; 0.98; 1.01; 0.99; 1.00; 1.03; 0.97; 1.00; 1.01 ]
let scaled k = List.map (fun x -> x *. k) parent

let test_verdicts () =
  let lower = verdict ~better:Lower ~bound:0.1 ~parent in
  Alcotest.check v "20% faster on every pair" Improved (lower ~child:(scaled 0.8) ());
  Alcotest.check v "same runs" Unchanged (lower ~child:parent ());
  Alcotest.check v "5% slower, within bound" Unchanged (lower ~child:(scaled 1.05) ());
  Alcotest.check v "30% slower" Regressed (lower ~child:(scaled 1.3) ());
  (* a parent spread wider than the bound cannot support "unchanged" *)
  let noisy = [ 0.5; 1.5; 0.6; 1.4; 1.0; 0.7; 1.3; 0.8; 1.2; 1.0 ] in
  Alcotest.check v "noisy parent" Unresolved
    (verdict ~better:Lower ~bound:0.1 ~parent:noisy ~child:noisy ());
  Alcotest.check v "noisy parent, child better than every parent run" Improved
    (verdict ~better:Lower ~bound:0.1 ~parent:noisy ~child:(List.map (fun x -> x *. 0.2) noisy) ());
  (* fewer than 9 wins in 10 pairs is not a gain, however large the gap *)
  let mixed = List.mapi (fun i x -> if i < 2 then x *. 2.0 else x *. 0.5) parent in
  Alcotest.check v "8/10 wins" Unchanged
    (verdict ~better:Lower ~bound:0.1 ~parent ~child:mixed ());
  Alcotest.check v "higher is better" Improved
    (verdict ~better:Higher ~bound:0.1 ~parent ~child:(scaled 1.3) ());
  Alcotest.check v "higher is better, regression" Regressed
    (verdict ~better:Higher ~bound:0.1 ~parent ~child:(scaled 0.7) ());
  Alcotest.check v "no bound: gain rule both ways" Regressed
    (verdict ~better:Lower ~parent ~child:(scaled 1.3) ());
  Alcotest.check v "no bound, small drift" Unchanged
    (verdict ~better:Lower ~parent ~child:(scaled 1.01) ())

let test_agree () =
  Alcotest.(check bool) "within 10%" true (agree ~bound:0.1 parent (scaled 1.05));
  Alcotest.(check bool) "beyond 10%" false (agree ~bound:0.1 parent (scaled 1.2))

(* Run files as e2e.exe writes them, one workload "w" each.  A crashed
   workload process leaves {"correct": false} and nothing else. *)
let run_file ?(seconds = 20) ~seed result =
  match
    Wire.of_string
      (Printf.sprintf {|{"seed":%d,"seconds":%d,"trace":false,"quick":false,"workloads":{"w":{"result":%s}}}|}
         seed seconds result)
  with
  | Ok j -> run_file_of_json ~name:"fabricated" j
  | Error e -> failwith e

let ok ?(failed = 0) lat =
  Printf.sprintf {|{"correct":%b,"attempted":10,"failed":%d,"metrics":{"latency_p50_s":{"value":%.17g,"unit":"s"}}}|}
    (failed = 0) failed lat

let crashed = {|{"correct":false}|}
let files results = List.mapi (fun i r -> run_file ~seed:i r) results
let lat_metric = [ ("latency_p50_s", "s", Lower, Some 0.1) ]

let rows ?(agree = false) a b =
  List.map (fun r -> (r.row_metric, r.row_verdict, r.row_bad)) (compare_runs ~agree ~metrics:lat_metric a b)

let row = Alcotest.(list (triple string string bool))

let test_compare_runs () =
  let a = files (List.map ok parent) in
  Alcotest.check row "same runs" [ ("failed", "ok", false); ("latency_p50_s", "unchanged", false) ] (rows a a);
  Alcotest.check row "agree with itself" [ ("failed", "ok", false); ("latency_p50_s", "agree", false) ]
    (rows ~agree:true a a);
  (* one crashed run: a failure, and the metric it did not report *)
  let b = files (crashed :: List.map ok (List.tl parent)) in
  Alcotest.check row "one run crashed" [ ("failed", "more failures", true); ("latency_p50_s", "missing", true) ]
    (rows a b);
  let b = files (List.map (fun _ -> crashed) parent) in
  Alcotest.check row "every run crashed" [ ("failed", "more failures", true); ("latency_p50_s", "missing", true) ]
    (rows a b);
  (* faster, but failing operations: the gain is void *)
  let b = files (List.map (fun x -> ok ~failed:2 (x *. 0.5)) parent) in
  Alcotest.check row "gain with failures"
    [ ("failed", "more failures", true); ("latency_p50_s", "void (more failures)", false) ] (rows a b);
  Alcotest.check row "agree needs zero failures"
    [ ("failed", "more failures", true); ("latency_p50_s", "DISAGREE", true) ] (rows ~agree:true a b);
  (* a workload B never ran *)
  let b = files (List.map (fun _ -> {|{"correct":true,"attempted":1,"failed":0,"metrics":{}}|}) parent) in
  Alcotest.check row "metric absent from B" [ ("failed", "ok", false); ("latency_p50_s", "missing", true) ] (rows a b);
  Alcotest.check_raises "different run sizes"
    (Failure "compare: the runs differ in --seconds, --quick or --trace, so they measured different work")
    (fun () -> ignore (compare_runs ~agree:false ~metrics:lat_metric a [ run_file ~seconds:10 ~seed:0 (ok 1.0) ]))

(* BENCHMARK.json must list exactly the metrics the benchmark prints,
   with the same units and directions, and sane bounds *)
let test_catalog () =
  let e2e, layers = benchmark_metrics (read_json "../../BENCHMARK.json") in
  let names l = List.map (fun (n, _, _, _) -> n) l in
  Alcotest.(check (list string)) "end_to_end names" (List.map (fun x -> x.name) end_to_end) (names e2e);
  Alcotest.(check (list string)) "per_layer names" (List.map (fun x -> x.name) per_layer) (names layers);
  List.iter
    (fun (n, u, b, bound) ->
      let mt = Option.get (find_metric n) in
      Alcotest.(check string) (n ^ " unit") mt.unit_ u;
      Alcotest.(check bool) (n ^ " direction") true (mt.better = b);
      match bound with
      | Some bd -> Alcotest.(check bool) (n ^ " bound in (0, 0.25]") true (bd > 0.0 && bd <= 0.25)
      | None -> Alcotest.fail (n ^ ": end-to-end metric without a bound"))
    e2e;
  List.iter (fun (n, _, _, bound) -> Alcotest.(check bool) (n ^ " has no bound") true (bound = None)) layers;
  let bound_of n = List.find_map (fun (n', _, _, b) -> if n = n' then b else None) e2e in
  let setup = Option.get (bound_of "setup_s") in
  List.iter
    (fun (n, _, _, b) ->
      if n <> "setup_s" then
        Alcotest.(check bool) (n ^ " bound below setup_s's") true (Option.get b < setup))
    e2e

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "agree" `Quick test_agree;
          Alcotest.test_case "failures and missing metrics" `Quick test_compare_runs;
        ] );
      ("catalog", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalog ]);
    ]
