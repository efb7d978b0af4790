let machine () = Fixtures.default_machine ()

let make_ev ?(runs = 3) ?(noise_sigma = 0.01) g =
  Evaluator.create ~runs ~noise_sigma ~seed:1 (machine ()) g

let test_evaluate_returns_mean_positive () =
  let g, _, _, _, _ = Fixtures.pipeline () in
  let ev = make_ev g in
  let m = Mapping.default_start g (machine ()) in
  let perf = Evaluator.evaluate ev m in
  Alcotest.(check bool) "positive" true (perf > 0.0 && Float.is_finite perf);
  Alcotest.(check int) "one evaluation" 1 (Evaluator.evaluated ev);
  Alcotest.(check int) "one suggestion" 1 (Evaluator.suggested ev)

let test_cache_dedup () =
  let g, _, _, _, _ = Fixtures.pipeline () in
  let ev = make_ev g in
  let m = Mapping.default_start g (machine ()) in
  let p1 = Evaluator.evaluate ev m in
  let vt = Evaluator.virtual_time ev in
  let p2 = Evaluator.evaluate ev m in
  Alcotest.(check (float 0.0)) "cached value identical" p1 p2;
  Alcotest.(check int) "still one evaluation" 1 (Evaluator.evaluated ev);
  Alcotest.(check int) "two suggestions" 2 (Evaluator.suggested ev);
  Alcotest.(check int) "one cache hit" 1 (Evaluator.cache_hits ev);
  Alcotest.(check (float 0.0)) "no extra virtual time" vt (Evaluator.virtual_time ev)

let test_invalid_penalized_without_execution () =
  let g, t, _ = Fixtures.gpu_only () in
  let ev = make_ev g in
  let bad = Mapping.set_proc (Mapping.default_start g (machine ())) t Kinds.Cpu in
  let p = Evaluator.evaluate ev bad in
  Alcotest.(check bool) "penalty returned" true (p = infinity);
  Alcotest.(check int) "not evaluated" 0 (Evaluator.evaluated ev);
  Alcotest.(check int) "counted invalid" 1 (Evaluator.invalid_count ev)

let test_oom_penalized () =
  let g, _, _ = Fixtures.oversized () in
  let ev = make_ev g in
  let m = Mapping.default_start g (machine ()) in
  let p = Evaluator.evaluate ev m in
  Alcotest.(check bool) "infinite penalty" true (p = infinity);
  Alcotest.(check int) "counted oom" 1 (Evaluator.oom_count ev);
  Alcotest.(check int) "not evaluated" 0 (Evaluator.evaluated ev)

let test_best_and_trace () =
  let g, _, _, out, _ = Fixtures.pipeline () in
  let ev = make_ev g in
  let good = Mapping.default_start g (machine ()) in
  let worse = Mapping.set_mem good out Kinds.Zero_copy in
  let p_worse = Evaluator.evaluate ev worse in
  let p_good = Evaluator.evaluate ev good in
  Alcotest.(check bool) "good is better" true (p_good < p_worse);
  (match Evaluator.best ev with
  | Some (m, p) ->
      Alcotest.(check bool) "best mapping" true (Mapping.equal m good);
      Alcotest.(check (float 0.0)) "best perf" p_good p
  | None -> Alcotest.fail "no best");
  Alcotest.(check int) "trace has two improvements" 2 (List.length (Evaluator.trace ev));
  let times = List.map fst (Evaluator.trace ev) in
  Alcotest.(check bool) "trace times non-decreasing" true
    (List.sort compare times = times)

let test_virtual_time_accumulates () =
  let g, _, _, _, _ = Fixtures.pipeline () in
  let ev = make_ev g in
  let m = Mapping.default_start g (machine ()) in
  ignore (Evaluator.evaluate ev m);
  let vt = Evaluator.virtual_time ev in
  Alcotest.(check bool) "time advanced" true (vt > 0.0);
  Evaluator.note_suggestion_overhead ev 1.5;
  Alcotest.(check (float 1e-9)) "overhead charged" (vt +. 1.5) (Evaluator.virtual_time ev);
  Alcotest.(check bool) "eval fraction < 1 after overhead" true
    (Evaluator.eval_time ev < Evaluator.virtual_time ev)

let test_measure_outside_bookkeeping () =
  let g, _, _, _, _ = Fixtures.pipeline () in
  let ev = make_ev g in
  let m = Mapping.default_start g (machine ()) in
  let runs = Evaluator.measure ev ~runs:5 m in
  Alcotest.(check int) "five runs" 5 (List.length runs);
  Alcotest.(check int) "no suggestions recorded" 0 (Evaluator.suggested ev)

let test_profile_for () =
  let g, _, _, _, _ = Fixtures.pipeline () in
  let ev = make_ev g in
  let m = Mapping.default_start g (machine ()) in
  let p = Evaluator.profile_for ev m in
  Alcotest.(check bool) "positive task time" true (Profile.time p 0 > 0.0)

let test_profile_for_oom_is_uniform () =
  let g, _, _ = Fixtures.oversized () in
  let ev = make_ev g in
  let m = Mapping.default_start g (machine ()) in
  let p = Evaluator.profile_for ev m in
  Alcotest.(check (float 0.0)) "uniform fallback" 1.0 (Profile.time p 0)

let test_determinism_across_instances () =
  let g, _, _, _, _ = Fixtures.pipeline () in
  let m = Mapping.default_start g (machine ()) in
  let p1 = Evaluator.evaluate (make_ev g) m in
  let p2 = Evaluator.evaluate (make_ev g) m in
  Alcotest.(check (float 0.0)) "same seed, same measurement" p1 p2

let suite =
  [
    Alcotest.test_case "evaluate positive" `Quick test_evaluate_returns_mean_positive;
    Alcotest.test_case "cache dedup" `Quick test_cache_dedup;
    Alcotest.test_case "invalid penalized" `Quick test_invalid_penalized_without_execution;
    Alcotest.test_case "oom penalized" `Quick test_oom_penalized;
    Alcotest.test_case "best and trace" `Quick test_best_and_trace;
    Alcotest.test_case "virtual time" `Quick test_virtual_time_accumulates;
    Alcotest.test_case "measure" `Quick test_measure_outside_bookkeeping;
    Alcotest.test_case "profile_for" `Quick test_profile_for;
    Alcotest.test_case "profile_for oom" `Quick test_profile_for_oom_is_uniform;
    Alcotest.test_case "cross-instance determinism" `Quick test_determinism_across_instances;
  ]
