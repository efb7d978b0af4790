(* Finer-grained search-layer coverage: TestMapping semantics, the
   OptimizeTask inner loop, ensemble technique internals, driver edge
   cases.  The TestMapping/OptimizeTask/sweep tests exercise the frozen
   legacy loops in Legacy_ref — the reference the engine is proven
   decision-identical against in test_engine.ml — so their semantics
   stay covered after the production loops moved into Engine/Descent. *)

let machine () = Fixtures.default_machine ()

let make_ev ?(runs = 2) g =
  Evaluator.create ~runs ~noise_sigma:0.0 ~seed:1 (machine ()) g

let test_test_mapping_strict_improvement () =
  let g, _, _, out, _ = Fixtures.pipeline () in
  let ev = make_ev g in
  let good = Mapping.default_start g (machine ()) in
  let p_good = Evaluator.evaluate ev good in
  let worse = Mapping.set_mem good out Kinds.Zero_copy in
  (* candidate worse: incumbent kept *)
  let kept, pk = Legacy_ref.test_mapping ev worse (good, p_good) in
  Alcotest.(check bool) "incumbent kept" true (Mapping.equal kept good);
  Alcotest.(check (float 0.0)) "perf kept" p_good pk;
  (* candidate better: adopted *)
  let p_worse = Evaluator.evaluate ev worse in
  let adopted, pa = Legacy_ref.test_mapping ev good (worse, p_worse) in
  Alcotest.(check bool) "better adopted" true (Mapping.equal adopted good);
  Alcotest.(check bool) "perf improves" true (pa < p_worse)

let test_test_mapping_equal_not_adopted () =
  (* ties keep the incumbent (strict < in Algorithm 1 line 22) *)
  let g, _, _, _, _ = Fixtures.pipeline () in
  let ev = make_ev g in
  let m = Mapping.default_start g (machine ()) in
  let p = Evaluator.evaluate ev m in
  let other = Mapping.set_distribute m 0 false in
  let incumbent = (other, p) in
  let kept, _ = Legacy_ref.test_mapping ev m incumbent in
  (* evaluate m returns the same cached value p: not strictly better *)
  Alcotest.(check bool) "tie keeps incumbent" true (Mapping.equal kept other)

let test_optimize_task_only_touches_target () =
  (* OptimizeTask for one task must leave other tasks' processor
     decisions intact unless colocation dragged them *)
  let g, (t1, t2, t3), _ = Fixtures.shared_halo () in
  let ev = make_ev g in
  let start = Mapping.default_start g (machine ()) in
  let p0 = Evaluator.evaluate ev start in
  let task = Graph.task g t1 in
  let best, _ =
    Legacy_ref.optimize_task ev ~overlap:None ~should_stop:(fun () -> false) task
      (start, p0)
  in
  Alcotest.(check bool) "valid" true (Mapping.is_valid g (machine ()) best);
  (* without colocation, t2/t3 keep their kinds *)
  Alcotest.(check bool) "t2 untouched" true
    (Kinds.equal_proc (Mapping.proc_of best t2) (Mapping.proc_of start t2));
  Alcotest.(check bool) "t3 untouched" true
    (Kinds.equal_proc (Mapping.proc_of best t3) (Mapping.proc_of start t3))

let test_sweep_respects_stop () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev = make_ev g in
  let start = Mapping.default_start g (machine ()) in
  let p0 = Evaluator.evaluate ev start in
  let before = Evaluator.suggested ev in
  let best, p =
    Legacy_ref.sweep ev ~overlap:None ~should_stop:(fun () -> true)
      ~profile:(Profile.uniform g) (start, p0)
  in
  Alcotest.(check int) "no suggestions under stop" before (Evaluator.suggested ev);
  Alcotest.(check bool) "incumbent returned" true (Mapping.equal best start && p = p0)

let test_ensemble_techniques_listed () =
  Alcotest.(check int) "four techniques" 4 (List.length Ensemble.technique_names)

let test_ensemble_respects_max_suggestions () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev = make_ev g in
  let config = { Ensemble.default_config with max_suggestions = 25; seed = 3 } in
  ignore (Fixtures.search ev (Ensemble.make ~config ev));
  (* +1 for the starting-point evaluation *)
  Alcotest.(check bool) "bounded" true (Evaluator.suggested ev <= 26)

let test_driver_final_top_one () =
  let g, _, _ = Fixtures.shared_halo () in
  let r =
    Driver.run ~runs:2 ~final_top:1 ~final_runs:3 ~noise_sigma:0.0 ~seed:0 Driver.Cd
      (machine ()) g
  in
  Alcotest.(check int) "final stats n" 3 r.Driver.final_stats.Stats.n;
  Alcotest.(check bool) "db exposed" true (Profiles_db.size r.Driver.db > 0)

let test_driver_budget_zero_still_returns () =
  let g, _, _ = Fixtures.shared_halo () in
  let r =
    Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~budget:0.0
      (Driver.Ccd { rotations = 5 })
      (machine ()) g
  in
  Alcotest.(check bool) "valid result even with zero budget" true
    (Mapping.is_valid g (machine ()) r.Driver.best)

let test_driver_warm_db () =
  let g, _, _ = Fixtures.shared_halo () in
  let r1 = Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 Driver.Cd (machine ()) g in
  match Profiles_db.load g (Profiles_db.save r1.Driver.db) with
  | Error e -> Alcotest.fail e
  | Ok db ->
      let r2 =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~db Driver.Cd
          (machine ()) g
      in
      Alcotest.(check int) "warm driver re-executes nothing" 0 r2.Driver.evaluated;
      Alcotest.(check (float 1e-9)) "same search result" r1.Driver.search_perf
        r2.Driver.search_perf

let test_heft_kind_pool_cost () =
  (* upward ranks must be finite and positive on a real app *)
  let machine = Presets.shepard ~nodes:1 in
  let g = App.htr.App.graph ~nodes:1 ~input:"8x8y9z" in
  let ranks = Heft.upward_ranks machine g in
  Array.iter
    (fun r -> Alcotest.(check bool) "finite positive" true (Float.is_finite r && r > 0.0))
    ranks

let suite =
  [
    Alcotest.test_case "test_mapping strict" `Quick test_test_mapping_strict_improvement;
    Alcotest.test_case "test_mapping ties" `Quick test_test_mapping_equal_not_adopted;
    Alcotest.test_case "optimize_task scope" `Quick test_optimize_task_only_touches_target;
    Alcotest.test_case "sweep stop" `Quick test_sweep_respects_stop;
    Alcotest.test_case "ensemble techniques" `Quick test_ensemble_techniques_listed;
    Alcotest.test_case "ensemble cap" `Quick test_ensemble_respects_max_suggestions;
    Alcotest.test_case "driver final_top 1" `Quick test_driver_final_top_one;
    Alcotest.test_case "driver zero budget" `Quick test_driver_budget_zero_still_returns;
    Alcotest.test_case "driver warm db" `Quick test_driver_warm_db;
    Alcotest.test_case "heft ranks" `Quick test_heft_kind_pool_cost;
  ]
