let machine () = Fixtures.default_machine ()

let make_ev ?(runs = 3) g = Evaluator.create ~runs ~noise_sigma:0.005 ~seed:3 (machine ()) g

(* The shared_halo fixture on the testbed: small data, so the CPU
   mapping usually wins over the GPU default — all algorithms should
   find something at least as good as the default. *)

let default_perf g ev = Evaluator.evaluate ev (Mapping.default_start g (machine ()))

let test_cd_improves_or_equals () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev = make_ev g in
  let p0 = default_perf g ev in
  let _, p = Fixtures.search ev (Cd.make ev) in
  Alcotest.(check bool) "cd never worse than start" true (p <= p0)

let test_cd_result_valid () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev = make_ev g in
  let m, _ = Fixtures.search ev (Cd.make ev) in
  Alcotest.(check bool) "valid mapping" true (Mapping.is_valid g (machine ()) m)

let test_ccd_improves_or_equals_cd () =
  (* noise-free so the comparison is exact *)
  let g, _, _ = Fixtures.shared_halo () in
  let noise_free g = Evaluator.create ~runs:1 ~noise_sigma:0.0 ~seed:3 (machine ()) g in
  let ev_cd = noise_free g and ev_ccd = noise_free g in
  let _, p_cd = Fixtures.search ev_cd (Cd.make ev_cd) in
  let _, p_ccd = Fixtures.search ev_ccd (Ccd.make ~rotations:5 ev_ccd) in
  Alcotest.(check bool)
    (Printf.sprintf "ccd %.4g within cd %.4g" p_ccd p_cd)
    true
    (p_ccd <= p_cd +. 1e-12)

let test_ccd_rotations_validation () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev = make_ev g in
  Alcotest.check_raises "rotations >= 2"
    (Invalid_argument "Ccd.make: rotations must be at least 2") (fun () ->
      ignore (Ccd.make ~rotations:1 ev))

let test_ccd_more_suggestions_than_cd () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev_cd = make_ev g in
  ignore (Fixtures.search ev_cd (Cd.make ev_cd));
  let ev_ccd = make_ev g in
  ignore (Fixtures.search ev_ccd (Ccd.make ~rotations:5 ev_ccd));
  Alcotest.(check bool) "ccd explores more" true
    (Evaluator.suggested ev_ccd > Evaluator.suggested ev_cd)

let test_budget_cuts_search () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev_full = make_ev g in
  ignore (Fixtures.search ev_full (Ccd.make ev_full));
  let full = Evaluator.suggested ev_full in
  let ev_tiny = make_ev g in
  ignore (Fixtures.search ~budget:1e-9 ev_tiny (Ccd.make ev_tiny));
  Alcotest.(check bool) "tiny budget stops early" true
    (Evaluator.suggested ev_tiny < full)

let test_ensemble_runs_and_counts () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev = make_ev g in
  let config = { Ensemble.default_config with max_suggestions = 300; seed = 5 } in
  let m, p = Fixtures.search ev (Ensemble.make ~config ev) in
  Alcotest.(check bool) "valid result" true (Mapping.is_valid g (machine ()) m);
  Alcotest.(check bool) "finite perf" true (Float.is_finite p);
  Alcotest.(check bool) "many suggestions" true (Evaluator.suggested ev >= 300);
  Alcotest.(check bool) "constraint-unaware: some invalid" true
    (Evaluator.invalid_count ev > 0);
  Alcotest.(check bool) "evaluated far fewer than suggested" true
    (Evaluator.evaluated ev < Evaluator.suggested ev)

let test_ensemble_useful_fraction_low () =
  (* the per-suggestion machinery overhead makes the ensemble's useful
     search-time fraction much lower than CCD's (§5.3) *)
  let g, _, _ = Fixtures.shared_halo () in
  let ev_ot = make_ev g in
  let config = { Ensemble.default_config with max_suggestions = 200; seed = 5 } in
  ignore (Fixtures.search ev_ot (Ensemble.make ~config ev_ot));
  let frac_ot = Evaluator.eval_time ev_ot /. Evaluator.virtual_time ev_ot in
  let ev_ccd = make_ev g in
  ignore (Fixtures.search ev_ccd (Ccd.make ev_ccd));
  let frac_ccd = Evaluator.eval_time ev_ccd /. Evaluator.virtual_time ev_ccd in
  Alcotest.(check bool)
    (Printf.sprintf "ot %.2f < ccd %.2f" frac_ot frac_ccd)
    true (frac_ot < frac_ccd)

let test_random_search () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev = make_ev g in
  let p0 = default_perf g ev in
  let m, p = Fixtures.search ev (Random_search.make ~max_evals:50 ev) in
  Alcotest.(check bool) "valid" true (Mapping.is_valid g (machine ()) m);
  Alcotest.(check bool) "never worse than start" true (p <= p0)

let test_annealing () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev = make_ev g in
  let p0 = default_perf g ev in
  let m, p = Fixtures.search ev (Annealing.make ~max_evals:100 ev) in
  Alcotest.(check bool) "valid" true (Mapping.is_valid g (machine ()) m);
  Alcotest.(check bool) "never worse than start" true (p <= p0)

let test_search_deterministic () =
  let g, _, _ = Fixtures.shared_halo () in
  let run () =
    let ev = make_ev g in
    let m, p = Fixtures.search ev (Ccd.make ev) in
    (Mapping.canonical_key m, p)
  in
  let k1, p1 = run () and k2, p2 = run () in
  Alcotest.(check string) "same mapping" k1 k2;
  Alcotest.(check (float 0.0)) "same perf" p1 p2

let test_driver_protocol () =
  let g, _, _ = Fixtures.shared_halo () in
  let r =
    Driver.run ~runs:3 ~final_top:3 ~final_runs:5 ~noise_sigma:0.005 ~seed:2
      (Driver.Ccd { rotations = 3 })
      (machine ()) g
  in
  Alcotest.(check bool) "positive perf" true (r.Driver.perf > 0.0);
  Alcotest.(check int) "final stats runs" 5 r.Driver.final_stats.Stats.n;
  Alcotest.(check bool) "trace non-empty" true (List.length r.Driver.trace > 0);
  Alcotest.(check bool) "suggested >= evaluated" true (r.Driver.suggested >= r.Driver.evaluated);
  Alcotest.(check bool) "useful fraction in (0,1]" true
    (r.Driver.eval_time_fraction > 0.0 && r.Driver.eval_time_fraction <= 1.0);
  Alcotest.(check bool) "valid best" true (Mapping.is_valid g (machine ()) r.Driver.best)

let test_driver_algo_names () =
  Alcotest.(check string) "cd" "CD" (Driver.algo_name Driver.Cd);
  Alcotest.(check string) "ccd" "CCD(5)" (Driver.algo_name (Driver.Ccd { rotations = 5 }));
  Alcotest.(check string) "ot" "Ensemble(OT)" (Driver.algo_name Driver.Ensemble_tuner)

(* The motivating scenario of §4.2: two group tasks share two large
   collections; the fastest mapping puts both shared collections in
   Zero-Copy, but no sequence of strictly-improving single-collection
   moves reaches it from the all-FB start.  CCD's coordinated move
   finds it; CD should stay stuck at the default. *)
let coupled_collections_graph () =
  let b = Graph.Builder.create ~iterations:4 ~name:"coupled" () in
  let mb = 1e6 in
  let t1 =
    Graph.Builder.add_task b ~name:"phase1" ~group_size:2
      ~variants:[ Kinds.Cpu; Kinds.Gpu ] ~flops:1e5 ()
  in
  let a1 = Graph.Builder.add_arg b ~task:t1 ~name:"phase1.sa" ~bytes:(4.0 *. mb) ~mode:Mode.Read_write in
  let b1 = Graph.Builder.add_arg b ~task:t1 ~name:"phase1.sb" ~bytes:(4.0 *. mb) ~mode:Mode.Read_write in
  let t2 =
    Graph.Builder.add_task b ~name:"phase2" ~group_size:2
      ~variants:[ Kinds.Cpu ] ~flops:1e5 ()
  in
  let a2 = Graph.Builder.add_arg b ~task:t2 ~name:"phase2.sa" ~bytes:(4.0 *. mb) ~mode:Mode.Read_write in
  let b2 = Graph.Builder.add_arg b ~task:t2 ~name:"phase2.sb" ~bytes:(4.0 *. mb) ~mode:Mode.Read_write in
  Graph.Builder.add_dep b ~src:a1 ~dst:a2;
  Graph.Builder.add_dep b ~src:b1 ~dst:b2;
  Graph.Builder.add_dep b ~src:a2 ~dst:a1 ~carried:true;
  Graph.Builder.add_dep b ~src:b2 ~dst:b1 ~carried:true;
  Graph.Builder.add_overlap b a1 a2 ~bytes:(4.0 *. mb);
  Graph.Builder.add_overlap b b1 b2 ~bytes:(4.0 *. mb);
  Graph.Builder.add_overlap b a1 b1 ~bytes:(2.0 *. mb);
  Graph.Builder.build b

let test_ccd_coordinated_move_beats_cd () =
  let g = coupled_collections_graph () in
  let machine = Presets.testbed ~nodes:1 in
  let ev_cd = Evaluator.create ~runs:3 ~noise_sigma:0.0 ~seed:3 machine g in
  let _, p_cd = Fixtures.search ev_cd (Cd.make ev_cd) in
  let ev_ccd = Evaluator.create ~runs:3 ~noise_sigma:0.0 ~seed:3 machine g in
  let m_ccd, p_ccd = Fixtures.search ev_ccd (Ccd.make ~rotations:5 ev_ccd) in
  Alcotest.(check bool)
    (Printf.sprintf "ccd %.3g <= cd %.3g" p_ccd p_cd)
    true (p_ccd <= p_cd);
  Alcotest.(check bool) "valid" true (Mapping.is_valid g machine m_ccd)

let suite =
  [
    Alcotest.test_case "cd improves" `Quick test_cd_improves_or_equals;
    Alcotest.test_case "cd valid" `Quick test_cd_result_valid;
    Alcotest.test_case "ccd >= cd" `Quick test_ccd_improves_or_equals_cd;
    Alcotest.test_case "ccd rotations" `Quick test_ccd_rotations_validation;
    Alcotest.test_case "ccd explores more" `Quick test_ccd_more_suggestions_than_cd;
    Alcotest.test_case "budget" `Quick test_budget_cuts_search;
    Alcotest.test_case "ensemble counts" `Quick test_ensemble_runs_and_counts;
    Alcotest.test_case "ensemble useful fraction" `Quick test_ensemble_useful_fraction_low;
    Alcotest.test_case "random search" `Quick test_random_search;
    Alcotest.test_case "annealing" `Quick test_annealing;
    Alcotest.test_case "deterministic" `Quick test_search_deterministic;
    Alcotest.test_case "driver protocol" `Quick test_driver_protocol;
    Alcotest.test_case "driver names" `Quick test_driver_algo_names;
    Alcotest.test_case "ccd coordinated move" `Quick test_ccd_coordinated_move_beats_cd;
  ]
