let machine () = Presets.testbed ~nodes:1

let run_with mapping g =
  match Exec.run ~noise_sigma:0.0 (machine ()) g mapping with
  | Ok r -> r
  | Error e -> Alcotest.fail (Placement.error_to_string e)

let test_energy_positive () =
  let g, _, _, _, _ = Fixtures.pipeline ~group_size:1 () in
  let r = run_with (Mapping.default_start g (machine ())) g in
  let j = Energy.joules (machine ()) Energy.default_power r in
  Alcotest.(check bool) "positive" true (j > 0.0)

let test_idle_floor () =
  (* even a nearly-empty run pays idle power for the whole machine *)
  let g, _, _, _, _ = Fixtures.pipeline ~group_size:1 () in
  let r = run_with (Mapping.default_start g (machine ())) g in
  let pm = Energy.default_power in
  let idle_floor =
    r.Exec.makespan *. ((2.0 *. pm.Energy.cpu_idle_w) +. pm.Energy.gpu_idle_w)
  in
  Alcotest.(check bool) "at least idle floor" true
    (Energy.joules (machine ()) pm r >= idle_floor -. 1e-12)

let test_busy_power_counts () =
  let g, _, _, _, _ = Fixtures.pipeline ~group_size:1 () in
  let r = run_with (Mapping.default_start g (machine ())) g in
  let pm = Energy.default_power in
  let cheap = { pm with Energy.gpu_busy_w = pm.Energy.gpu_idle_w } in
  Alcotest.(check bool) "lower busy power, lower energy" true
    (Energy.joules (machine ()) cheap r < Energy.joules (machine ()) pm r)

let test_traffic_energy () =
  let g, _, _, _, inp = Fixtures.pipeline () in
  let machine = Fixtures.default_machine () in
  let base = Mapping.default_start g machine in
  let with_copies = Mapping.set_mem base inp Kinds.Zero_copy in
  let r0 =
    match Exec.run ~noise_sigma:0.0 machine g base with Ok r -> r | Error _ -> assert false
  in
  let r1 =
    match Exec.run ~noise_sigma:0.0 machine g with_copies with
    | Ok r -> r
    | Error _ -> assert false
  in
  (* compare only the traffic term: same power model with zero
     compute/idle power isolates it *)
  let pm =
    { Energy.default_power with cpu_busy_w = 0.; cpu_idle_w = 0.; gpu_busy_w = 0.; gpu_idle_w = 0. }
  in
  Alcotest.(check (float 0.0)) "no copies, no traffic energy" 0.0
    (Energy.joules machine pm r0);
  Alcotest.(check bool) "copies cost energy" true (Energy.joules machine pm r1 > 0.0)

let test_per_iteration_scaling () =
  let g, _, _, _, _ = Fixtures.pipeline ~iterations:4 ~group_size:1 () in
  let r = run_with (Mapping.default_start g (machine ())) g in
  let pm = Energy.default_power in
  let total = Energy.joules (machine ()) pm r in
  let per_iter = Energy.joules_per_iteration (machine ()) pm r in
  Alcotest.(check bool) "per-iteration = total/iters" true
    (abs_float ((per_iter *. 4.0) -. total) /. total < 1e-9)

let test_edp () =
  let g, _, _, _, _ = Fixtures.pipeline ~group_size:1 () in
  let r = run_with (Mapping.default_start g (machine ())) g in
  let pm = Energy.default_power in
  let edp = Energy.edp_per_iteration (machine ()) pm r in
  Alcotest.(check bool) "edp = E x t" true
    (abs_float (edp -. (Energy.joules_per_iteration (machine ()) pm r *. r.Exec.per_iteration))
     < 1e-15)

let test_energy_objective_in_search () =
  (* the evaluator accepts an energy objective and the search returns a
     valid mapping under it *)
  let g, _, _ = Fixtures.shared_halo () in
  let machine = Fixtures.default_machine () in
  let objective m r = Energy.joules_per_iteration m Energy.default_power r in
  let ev = Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:0 ~objective machine g in
  let best, j = Fixtures.search ev (Ccd.make ev) in
  Alcotest.(check bool) "valid" true (Mapping.is_valid g machine best);
  Alcotest.(check bool) "finite joules" true (Float.is_finite j && j > 0.0);
  (* the search never does worse than the default under its objective *)
  let p0 = Evaluator.evaluate ev (Mapping.default_start g machine) in
  Alcotest.(check bool) "no worse than default" true (j <= p0)

let suite =
  [
    Alcotest.test_case "positive" `Quick test_energy_positive;
    Alcotest.test_case "idle floor" `Quick test_idle_floor;
    Alcotest.test_case "busy power" `Quick test_busy_power_counts;
    Alcotest.test_case "traffic energy" `Quick test_traffic_energy;
    Alcotest.test_case "per-iteration" `Quick test_per_iteration_scaling;
    Alcotest.test_case "edp" `Quick test_edp;
    Alcotest.test_case "energy objective" `Quick test_energy_objective_in_search;
  ]
