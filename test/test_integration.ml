(* Cross-module invariants exercised on the real applications at small
   scale — the "does the whole system hold together" layer. *)

let shepard = lazy (Presets.shepard ~nodes:1)

let test_automap_never_loses_to_default () =
  (* noise-free: the default mapping is CCD's starting point, so the
     search result can never be slower *)
  List.iter
    (fun (app, input) ->
      let machine = Lazy.force shepard in
      let g = app.App.graph ~nodes:1 ~input in
      let ev = Evaluator.create ~runs:1 ~noise_sigma:0.0 ~seed:0 machine g in
      let p0 = Evaluator.evaluate ev (Mapping.default_start g machine) in
      let _, p = Fixtures.search ev (Ccd.make ev) in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: %.4g <= %.4g" app.App.app_name input p p0)
        true (p <= p0 +. 1e-12))
    [ (App.circuit, "n50w200"); (App.stencil, "1000x1000"); (App.htr, "8x8y9z") ]

let test_search_counts_ordering () =
  (* §5.3's structural relations: OT suggests far more than CCD, CCD
     more than CD; all evaluate fewer than they suggest *)
  let machine = Lazy.force shepard in
  let g = App.circuit.App.graph ~nodes:1 ~input:"n100w400" in
  let run algo =
    let ev = Evaluator.create ~runs:2 ~noise_sigma:0.005 ~seed:4 machine g in
    (match algo with
    | `Cd -> ignore (Fixtures.search ev (Cd.make ev))
    | `Ccd -> ignore (Fixtures.search ev (Ccd.make ev))
    | `Ot ->
        ignore
          (Fixtures.search ev
             (Ensemble.make
                ~config:{ Ensemble.default_config with max_suggestions = 2000; seed = 6 }
                ev)));
    (Evaluator.suggested ev, Evaluator.evaluated ev)
  in
  let s_cd, e_cd = run `Cd in
  let s_ccd, e_ccd = run `Ccd in
  let s_ot, e_ot = run `Ot in
  Alcotest.(check bool) "ccd suggests more than cd" true (s_ccd > s_cd);
  Alcotest.(check bool) "ot suggests most" true (s_ot > s_ccd);
  Alcotest.(check bool) "cd dedups" true (e_cd <= s_cd);
  Alcotest.(check bool) "ccd dedups" true (e_ccd < s_ccd);
  Alcotest.(check bool) "ot evaluates a tiny fraction" true
    (float_of_int e_ot /. float_of_int s_ot < 0.5)

let test_memory_constrained_pennant () =
  (* Figure 8's mechanism: an input slightly over FB capacity OOMs the
     default mapping, the all-ZC strategy runs but is slow, and CCD
     finds something strictly faster than all-ZC *)
  let machine = Lazy.force shepard in
  let fb = Machine.mem_kind_capacity machine Kinds.Frame_buffer in
  let zones = 1.013 *. fb /. Pennant.bytes_per_zone in
  let g = Pennant.graph_of_zones ~nodes:1 ~zones in
  let default = Mapping.default_start g machine in
  (match Placement.resolve machine g default with
  | Error (Placement.Out_of_memory _) -> ()
  | _ -> Alcotest.fail "default should OOM");
  let all_zc =
    Mapping.make g
      ~distribute:(fun _ -> true)
      ~proc:(fun t -> if Graph.has_variant t Kinds.Gpu then Kinds.Gpu else Kinds.Cpu)
      ~mem:(fun _ -> Kinds.Zero_copy)
  in
  let ev = Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:0 machine g in
  let p_zc = Evaluator.evaluate ev all_zc in
  Alcotest.(check bool) "all-zc runs" true (Float.is_finite p_zc);
  let _, p_ccd = Fixtures.search ev (Ccd.make ev) in
  Alcotest.(check bool)
    (Printf.sprintf "ccd %.4g at least 2x faster than all-zc %.4g" p_ccd p_zc)
    true
    (p_ccd *. 2.0 < p_zc)

let test_maestro_automap_best_or_tied () =
  (* Figure 7's claim: AutoMap matches or beats both standard LF
     strategies *)
  let machine = Presets.lassen ~nodes:1 in
  let g = Maestro.graph ~nodes:1 ~n_lf:16 ~resolution:16 in
  let measure m =
    match Exec.run ~noise_sigma:0.0 machine g m with
    | Ok r -> r.Exec.per_iteration
    | Error e -> Alcotest.fail (Placement.error_to_string e)
  in
  let p_cpu = measure (Maestro.lf_cpu_sys g machine) in
  let p_zc = measure (Maestro.lf_gpu_zc g machine) in
  let ev = Evaluator.create ~runs:1 ~noise_sigma:0.0 ~seed:0 machine g in
  let start = Maestro.lf_gpu_zc g machine in
  let _, p_am = Fixtures.search ~start ev (Ccd.make ev) in
  Alcotest.(check bool)
    (Printf.sprintf "automap %.4g <= min(cpu %.4g, zc %.4g)" p_am p_cpu p_zc)
    true
    (p_am <= Float.min p_cpu p_zc +. 1e-12)

let test_weak_scaling_consistency () =
  (* the same per-node workload on 2 nodes should take a similar time
     (within 2x — halo traffic only) under the default mapping *)
  let t nodes input =
    let machine = Presets.shepard ~nodes in
    let g = App.stencil.App.graph ~nodes ~input in
    match Exec.run ~noise_sigma:0.0 machine g (Mapping.default_start g machine) with
    | Ok r -> r.Exec.per_iteration
    | Error e -> Alcotest.fail (Placement.error_to_string e)
  in
  let t1 = t 1 "2000x2000" in
  let t2 = t 2 "4000x2000" in
  Alcotest.(check bool)
    (Printf.sprintf "t2 %.4g within 2x of t1 %.4g" t2 t1)
    true
    (t2 < 2.0 *. t1 && t2 > 0.5 *. t1)

let test_driver_full_protocol_on_app () =
  let machine = Lazy.force shepard in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let r =
    Driver.run ~runs:3 ~final_top:5 ~final_runs:7 ~noise_sigma:0.01 ~seed:1
      (Driver.Ccd { rotations = 5 }) machine g
  in
  Alcotest.(check bool) "perf close to search estimate" true
    (abs_float (r.Driver.perf -. r.Driver.search_perf) /. r.Driver.search_perf < 0.2);
  Alcotest.(check bool) "ccd useful fraction high (>90%)" true
    (r.Driver.eval_time_fraction > 0.9)

let suite =
  [
    Alcotest.test_case "automap >= default" `Slow test_automap_never_loses_to_default;
    Alcotest.test_case "search counts" `Slow test_search_counts_ordering;
    Alcotest.test_case "memory constrained" `Slow test_memory_constrained_pennant;
    Alcotest.test_case "maestro best" `Slow test_maestro_automap_best_or_tied;
    Alcotest.test_case "weak scaling" `Quick test_weak_scaling_consistency;
    Alcotest.test_case "driver on app" `Slow test_driver_full_protocol_on_app;
  ]
