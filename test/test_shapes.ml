(* Behavioural pins for the calibrated cost model: the qualitative
   shapes the figures depend on.  If a refactor of the simulator or the
   presets breaks one of these, the paper reproduction silently
   degrades — these tests make that loud instead. *)

let shepard = lazy (Presets.shepard ~nodes:1)

let time machine g mapping =
  match Exec.run ~noise_sigma:0.0 machine g mapping with
  | Ok r -> r.Exec.per_iteration
  | Error e -> Alcotest.fail (Placement.error_to_string e)

let cpu_vs_gpu app input =
  let machine = Lazy.force shepard in
  let g = app.App.graph ~nodes:1 ~input in
  ( time machine g (Mapping.all_cpu g machine),
    time machine g (Mapping.default_start g machine) )

(* Figure 6's driving mechanism: CPU wins at small inputs (the GPU is
   launch-bound), the GPU wins at large inputs (it is compute/bandwidth
   bound) — so a crossover exists. *)
let test_circuit_crossover () =
  let cpu_s, gpu_s = cpu_vs_gpu App.circuit "n50w200" in
  Alcotest.(check bool)
    (Printf.sprintf "small: cpu %.4g < gpu %.4g" cpu_s gpu_s)
    true (cpu_s < gpu_s);
  let cpu_l, gpu_l = cpu_vs_gpu App.circuit "n12800w51200" in
  Alcotest.(check bool)
    (Printf.sprintf "large: gpu %.4g < cpu %.4g" gpu_l cpu_l)
    true (gpu_l < cpu_l)

let test_pennant_crossover () =
  let cpu_s, gpu_s = cpu_vs_gpu App.pennant "320x90" in
  Alcotest.(check bool) "small: cpu wins" true (cpu_s < gpu_s);
  let cpu_l, gpu_l = cpu_vs_gpu App.pennant "320x5760" in
  Alcotest.(check bool) "large: gpu wins" true (gpu_l < cpu_l)

let test_htr_crossover () =
  let cpu_s, gpu_s = cpu_vs_gpu App.htr "8x8y9z" in
  Alcotest.(check bool) "small: cpu wins" true (cpu_s < gpu_s);
  let cpu_l, gpu_l = cpu_vs_gpu App.htr "128x128y144z" in
  Alcotest.(check bool) "large: gpu wins" true (gpu_l < cpu_l)

(* Default-mapping time grows monotonically with input size (weak
   sanity for the whole cost model). *)
let test_default_monotone_in_input () =
  let machine = Lazy.force shepard in
  List.iter
    (fun (app : App.t) ->
      let times =
        List.map
          (fun input ->
            let g = app.App.graph ~nodes:1 ~input in
            time machine g (Mapping.default_start g machine))
          (app.App.inputs ~nodes:1)
      in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s default time monotone (%.4g <= %.4g)" app.App.app_name a b)
              true
              (a <= b *. 1.02);
            non_decreasing rest
        | _ -> ()
      in
      non_decreasing times)
    [ App.circuit; App.stencil; App.pennant; App.htr ]

(* The Figure 8 mechanism: a bandwidth-bound GPU task slows by roughly
   the FB/ZC bandwidth ratio when its data is demoted to Zero-Copy. *)
let test_zc_cliff_magnitude () =
  let machine = Lazy.force shepard in
  let g = App.pennant.App.graph ~nodes:1 ~input:"320x5760" in
  let default = Mapping.default_start g machine in
  let all_zc =
    Mapping.make g
      ~distribute:(fun _ -> true)
      ~proc:(fun t -> if Graph.has_variant t Kinds.Gpu then Kinds.Gpu else Kinds.Cpu)
      ~mem:(fun _ -> Kinds.Zero_copy)
  in
  let slowdown = time machine g all_zc /. time machine g default in
  Alcotest.(check bool)
    (Printf.sprintf "all-ZC slowdown %.1fx in [5, 60]" slowdown)
    true
    (slowdown > 5.0 && slowdown < 60.0)

(* Halo traffic exists and scales with the ghost fraction. *)
let test_halo_bytes_scale () =
  let machine = Presets.shepard ~nodes:4 in
  let bytes input =
    let g = App.stencil.App.graph ~nodes:4 ~input in
    match Exec.run ~noise_sigma:0.0 machine g (Mapping.default_start g machine) with
    | Ok r -> r.Exec.bytes_moved
    | Error e -> Alcotest.fail (Placement.error_to_string e)
  in
  (* same halo rows but wider grids: absolute ghost bytes grow *)
  Alcotest.(check bool) "halo bytes grow with grid" true
    (bytes "16000x4000" > bytes "4000x1000")

(* The §5.3 efficiency claim: CCD spends almost all search time
   executing candidates. *)
let test_ccd_useful_fraction () =
  let machine = Lazy.force shepard in
  let g = App.circuit.App.graph ~nodes:1 ~input:"n100w400" in
  let ev = Evaluator.create ~runs:2 ~noise_sigma:0.01 ~seed:2 machine g in
  ignore (Fixtures.search ev (Ccd.make ev));
  let frac = Evaluator.eval_time ev /. Evaluator.virtual_time ev in
  Alcotest.(check bool) (Printf.sprintf "useful %.2f > 0.9" frac) true (frac > 0.9)

(* Weak-scaled default times stay flat across node counts (the fig6
   panels share a y-scale because of this). *)
let test_weak_scaling_flat () =
  let t nodes =
    let machine = Presets.shepard ~nodes in
    let input = List.hd (App.htr.App.inputs ~nodes) in
    let g = App.htr.App.graph ~nodes ~input in
    time machine g (Mapping.default_start g machine)
  in
  let t1 = t 1 and t4 = t 4 in
  Alcotest.(check bool)
    (Printf.sprintf "t4 %.4g within 1.5x of t1 %.4g" t4 t1)
    true
    (t4 < 1.5 *. t1)

let suite =
  [
    Alcotest.test_case "circuit crossover" `Quick test_circuit_crossover;
    Alcotest.test_case "pennant crossover" `Quick test_pennant_crossover;
    Alcotest.test_case "htr crossover" `Quick test_htr_crossover;
    Alcotest.test_case "default monotone" `Quick test_default_monotone_in_input;
    Alcotest.test_case "zc cliff" `Quick test_zc_cliff_magnitude;
    Alcotest.test_case "halo bytes" `Quick test_halo_bytes_scale;
    Alcotest.test_case "ccd useful fraction" `Quick test_ccd_useful_fraction;
    Alcotest.test_case "weak scaling flat" `Quick test_weak_scaling_flat;
  ]
