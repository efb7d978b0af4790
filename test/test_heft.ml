let machine () = Fixtures.default_machine ()

let test_produces_valid_mapping () =
  let g, _, _ = Fixtures.shared_halo () in
  let m = Heft.mapping (machine ()) g in
  Alcotest.(check bool) "valid" true (Mapping.is_valid g (machine ()) m)

let test_respects_variants () =
  let g, t, _ = Fixtures.gpu_only () in
  let m = Heft.mapping (machine ()) g in
  Alcotest.(check bool) "gpu-only task on gpu" true
    (Kinds.equal_proc (Mapping.proc_of m t) Kinds.Gpu)

let test_fastest_memory_rule () =
  (* HEFT's limitation by construction: args follow the processor's
     fastest memory, never Zero-Copy *)
  let g, _, _ = Fixtures.shared_halo () in
  let m = Heft.mapping (machine ()) g in
  List.iter
    (fun (c : Graph.collection) ->
      let k = Mapping.proc_of m c.Graph.owner in
      let expected =
        match k with Kinds.Gpu -> Kinds.Frame_buffer | Kinds.Cpu -> Kinds.System
      in
      Alcotest.(check bool) "fastest kind" true
        (Kinds.equal_mem (Mapping.mem_of m c.Graph.cid) expected))
    (Graph.collections g)

let test_ranks_respect_chain () =
  (* upstream tasks accumulate their successors' ranks *)
  let g, t1, t2, _, _ = Fixtures.pipeline () in
  let ranks = Heft.upward_ranks (machine ()) g in
  Alcotest.(check bool) "producer rank > consumer rank" true (ranks.(t1) > ranks.(t2));
  Array.iter (fun r -> Alcotest.(check bool) "positive" true (r > 0.0)) ranks

let test_apps_runnable () =
  (* HEFT mappings of the real apps must be valid and placeable (small
     inputs fit any memory) *)
  let machine = Presets.shepard ~nodes:1 in
  List.iter
    (fun (app, input) ->
      let g = app.App.graph ~nodes:1 ~input in
      let m = Heft.mapping machine g in
      match Exec.run ~noise_sigma:0.0 machine g m with
      | Ok r ->
          Alcotest.(check bool) (app.App.app_name ^ " runs") true (r.Exec.makespan > 0.0)
      | Error e -> Alcotest.fail (app.App.app_name ^ ": " ^ Placement.error_to_string e))
    [ (App.circuit, "n50w200"); (App.pennant, "320x90"); (App.htr, "8x8y9z") ]

let test_ccd_at_least_as_good () =
  (* noise-free: CCD should match or beat HEFT (it can express the
     memory choices HEFT cannot) *)
  let machine = Presets.shepard ~nodes:1 in
  let g = App.circuit.App.graph ~nodes:1 ~input:"n100w400" in
  let heft = Heft.mapping machine g in
  let time m =
    match Exec.run ~noise_sigma:0.0 machine g m with
    | Ok r -> r.Exec.per_iteration
    | Error _ -> infinity
  in
  let ev = Evaluator.create ~runs:1 ~noise_sigma:0.0 ~seed:0 machine g in
  let best, _ = Fixtures.search ev (Ccd.make ev) in
  Alcotest.(check bool)
    (Printf.sprintf "ccd %.4g <= heft %.4g" (time best) (time heft))
    true
    (time best <= time heft +. 1e-12)

let suite =
  [
    Alcotest.test_case "valid mapping" `Quick test_produces_valid_mapping;
    Alcotest.test_case "respects variants" `Quick test_respects_variants;
    Alcotest.test_case "fastest memory" `Quick test_fastest_memory_rule;
    Alcotest.test_case "ranks" `Quick test_ranks_respect_chain;
    Alcotest.test_case "apps runnable" `Quick test_apps_runnable;
    Alcotest.test_case "ccd >= heft" `Quick test_ccd_at_least_as_good;
  ]
