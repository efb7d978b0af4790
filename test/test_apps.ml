let shepard () = Presets.shepard ~nodes:1

(* Figure 5's task and collection-argument counts are structural facts
   of the applications; our generators must reproduce them exactly. *)
let test_figure5_counts () =
  let check name g tasks args =
    Alcotest.(check int) (name ^ " tasks") tasks (Graph.n_tasks g);
    Alcotest.(check int) (name ^ " args") args (Graph.n_collections g)
  in
  check "Circuit" (Circuit.graph ~nodes:1 ~input:"n50w200") 3 15;
  check "Stencil" (Stencil.graph ~nodes:1 ~input:"500x500") 2 12;
  check "Pennant" (Pennant.graph ~nodes:1 ~input:"320x90") 31 97;
  check "HTR" (Htr.graph ~nodes:1 ~input:"8x8y9z") 28 72;
  (* 6 HF tasks with 14 args + the 13 LF tasks with 30 collection
     arguments of Figure 5 *)
  check "Maestro" (Maestro.graph ~nodes:1 ~n_lf:4 ~resolution:16) (6 + 13) (14 + 30)

let test_all_graphs_run_under_default () =
  List.iter
    (fun app ->
      (* Maestro's HF sample is sized for a Lassen node's 64 GB of FB *)
      let machine =
        if app.App.app_name = "Maestro" then Presets.lassen ~nodes:1 else shepard ()
      in
      let input = List.hd (app.App.inputs ~nodes:1) in
      let g = app.App.graph ~nodes:1 ~input in
      let m = Mapping.default_start g machine in
      match Exec.run ~noise_sigma:0.0 machine g m with
      | Ok r ->
          Alcotest.(check bool)
            (app.App.app_name ^ " runs")
            true (r.Exec.makespan > 0.0)
      | Error e -> Alcotest.fail (app.App.app_name ^ ": " ^ Placement.error_to_string e))
    App.all

let test_custom_mappings_valid () =
  List.iter
    (fun app ->
      let machine = shepard () in
      List.iter
        (fun input ->
          let g = app.App.graph ~nodes:1 ~input in
          let m = app.App.custom g machine in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s custom valid" app.App.app_name input)
            true
            (Mapping.is_valid g machine m))
        (app.App.inputs ~nodes:1))
    App.all

let test_inputs_weak_scale () =
  (* per-node input lists exist for several node counts *)
  List.iter
    (fun app ->
      List.iter
        (fun nodes ->
          Alcotest.(check bool)
            (Printf.sprintf "%s has inputs at %d nodes" app.App.app_name nodes)
            true
            (List.length (app.App.inputs ~nodes) > 0))
        [ 1; 2; 4; 8 ])
    App.all

let test_bad_inputs_rejected () =
  List.iter
    (fun (app, bad) ->
      match app.App.graph ~nodes:1 ~input:bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (app.App.app_name ^ " accepted garbage"))
    [ (App.circuit, "x"); (App.stencil, "500"); (App.pennant, "320"); (App.htr, "8x8");
      (App.maestro, "zzz") ]

let test_find () =
  Alcotest.(check bool) "finds pennant" true (App.find "pennant" <> None);
  Alcotest.(check bool) "case-insensitive" true (App.find "HTR" <> None);
  Alcotest.(check bool) "unknown" true (App.find "doom" = None)

let test_parse_helpers () =
  Alcotest.(check (option (pair int int))) "pair" (Some (50, 200))
    (App_util.parse_pair ~tag1:'n' ~tag2:'w' "n50w200");
  Alcotest.(check (option (pair int int))) "pair bad" None
    (App_util.parse_pair ~tag1:'n' ~tag2:'w' "w50n200");
  Alcotest.(check (option (pair int int))) "cross" (Some (500, 250)) (App_util.parse_cross "500x250");
  Alcotest.(check bool) "xyz" true (App_util.parse_xyz "8x16y9z" = Some (8, 16, 9));
  Alcotest.(check bool) "xyz bad" true (App_util.parse_xyz "8x16y9" = None)

let test_pennant_bytes_per_zone () =
  (* graph_of_zones' resident footprint must match bytes_per_zone *)
  let zones = 10_000.0 in
  let g = Pennant.graph_of_zones ~nodes:1 ~zones in
  let per_array_totals = Hashtbl.create 32 in
  List.iter
    (fun (c : Graph.collection) ->
      let array = App_util.arg_array_name c in
      if not (Hashtbl.mem per_array_totals array) then
        Hashtbl.replace per_array_totals array
          (c.Graph.bytes *. float_of_int (Graph.task g c.Graph.owner).Graph.group_size))
    (Graph.collections g);
  let total = Hashtbl.fold (fun _ b acc -> acc +. b) per_array_totals 0.0 in
  let expected = Pennant.bytes_per_zone *. zones in
  Alcotest.(check bool)
    (Printf.sprintf "total %.3g ~ expected %.3g" total expected)
    true
    (abs_float (total -. expected) /. expected < 0.01)

let test_maestro_hf_fills_fb () =
  (* the HF-alone graph's FB residency should be ~hf_frac of capacity *)
  let machine = Presets.lassen ~nodes:1 in
  let g = Maestro.graph ~nodes:1 ~n_lf:0 ~resolution:16 in
  let m = Mapping.default_start g machine in
  match Placement.resolve machine g m with
  | Ok p ->
      let fb_total =
        Array.fold_left
          (fun acc (mem : Machine.memory) ->
            if Kinds.equal_mem mem.Machine.mkind Kinds.Frame_buffer then
              acc +. Placement.bytes_resident p mem
            else acc)
          0.0 machine.Machine.memories
      in
      let capacity = 4.0 *. 16e9 in
      let frac = fb_total /. capacity in
      Alcotest.(check bool)
        (Printf.sprintf "fb fill %.2f in [0.7, 1.0]" frac)
        true
        (frac > 0.7 && frac <= 1.0)
  | Error e -> Alcotest.fail (Placement.error_to_string e)

let test_maestro_lf_in_fb_ooms () =
  (* mapping LF collections to FB on top of the HF data must exceed
     capacity: the scenario that forces the §5.1 trade-off *)
  let machine = Presets.lassen ~nodes:1 in
  let g = Maestro.graph ~nodes:1 ~n_lf:64 ~resolution:32 in
  let base = Mapping.default_start g machine in
  match Placement.resolve machine g base with
  | Error (Placement.Out_of_memory _) -> ()
  | Ok _ -> Alcotest.fail "expected OOM with LF data in FB"
  | Error (Placement.Invalid_mapping r) -> Alcotest.fail r

let test_maestro_strategies_run () =
  let machine = Presets.lassen ~nodes:1 in
  let g = Maestro.graph ~nodes:1 ~n_lf:8 ~resolution:16 in
  List.iter
    (fun (name, strat) ->
      match Exec.run ~noise_sigma:0.0 machine g (strat g machine) with
      | Ok r -> Alcotest.(check bool) (name ^ " runs") true (r.Exec.makespan > 0.0)
      | Error e -> Alcotest.fail (name ^ ": " ^ Placement.error_to_string e))
    [ ("cpu+sys", Maestro.lf_cpu_sys); ("gpu+zc", Maestro.lf_gpu_zc) ]

let test_maestro_degradation_monotone () =
  (* more LF samples cannot make the ensemble finish earlier *)
  let machine = Presets.lassen ~nodes:1 in
  let time n_lf =
    let g = Maestro.graph ~nodes:1 ~n_lf ~resolution:16 in
    match Exec.run ~noise_sigma:0.0 machine g (Maestro.lf_gpu_zc g machine) with
    | Ok r -> r.Exec.per_iteration
    | Error e -> Alcotest.fail (Placement.error_to_string e)
  in
  let t0 = time 0 and t8 = time 8 and t64 = time 64 in
  Alcotest.(check bool) "8 lfs >= alone" true (t8 >= t0 -. 1e-12);
  Alcotest.(check bool) "64 lfs >= 8 lfs" true (t64 >= t8 -. 1e-12)

let suite =
  [
    Alcotest.test_case "figure 5 counts" `Quick test_figure5_counts;
    Alcotest.test_case "graphs run" `Quick test_all_graphs_run_under_default;
    Alcotest.test_case "custom mappings valid" `Quick test_custom_mappings_valid;
    Alcotest.test_case "inputs weak scale" `Quick test_inputs_weak_scale;
    Alcotest.test_case "bad inputs" `Quick test_bad_inputs_rejected;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "parse helpers" `Quick test_parse_helpers;
    Alcotest.test_case "pennant bytes/zone" `Quick test_pennant_bytes_per_zone;
    Alcotest.test_case "maestro hf fills fb" `Quick test_maestro_hf_fills_fb;
    Alcotest.test_case "maestro lf fb ooms" `Quick test_maestro_lf_in_fb_ooms;
    Alcotest.test_case "maestro strategies" `Quick test_maestro_strategies_run;
    Alcotest.test_case "maestro monotone" `Quick test_maestro_degradation_monotone;
  ]
