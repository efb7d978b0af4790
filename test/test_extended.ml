(* The extended search space: group-task distribution strategies
   (blocked vs cyclic across nodes), §3.2's flagged future work. *)

let machine () = Fixtures.default_machine ()

let test_default_is_blocked () =
  let g, t1, _, _, _ = Fixtures.pipeline () in
  let m = Mapping.default_start g (machine ()) in
  Alcotest.(check bool) "blocked by default" true
    (Mapping.strategy_of m t1 = Mapping.Blocked)

let test_set_strategy_functional () =
  let g, t1, _, _, _ = Fixtures.pipeline () in
  let m = Mapping.default_start g (machine ()) in
  let m2 = Mapping.set_strategy m t1 Mapping.Cyclic in
  Alcotest.(check bool) "original unchanged" true (Mapping.strategy_of m t1 = Mapping.Blocked);
  Alcotest.(check bool) "copy updated" true (Mapping.strategy_of m2 t1 = Mapping.Cyclic);
  Alcotest.(check bool) "key differs" false
    (String.equal (Mapping.canonical_key m) (Mapping.canonical_key m2));
  Alcotest.(check bool) "equal differs" false (Mapping.equal m m2)

let test_codec_round_trips_strategy () =
  let g, t1, _, _, _ = Fixtures.pipeline () in
  let m =
    Mapping.set_strategy (Mapping.default_start g (machine ())) t1 Mapping.Cyclic
  in
  let m' = Codec.round_trip_exn g m in
  Alcotest.(check bool) "cyclic preserved" true (Mapping.strategy_of m' t1 = Mapping.Cyclic);
  Alcotest.(check bool) "full equality" true (Mapping.equal m m')

let test_codec_strategy_optional () =
  (* old mapping files without strategy= still parse (default blocked) *)
  let g, t1, _, _, _ = Fixtures.pipeline () in
  let m = Mapping.default_start g (machine ()) in
  let s =
    Codec.to_string g m
    |> String.split_on_char '\n'
    |> List.map (fun line ->
           String.concat " "
             (List.filter
                (fun tok -> not (Str_helpers.contains tok "strategy="))
                (String.split_on_char ' ' line)))
    |> String.concat "\n"
  in
  match Codec.of_string g s with
  | Ok m' -> Alcotest.(check bool) "blocked default" true (Mapping.strategy_of m' t1 = Mapping.Blocked)
  | Error e -> Alcotest.fail e

let test_cyclic_placement () =
  (* group of 4 over 2 nodes: blocked = 0,0,1,1; cyclic = 0,1,0,1 *)
  let g, (t1, _, _), _ = Fixtures.shared_halo () in
  let base = Mapping.default_start g (machine ()) in
  let nodes_of m =
    match Placement.resolve (machine ()) g m with
    | Ok p ->
        List.init 4 (fun s -> (Placement.processor p ~tid:t1 ~shard:s).Machine.pnode)
    | Error e -> Alcotest.fail (Placement.error_to_string e)
  in
  Alcotest.(check (list int)) "blocked" [ 0; 0; 1; 1 ] (nodes_of base);
  let cyclic =
    List.fold_left (fun m tid -> Mapping.set_strategy m tid Mapping.Cyclic) base
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list int)) "cyclic" [ 0; 1; 0; 1 ] (nodes_of cyclic)

let test_cyclic_increases_halo_traffic () =
  (* with halo deps, cyclic separates neighbouring shards onto
     different nodes, so more bytes cross the network *)
  let g, (t1, t2, t3), _ = Fixtures.shared_halo ~iterations:1 () in
  let base = Mapping.default_start g (machine ()) in
  let cyclic =
    List.fold_left (fun m tid -> Mapping.set_strategy m tid Mapping.Cyclic) base
      [ t1; t2; t3 ]
  in
  let bytes m =
    match Exec.run ~noise_sigma:0.0 (machine ()) g m with
    | Ok r -> r.Exec.channel_bytes.(4) (* "net" *)
    | Error e -> Alcotest.fail (Placement.error_to_string e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "cyclic %.0f > blocked %.0f network bytes" (bytes cyclic) (bytes base))
    true
    (bytes cyclic > bytes base)

let test_space_extended_dims () =
  let g, _, _, _, _ = Fixtures.pipeline () in
  let plain = Space.make g (machine ()) in
  let ext = Space.make ~extended:true g (machine ()) in
  Alcotest.(check bool) "plain not extended" false (Space.extended plain);
  let count_strategy s =
    List.length (List.filter (function Space.Strategy _ -> true | _ -> false) (Space.dims s))
  in
  Alcotest.(check int) "no strategy dims" 0 (count_strategy plain);
  Alcotest.(check int) "one per task" 2 (count_strategy ext);
  Alcotest.(check int) "plain distribution choices" 2
    (List.length (Space.distribution_choices plain));
  Alcotest.(check int) "extended distribution choices" 3
    (List.length (Space.distribution_choices ext));
  Alcotest.(check bool) "extended space is larger" true
    (Space.log2_size ext > Space.log2_size plain)

let test_extended_search_explores_strategy () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev = Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:1 ~extended:true (machine ()) g in
  let best, p = Fixtures.search ev (Ccd.make ev) in
  Alcotest.(check bool) "valid" true (Mapping.is_valid g (machine ()) best);
  Alcotest.(check bool) "finite" true (Float.is_finite p);
  (* the extended space includes the plain one, so it can't do worse
     (noise-free, same start) *)
  let ev_plain = Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:1 (machine ()) g in
  let _, p_plain = Fixtures.search ev_plain (Ccd.make ev_plain) in
  Alcotest.(check bool)
    (Printf.sprintf "extended %.4g <= plain %.4g" p p_plain)
    true
    (p <= p_plain +. 1e-12)

let test_extended_random_mapping_valid () =
  let g, _, _ = Fixtures.shared_halo () in
  let space = Space.make ~extended:true g (machine ()) in
  let rng = Rng.create 7 in
  let saw_cyclic = ref false in
  for _ = 1 to 50 do
    let m = Space.random_mapping space rng in
    Alcotest.(check bool) "valid" true (Mapping.is_valid g (machine ()) m);
    for tid = 0 to Graph.n_tasks g - 1 do
      if Mapping.strategy_of m tid = Mapping.Cyclic then saw_cyclic := true
    done
  done;
  Alcotest.(check bool) "cyclic gets sampled" true !saw_cyclic

let suite =
  [
    Alcotest.test_case "default blocked" `Quick test_default_is_blocked;
    Alcotest.test_case "set strategy" `Quick test_set_strategy_functional;
    Alcotest.test_case "codec round trip" `Quick test_codec_round_trips_strategy;
    Alcotest.test_case "codec optional" `Quick test_codec_strategy_optional;
    Alcotest.test_case "cyclic placement" `Quick test_cyclic_placement;
    Alcotest.test_case "cyclic halo traffic" `Quick test_cyclic_increases_halo_traffic;
    Alcotest.test_case "space dims" `Quick test_space_extended_dims;
    Alcotest.test_case "extended search" `Quick test_extended_search_explores_strategy;
    Alcotest.test_case "random valid" `Quick test_extended_random_mapping_valid;
  ]
