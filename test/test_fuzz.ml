(* Pipeline fuzzing over random workloads: whatever graph the generator
   produces, every layer must uphold its contract. *)

let machine = lazy (Presets.testbed ~nodes:2)

let prop name f = QCheck.Test.make ~count:60 ~name Gen.arbitrary_spec f

let fuzz_builder_always_valid =
  prop "random workloads build and are well-formed" (fun spec ->
      let g = Gen.graph_of_spec spec in
      Graph.n_tasks g = spec.Gen.n_tasks
      && List.length (Graph.topological_order g) = spec.Gen.n_tasks
      && Graph.total_bytes g > 0.0)

let fuzz_graph_codec_round_trip =
  prop "graph codec round-trips random workloads" (fun spec ->
      let g = Gen.graph_of_spec spec in
      let g' = Graph_codec.round_trip_exn g in
      Graph.n_tasks g' = Graph.n_tasks g
      && Graph.n_collections g' = Graph.n_collections g
      && List.length g'.Graph.edges = List.length g.Graph.edges
      && g'.Graph.overlaps = g.Graph.overlaps)

let fuzz_default_mapping_runs =
  prop "default mapping places and simulates" (fun spec ->
      let g = Gen.graph_of_spec spec in
      let machine = Lazy.force machine in
      match Exec.run ~noise_sigma:0.0 machine g (Mapping.default_start g machine) with
      | Ok r ->
          r.Exec.makespan > 0.0
          && r.Exec.per_iteration *. float_of_int g.Graph.iterations
             <= r.Exec.makespan +. 1e-9
      | Error _ -> false)

let fuzz_placement_respects_capacity =
  prop "placement never exceeds any capacity" (fun spec ->
      let g = Gen.graph_of_spec spec in
      let machine = Lazy.force machine in
      match Placement.resolve machine g (Mapping.default_start g machine) with
      | Error _ -> true (* strict OOM is a legal outcome *)
      | Ok p ->
          Array.for_all
            (fun (mem : Machine.memory) ->
              Placement.bytes_resident p mem <= mem.Machine.capacity +. 1e-6)
            machine.Machine.memories)

let fuzz_mapping_codec_round_trip =
  prop "mapping codec round-trips random mappings" (fun spec ->
      let g = Gen.graph_of_spec spec in
      let machine = Lazy.force machine in
      let space = Space.make ~extended:true g machine in
      let m = Space.random_mapping space (Rng.create spec.Gen.seed) in
      Mapping.equal m (Codec.round_trip_exn g m))

let fuzz_ccd_valid_and_no_worse =
  QCheck.Test.make ~count:20 ~name:"CCD on random workloads: valid, never worse"
    Gen.arbitrary_spec (fun spec ->
      let g = Gen.graph_of_spec spec in
      let machine = Lazy.force machine in
      let ev = Evaluator.create ~runs:1 ~noise_sigma:0.0 ~seed:0 machine g in
      let p0 = Evaluator.evaluate ev (Mapping.default_start g machine) in
      let best, p = Fixtures.search ev (Ccd.make ~rotations:3 ev) in
      Mapping.is_valid g machine best && p <= p0 +. 1e-12)

let fuzz_colocation_fixed_point =
  QCheck.Test.make ~count:40 ~name:"Algorithm 2 on random workloads: valid fixed point"
    Gen.arbitrary_spec (fun spec ->
      let g = Gen.graph_of_spec spec in
      let machine = Lazy.force machine in
      let overlap = Overlap.of_graph g in
      let space = Space.make g machine in
      let rng = Rng.create (spec.Gen.seed + 1) in
      let start = Space.random_mapping space rng in
      let cols = Graph.collections g in
      let c = (List.nth cols (Rng.int rng (List.length cols))).Graph.cid in
      let t = (Graph.collection g c).Graph.owner in
      (* pick k among the pivot task's actual variants so the repaired
         mapping can be valid at all *)
      match Space.proc_choices space t with
      | [] -> true
      | ks ->
          let k = List.nth ks (Rng.int rng (List.length ks)) in
          let r = Rng.choose_list rng (Kinds.accessible_mem_kinds k) in
          let f' = Mapping.set_mem (Mapping.set_proc start t k) c r in
          let f'' = Colocation.apply g machine ~overlap ~mapping:f' ~t ~c ~k ~r in
          (* the pivot stays where CCD put it *)
          Kinds.equal_mem (Mapping.mem_of f'' c) r
          && Kinds.equal_proc (Mapping.proc_of f'' t) k
          (* every argument is addressable from its task (constraint 1),
             unless the task itself lacks the needed variant — Algorithm 2
             does not consider variants, and the evaluator rejects those *)
          && Array.for_all
               (fun (task : Graph.task) ->
                 List.for_all
                   (fun (arg : Graph.collection) ->
                     Kinds.accessible (Mapping.proc_of f'' task.Graph.tid)
                       (Mapping.mem_of f'' arg.Graph.cid)
                     || not (Graph.has_variant task (Mapping.proc_of f'' task.Graph.tid)))
                   task.Graph.args)
               g.Graph.tasks)

let fuzz_heft_valid =
  prop "HEFT on random workloads yields valid mappings" (fun spec ->
      let g = Gen.graph_of_spec spec in
      let machine = Lazy.force machine in
      Mapping.is_valid g machine (Heft.mapping machine g))

let fuzz_exec_iterations_monotone =
  prop "makespan grows with iterations" (fun spec ->
      let g = Gen.graph_of_spec spec in
      let machine = Lazy.force machine in
      let m = Mapping.default_start g machine in
      let run iters =
        match Exec.run ~noise_sigma:0.0 ~iterations:iters machine g m with
        | Ok r -> r.Exec.makespan
        | Error _ -> 0.0
      in
      run 4 >= run 2 -. 1e-12)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      fuzz_builder_always_valid;
      fuzz_graph_codec_round_trip;
      fuzz_default_mapping_runs;
      fuzz_placement_respects_capacity;
      fuzz_mapping_codec_round_trip;
      fuzz_ccd_valid_and_no_worse;
      fuzz_colocation_fixed_point;
      fuzz_heft_valid;
      fuzz_exec_iterations_monotone;
    ]
