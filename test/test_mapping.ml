let machine () = Fixtures.default_machine ()

let test_default_start () =
  let g, t1, _, out, _ = Fixtures.pipeline () in
  let m = Mapping.default_start g (machine ()) in
  Alcotest.(check bool) "distributed" true (Mapping.distribute_of m t1);
  Alcotest.(check bool) "gpu" true (Kinds.equal_proc (Mapping.proc_of m t1) Kinds.Gpu);
  Alcotest.(check bool) "fb" true (Kinds.equal_mem (Mapping.mem_of m out) Kinds.Frame_buffer)

let test_default_start_no_gpu_variant () =
  let b = Graph.Builder.create ~name:"cpuonly" () in
  let t = Graph.Builder.add_task b ~name:"t" ~group_size:1 ~variants:[ Kinds.Cpu ] ~flops:1.0 () in
  let c = Graph.Builder.add_arg b ~task:t ~name:"t.x" ~bytes:8.0 ~mode:Mode.Read_write in
  let g = Graph.Builder.build b in
  let m = Mapping.default_start g (machine ()) in
  Alcotest.(check bool) "cpu" true (Kinds.equal_proc (Mapping.proc_of m t) Kinds.Cpu);
  Alcotest.(check bool) "sys" true (Kinds.equal_mem (Mapping.mem_of m c) Kinds.System)

let test_default_start_gpu_less_machine () =
  let g, t, c = Fixtures.gpu_only () in
  (* gpu-only task on a machine without GPUs: default keeps CPU (and the
     mapping is invalid, which validate must report) *)
  let cpu_machine = Presets.cpu_only ~nodes:1 in
  let m = Mapping.default_start g cpu_machine in
  Alcotest.(check bool) "falls back to cpu" true (Kinds.equal_proc (Mapping.proc_of m t) Kinds.Cpu);
  Alcotest.(check bool) "invalid: no cpu variant" false (Mapping.is_valid g cpu_machine m);
  ignore c

let test_setters_functional () =
  let g, t1, _, out, _ = Fixtures.pipeline () in
  let m = Mapping.default_start g (machine ()) in
  let m2 = Mapping.set_proc m t1 Kinds.Cpu in
  Alcotest.(check bool) "m unchanged" true (Kinds.equal_proc (Mapping.proc_of m t1) Kinds.Gpu);
  Alcotest.(check bool) "m2 updated" true (Kinds.equal_proc (Mapping.proc_of m2 t1) Kinds.Cpu);
  let m3 = Mapping.set_mem m out Kinds.Zero_copy in
  Alcotest.(check bool) "mem updated" true (Kinds.equal_mem (Mapping.mem_of m3 out) Kinds.Zero_copy);
  let m4 = Mapping.set_distribute m t1 false in
  Alcotest.(check bool) "dist updated" false (Mapping.distribute_of m4 t1)

let test_validate_accessibility () =
  let g, t1, _, out, _ = Fixtures.pipeline () in
  let m = Mapping.default_start g (machine ()) in
  (* move the task to CPU while its argument stays in FB: invalid *)
  let bad = Mapping.set_proc m t1 Kinds.Cpu in
  (match Mapping.validate g (machine ()) bad with
  | Error reason ->
      Alcotest.(check bool) "mentions the argument" true
        (Str_helpers.contains reason "produce.data")
  | Ok () -> Alcotest.fail "expected invalid");
  (* fixing the memory restores validity *)
  let fixed = Mapping.set_mem bad out Kinds.Zero_copy in
  Alcotest.(check bool) "fixed valid" true (Mapping.is_valid g (machine ()) fixed)

let test_validate_missing_variant () =
  let g, t, _ = Fixtures.gpu_only () in
  let m = Mapping.default_start g (machine ()) in
  let bad = Mapping.set_proc m t Kinds.Cpu in
  match Mapping.validate g (machine ()) bad with
  | Error reason -> Alcotest.(check bool) "mentions variant" true (Str_helpers.contains reason "variant")
  | Ok () -> Alcotest.fail "expected invalid"

let test_memory_priority () =
  let g, t1, _, out, _ = Fixtures.pipeline () in
  let m = Mapping.default_start g (machine ()) in
  let prio = Mapping.memory_priority m (Graph.task g t1) out in
  Alcotest.(check bool) "chosen first" true (List.hd prio = Kinds.Frame_buffer);
  Alcotest.(check bool) "zc second" true (List.nth prio 1 = Kinds.Zero_copy);
  Alcotest.(check int) "only accessible kinds" 2 (List.length prio)

let test_canonical_key_distinguishes () =
  let g, t1, _, out, _ = Fixtures.pipeline () in
  let m = Mapping.default_start g (machine ()) in
  let variants =
    [
      Mapping.set_proc m t1 Kinds.Cpu;
      Mapping.set_mem m out Kinds.Zero_copy;
      Mapping.set_distribute m t1 false;
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) "key differs" false
        (String.equal (Mapping.canonical_key m) (Mapping.canonical_key v)))
    variants;
  Alcotest.(check string) "key stable" (Mapping.canonical_key m) (Mapping.canonical_key m)

let test_equal () =
  let g, t1, _, _, _ = Fixtures.pipeline () in
  let m = Mapping.default_start g (machine ()) in
  Alcotest.(check bool) "reflexive" true (Mapping.equal m m);
  Alcotest.(check bool) "differs" false (Mapping.equal m (Mapping.set_proc m t1 Kinds.Cpu))

let test_all_cpu () =
  let g, t1, t2, out, _ = Fixtures.pipeline () in
  let m = Mapping.all_cpu g (machine ()) in
  Alcotest.(check bool) "t1 cpu" true (Kinds.equal_proc (Mapping.proc_of m t1) Kinds.Cpu);
  Alcotest.(check bool) "t2 cpu" true (Kinds.equal_proc (Mapping.proc_of m t2) Kinds.Cpu);
  Alcotest.(check bool) "sys" true (Kinds.equal_mem (Mapping.mem_of m out) Kinds.System);
  Alcotest.(check bool) "valid" true (Mapping.is_valid g (machine ()) m)

let test_pp () =
  let g, _, _, _, _ = Fixtures.pipeline () in
  let m = Mapping.default_start g (machine ()) in
  let s = Format.asprintf "%a" (Mapping.pp g) m in
  Alcotest.(check bool) "mentions task" true (Str_helpers.contains s "produce");
  Alcotest.(check bool) "mentions memory" true (Str_helpers.contains s "FB")

let prop_random_mapping_valid =
  QCheck.Test.make ~name:"Space.random_mapping is always valid" QCheck.(int_bound 10_000)
    (fun seed ->
      let g, _, _ = Fixtures.shared_halo () in
      let machine = Fixtures.default_machine () in
      let space = Space.make g machine in
      let m = Space.random_mapping space (Rng.create seed) in
      Mapping.is_valid g machine m)

let prop_unconstrained_sometimes_invalid =
  QCheck.Test.make ~name:"unconstrained sampling produces invalid mappings" QCheck.unit
    (fun () ->
      let g, _, _ = Fixtures.shared_halo () in
      let machine = Fixtures.default_machine () in
      let space = Space.make g machine in
      let rng = Rng.create 1234 in
      let invalid = ref 0 in
      for _ = 1 to 50 do
        if not (Mapping.is_valid g machine (Space.random_unconstrained space rng)) then
          incr invalid
      done;
      !invalid > 0)

(* Property: the allocation-free validity walk agrees with [validate]
   on every bundled app on both paper clusters.  Whole unconstrained
   samples are almost always invalid on the larger apps, so each draw
   also checks the default start with one task's processor kind and
   one collection's memory kind taken from the sample: valid about as
   often as not, like the ensemble's mutations. *)
let validity_problems =
  lazy
    (List.concat_map
       (fun (app : App.t) ->
         List.map
           (fun machine ->
             let g = app.App.graph ~nodes:1 ~input:(List.hd (app.App.inputs ~nodes:1)) in
             (g, machine, Space.make g machine))
           [ Presets.lassen ~nodes:1; Presets.shepard ~nodes:1 ])
       App.all)

let prop_is_valid_agrees =
  QCheck.Test.make ~name:"is_valid agrees with validate on unconstrained mappings"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun (g, machine, space) ->
          let u = Space.random_unconstrained space rng in
          let tid = Rng.int rng (Graph.n_tasks g) and cid = Rng.int rng (Graph.n_collections g) in
          let near =
            Mapping.set_mem
              (Mapping.set_proc (Mapping.default_start g machine) tid (Mapping.proc_of u tid))
              cid (Mapping.mem_of u cid)
          in
          List.for_all
            (fun m -> Mapping.is_valid g machine m = Result.is_ok (Mapping.validate g machine m))
            [ u; near ])
        (Lazy.force validity_problems))

(* Property: the in-place key writer matches the Buffer-based writer it
   replaced (Key_oracle) and [of_canonical_key] inverts it — on random
   mappings of every bundled app on both paper clusters, of a random
   workload, and of a graph without collections, whose key has no
   memory letter.  Extended spaces, so both strategies appear.  The
   seed sweep in CI picks this case by name. *)
let key_problems =
  lazy
    (let solo = Fixtures.no_collections () in
     (solo, Space.make ~extended:true solo (Presets.shepard ~nodes:1))
     :: List.map (fun (g, machine, _) -> (g, Space.make ~extended:true g machine))
          (Lazy.force validity_problems))

let prop_key_matches_oracle =
  QCheck.Test.make ~name:"canonical key matches the Buffer oracle and round-trips"
    (QCheck.pair Gen.arbitrary_spec QCheck.(int_bound 1_000_000))
    (fun (spec, seed) ->
      let rng = Rng.create seed in
      let g = Gen.graph_of_spec spec in
      let machine = if seed mod 2 = 0 then Presets.lassen ~nodes:1 else Presets.shepard ~nodes:1 in
      List.for_all
        (fun (g, space) ->
          let m = Space.random_unconstrained space rng in
          let key = Mapping.canonical_key m in
          String.equal key (Key_oracle.canonical_key g m)
          && String.length key = (3 * Graph.n_tasks g) + Graph.n_collections g + 3
          &&
          match Mapping.of_canonical_key g key with
          | Some back -> Mapping.equal back m
          | None -> false)
        ((g, Space.make ~extended:true g machine) :: Lazy.force key_problems))

let suite =
  [
    Alcotest.test_case "default start" `Quick test_default_start;
    Alcotest.test_case "default no gpu variant" `Quick test_default_start_no_gpu_variant;
    Alcotest.test_case "default gpu-less machine" `Quick test_default_start_gpu_less_machine;
    Alcotest.test_case "functional setters" `Quick test_setters_functional;
    Alcotest.test_case "validate accessibility" `Quick test_validate_accessibility;
    Alcotest.test_case "validate variant" `Quick test_validate_missing_variant;
    Alcotest.test_case "memory priority" `Quick test_memory_priority;
    Alcotest.test_case "canonical key" `Quick test_canonical_key_distinguishes;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "all_cpu" `Quick test_all_cpu;
    Alcotest.test_case "pp" `Quick test_pp;
    QCheck_alcotest.to_alcotest prop_random_mapping_valid;
    QCheck_alcotest.to_alcotest prop_unconstrained_sometimes_invalid;
    QCheck_alcotest.to_alcotest prop_is_valid_agrees;
    QCheck_alcotest.to_alcotest prop_key_matches_oracle;
  ]
