(* Golden determinism of the compiled simulator (Exec.compile /
   Exec.simulate): for the same seed it must reproduce the golden
   oracle (test/oracle) bit-for-bit, across all five apps; and the parallel
   portfolio must return exactly the sequential portfolio's results. *)

let exact = Alcotest.float 0.0

let check_results name (a : Exec.result) (b : Exec.result) =
  Alcotest.(check exact) (name ^ ": makespan") a.Exec.makespan b.Exec.makespan;
  Alcotest.(check exact) (name ^ ": per_iteration") a.Exec.per_iteration b.Exec.per_iteration;
  Alcotest.(check exact) (name ^ ": bytes_moved") a.Exec.bytes_moved b.Exec.bytes_moved;
  Alcotest.(check int) (name ^ ": n_copies") a.Exec.n_copies b.Exec.n_copies;
  Alcotest.(check int) (name ^ ": demotions") a.Exec.demotions b.Exec.demotions;
  Alcotest.(check (array exact)) (name ^ ": channel_bytes") a.Exec.channel_bytes
    b.Exec.channel_bytes;
  Alcotest.(check (array exact)) (name ^ ": task_times") a.Exec.task_times b.Exec.task_times;
  Alcotest.(check (array exact)) (name ^ ": proc_busy") a.Exec.proc_busy b.Exec.proc_busy

let ok name = function
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" name (Placement.error_to_string e)

let seeds = [ 0; 3; 11 ]

let check_same name expected got =
  match (expected, got) with
  | Ok a, Ok b -> check_results name a b
  | Error ea, Error eb ->
      Alcotest.(check string)
        (name ^ ": same error")
        (Placement.error_to_string ea)
        (Placement.error_to_string eb)
  | Ok _, Error e | Error e, Ok _ ->
      Alcotest.failf "%s: one side failed: %s" name (Placement.error_to_string e)

(* one scratch per (machine, graph), reused across every mapping, seed
   and sigma below — exactly how the evaluator drives it: a quiet run
   (the search's, which adds its seed to the noise table) and then a
   record-API run (which reads that stream back) *)
let check_app machine (app : App.t) =
  let input = List.hd (app.App.inputs ~nodes:machine.Machine.nodes) in
  let g = app.App.graph ~nodes:machine.Machine.nodes ~input in
  let sc = Exec.scratch (Exec.compile machine g) in
  let mappings =
    [
      ("default", Mapping.default_start g machine);
      ("custom", app.App.custom g machine);
      ("all_cpu", Mapping.all_cpu g machine);
    ]
  in
  List.iter
    (fun (mname, mapping) ->
      List.iter
        (fun seed ->
          List.iter
            (fun noise_sigma ->
              let name =
                Printf.sprintf "%s/%s seed=%d sigma=%.2f" app.App.app_name mname seed
                  noise_sigma
              in
              let expected = Oracle.run ~noise_sigma ~seed ~fallback:true machine g mapping in
              check_same (name ^ " quiet") expected
                (Fixtures.quiet_run ~noise_sigma ~seed ~fallback:true sc mapping);
              check_same name expected
                (Exec.simulate ~noise_sigma ~seed ~fallback:true sc mapping))
            [ 0.0; 0.03 ])
        seeds)
    mappings

let test_apps_golden () =
  let machine = Presets.shepard ~nodes:2 in
  List.iter (check_app machine) App.all

(* Scratch reuse across seeds and changing iteration counts, including
   growth.  Quiet runs, as the search makes them, add each seed's noise
   stream to the scratch and read it back: a cut run fills the stream
   part way, the full run on that seed continues it, and a run with
   more iterations grows it, keeping the values already drawn.  The
   record API then reads the stream.  Every finished run equals the
   oracle, and every cut clock a fresh scratch's, bit for bit. *)
let test_fixture_golden_iterations () =
  let machine = Fixtures.default_machine () in
  let g, _, _ = Fixtures.shared_halo ~iterations:2 () in
  let c = Exec.compile machine g in
  let sc = Exec.scratch c in
  let m = Mapping.default_start g machine in
  List.iter
    (fun iterations ->
      List.iter
        (fun seed ->
          let name = Printf.sprintf "shared_halo seed=%d iters=%d" seed iterations in
          let a = ok name (Oracle.run ~seed ~iterations machine g m) in
          let cutoff = a.Exec.makespan /. 2.0 in
          (match
             ( Fixtures.quiet_simulate ~seed ~iterations ~cutoff sc m,
               Exec.simulate_bounded ~seed ~iterations ~cutoff (Exec.scratch c) m )
           with
          | Ok (Exec.Cut t), Ok (Exec.Cut t_fresh) ->
              Alcotest.(check exact) (name ^ ": cut clock") t_fresh t
          | _ -> Alcotest.failf "%s: a half-makespan cutoff did not cut" name);
          check_results (name ^ " quiet") a
            (ok name (Fixtures.quiet_run ~seed ~iterations sc m));
          check_results name a (ok name (Exec.simulate ~seed ~iterations sc m)))
        [ 7; 8 ])
    [ 2; 7; 1; 4 ]

let test_run_matches_reference () =
  (* the compatibility wrapper is the compiled path *)
  let machine = Fixtures.default_machine () in
  let g, _, _, _, inp = Fixtures.pipeline ~iterations:3 () in
  let m = Mapping.set_mem (Mapping.default_start g machine) inp Kinds.Zero_copy in
  let a = ok "run" (Exec.run ~seed:5 machine g m) in
  let b = ok "reference" (Oracle.run ~seed:5 machine g m) in
  check_results "wrapper" a b

let test_result_arrays_fresh () =
  (* results returned by earlier simulate calls must survive later ones *)
  let machine = Fixtures.default_machine () in
  let g, _, _ = Fixtures.shared_halo () in
  let sc = Exec.scratch (Exec.compile machine g) in
  let m = Mapping.default_start g machine in
  let a = ok "first" (Exec.simulate ~seed:1 sc m) in
  let snapshot = Array.copy a.Exec.task_times in
  let _b = ok "second" (Exec.simulate ~seed:2 sc m) in
  Alcotest.(check (array exact)) "first result untouched" snapshot a.Exec.task_times

let test_evaluator_unchanged () =
  (* the compiled evaluator must score candidates exactly as the
     reference protocol (Oracle.run with the evaluator's seed
     schedule: seed * 1_000_003 + k for the k-th execution) *)
  let machine = Fixtures.default_machine () in
  let g, _, _ = Fixtures.shared_halo () in
  let m = Mapping.default_start g machine in
  let runs = 4 and seed = 9 in
  let ev = Evaluator.create ~runs ~seed machine g in
  let got = Evaluator.evaluate ev m in
  let expected =
    let times =
      List.init runs (fun k ->
          let seed = (seed * 1_000_003) + k + 1 in
          match Oracle.run ~noise_sigma:0.03 ~seed machine g m with
          | Ok r -> r.Exec.per_iteration
          | Error e -> Alcotest.fail (Placement.error_to_string e))
    in
    (* the evaluator averages newest-first; float addition order matters
       for exactness *)
    Stats.mean (List.rev times)
  in
  Alcotest.(check exact) "evaluator objective" expected got

(* Random workloads: every result field of the compiled simulator
   equals the oracle's bit for bit, on a legacy preset of each paper
   cluster and on routed machines (a mesh, a torus's wrap-around
   routes and a fat tree's routes through switch vertices, and an
   uncontended torus, whose copies arrive after the total cost a
   routed dep binds, where the others walk their hops), noise-free
   (the most events on one clock) and noisy, with one scratch per
   (machine, graph) reused across mappings, sigmas and seeds, each run
   quiet (caching the seed's noise stream) and then on the record API
   (reading it). *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_bits_array a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_result (a : Exec.result) (b : Exec.result) =
  same_bits a.Exec.makespan b.Exec.makespan
  && same_bits a.Exec.per_iteration b.Exec.per_iteration
  && same_bits a.Exec.bytes_moved b.Exec.bytes_moved
  && a.Exec.n_copies = b.Exec.n_copies
  && a.Exec.demotions = b.Exec.demotions
  && same_bits_array a.Exec.channel_bytes b.Exec.channel_bytes
  && same_bits_array a.Exec.task_times b.Exec.task_times
  && same_bits_array a.Exec.proc_busy b.Exec.proc_busy

let random_workload_specs =
  [
    ("shepard", 2); ("lassen", 2); ("grid:2x2", 1); ("torus:3x3", 1); ("fattree:2:2", 1);
    ("torus:3x3:free", 1);
  ]

(* built on first use, so a preset that fails to build fails this case
   rather than every suite at start-up *)
let random_workload_machines =
  lazy
    (List.mapi
       (fun i (spec, nodes) -> (i, Result.get_ok (Presets.of_spec spec ~nodes)))
       random_workload_specs)

(* finished (not refused) comparisons per machine, for the
   non-vacuity check below *)
let random_workload_finished = Array.make (List.length random_workload_specs) 0

let prop_random_workloads_match_oracle =
  QCheck.Test.make ~count:200 ~name:"random workloads: simulate == oracle, bit for bit"
    Gen.arbitrary_spec (fun spec ->
      let g = Gen.graph_of_spec spec in
      List.for_all
        (fun (i, machine) ->
          let sc = Exec.scratch (Exec.compile machine g) in
          List.for_all
            (fun mapping ->
              List.for_all
                (fun (noise_sigma, seed) ->
                  let same expected got =
                    match (expected, got) with
                    | Ok a, Ok b ->
                        random_workload_finished.(i) <- random_workload_finished.(i) + 1;
                        same_result a b
                    | Error ea, Error eb ->
                        Placement.error_to_string ea = Placement.error_to_string eb
                    | _ -> false
                  in
                  let expected =
                    Oracle.run ~noise_sigma ~seed ~fallback:true machine g mapping
                  in
                  same expected
                    (Fixtures.quiet_run ~noise_sigma ~seed ~fallback:true sc mapping)
                  && same expected (Exec.simulate ~noise_sigma ~seed ~fallback:true sc mapping))
                [ (0.0, 0); (0.03, spec.Gen.seed); (0.03, spec.Gen.seed + 1) ])
            [ Mapping.default_start g machine; Mapping.all_cpu g machine ])
        (Lazy.force random_workload_machines))

let random_workloads_match_oracle =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_random_workloads_match_oracle in
  Alcotest.test_case name speed (fun () ->
      Array.fill random_workload_finished 0 (Array.length random_workload_finished) 0;
      run ();
      if Array.exists (( = ) 0) random_workload_finished then
        Alcotest.fail "vacuous: a machine finished no simulation")

(* The same random workloads on runners, as a measurement's domains
   run them: each mapping is bound on the scratch and simulated once on
   a fresh runner over the scratch's own bind, and once more on another
   fresh runner over a frozen copy of that bind, made before the
   scratch binds the other mapping (so the copy must not change when
   the live bind does).  Every result field equals the oracle's, bit
   for bit, and so does the energy objective of the record. *)
let runner_workload_finished = Array.make (List.length random_workload_specs) 0

let prop_runner_workloads_match_oracle =
  QCheck.Test.make ~count:200
    ~name:"random workloads on runners: scratch and frozen binds == oracle, bit for bit"
    Gen.arbitrary_spec (fun spec ->
      let g = Gen.graph_of_spec spec in
      let iterations = g.Graph.iterations in
      List.for_all
        (fun (i, machine) ->
          let compiled = Exec.compile machine g in
          let sc = Exec.scratch compiled in
          let energy r =
            Int64.bits_of_float (Energy.joules_per_iteration machine Energy.default_power r)
          in
          let mappings = [| Mapping.default_start g machine; Mapping.all_cpu g machine |] in
          List.for_all
            (fun (noise_sigma, seed) ->
              let run b =
                let r = Exec.runner compiled in
                Exec.run_fresh r b ~noise_sigma ~seed ~iterations;
                Exec.runner_result r
              in
              let same expected got =
                match expected with
                | Ok a ->
                    runner_workload_finished.(i) <- runner_workload_finished.(i) + 1;
                    same_result a got && energy a = energy got
                | Error _ -> false
              in
              let expected m = Oracle.run ~noise_sigma ~seed ~fallback:true machine g m in
              let frozen = Array.map (fun _ -> None) mappings in
              Array.for_all Fun.id
                (Array.mapi
                   (fun k m ->
                     match Exec.bind sc ~fallback:true m with
                     | Error e -> (
                         match expected m with
                         | Error e' ->
                             Placement.error_to_string e = Placement.error_to_string e'
                         | Ok _ -> false)
                     | Ok b ->
                         frozen.(k) <- Some (Exec.freeze b);
                         same (expected m) (run b))
                   mappings)
              && Array.for_all Fun.id
                   (Array.mapi
                      (fun k m ->
                        match frozen.(k) with
                        | None -> true
                        | Some b -> same (expected m) (run b))
                      mappings))
            [ (0.0, 0); (0.03, spec.Gen.seed); (0.03, spec.Gen.seed + 1) ])
        (Lazy.force random_workload_machines))

let runner_workloads_match_oracle =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_runner_workloads_match_oracle in
  Alcotest.test_case name speed (fun () ->
      Array.fill runner_workload_finished 0 (Array.length runner_workload_finished) 0;
      run ();
      if Array.exists (( = ) 0) runner_workload_finished then
        Alcotest.fail "vacuous: a machine finished no run")

(* The record API reads a scratch's noise streams but adds none: a
   fresh seed per run (the final protocol's) leaves the scratch as
   large as it was after the first such run. *)
let test_fresh_seeds_keep_scratch_size () =
  let machine = Presets.shepard ~nodes:2 in
  let g = App.stencil.App.graph ~nodes:2 ~input:"500x500" in
  let sc = Exec.scratch (Exec.compile machine g) in
  let m = Mapping.default_start g machine in
  let words () = Obj.reachable_words (Obj.repr sc) in
  ignore (ok "seed 100" (Exec.simulate ~seed:100 sc m));
  let after_one = words () in
  for seed = 101 to 129 do
    ignore (ok "fresh seed" (Exec.simulate ~seed sc m))
  done;
  Alcotest.(check int) "words after 30 fresh seeds" after_one (words ())

let test_parallel_map_order () =
  let jobs = List.init 17 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "results in input order"
    (List.init 17 (fun i -> i * i))
    (Par.map ~domains:4 jobs)

let test_parallel_map_exception () =
  let jobs =
    List.init 6 (fun i () -> if i = 3 then failwith "boom" else i)
  in
  match Par.map ~domains:3 jobs with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure msg -> Alcotest.(check string) "propagated" "boom" msg

let suite =
  [
    Alcotest.test_case "five apps: simulate == reference" `Slow test_apps_golden;
    Alcotest.test_case "scratch reuse across iteration counts" `Quick
      test_fixture_golden_iterations;
    Alcotest.test_case "run wrapper matches reference" `Quick test_run_matches_reference;
    Alcotest.test_case "result arrays are fresh per simulate" `Quick
      test_result_arrays_fresh;
    Alcotest.test_case "evaluator protocol unchanged" `Quick test_evaluator_unchanged;
    random_workloads_match_oracle;
    runner_workloads_match_oracle;
    Alcotest.test_case "fresh noise seeds do not grow the scratch" `Quick
      test_fresh_seeds_keep_scratch_size;
    Alcotest.test_case "parallel map preserves order" `Quick test_parallel_map_order;
    Alcotest.test_case "parallel map propagates exceptions" `Quick
      test_parallel_map_exception;
  ]
