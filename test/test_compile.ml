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

(* one scratch per (machine, graph), reused across every mapping, seed
   and sigma below — exactly how the evaluator drives it *)
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
              match
                ( Oracle.run ~noise_sigma ~seed ~fallback:true machine g mapping,
                  Exec.simulate ~noise_sigma ~seed ~fallback:true sc mapping )
              with
              | Ok a, Ok b -> check_results name a b
              | Error ea, Error eb ->
                  Alcotest.(check string)
                    (name ^ ": same error")
                    (Placement.error_to_string ea)
                    (Placement.error_to_string eb)
              | Ok _, Error e | Error e, Ok _ ->
                  Alcotest.failf "%s: one side failed: %s" name
                    (Placement.error_to_string e))
            [ 0.0; 0.03 ])
        seeds)
    mappings

let test_apps_golden () =
  let machine = Presets.shepard ~nodes:2 in
  List.iter (check_app machine) App.all

let test_fixture_golden_iterations () =
  (* scratch reuse across changing iteration counts, including growth *)
  let machine = Fixtures.default_machine () in
  let g, _, _ = Fixtures.shared_halo ~iterations:2 () in
  let sc = Exec.scratch (Exec.compile machine g) in
  let m = Mapping.default_start g machine in
  List.iter
    (fun iterations ->
      let name = Printf.sprintf "shared_halo iters=%d" iterations in
      let a = ok name (Oracle.run ~seed:7 ~iterations machine g m) in
      let b = ok name (Exec.simulate ~seed:7 ~iterations sc m) in
      check_results name a b)
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

let test_parallel_map_order () =
  let jobs = List.init 17 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "results in input order"
    (List.init 17 (fun i -> i * i))
    (Parallel.map ~domains:4 jobs)

let test_parallel_map_exception () =
  let jobs =
    List.init 6 (fun i () -> if i = 3 then failwith "boom" else i)
  in
  match Parallel.map ~domains:3 jobs with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure msg -> Alcotest.(check string) "propagated" "boom" msg

let member_result_eq g (a : Parallel.member_result) (b : Parallel.member_result) =
  let mapping = Alcotest.testable (Mapping.pp g) Mapping.equal in
  Alcotest.(check string) "member" a.Parallel.member b.Parallel.member;
  Alcotest.(check exact) "perf" a.Parallel.perf b.Parallel.perf;
  Alcotest.check mapping "mapping" a.Parallel.mapping b.Parallel.mapping;
  Alcotest.(check int) "evaluated" a.Parallel.evaluated b.Parallel.evaluated;
  Alcotest.(check int) "suggested" a.Parallel.suggested b.Parallel.suggested

let test_parallel_equals_sequential () =
  let machine = Fixtures.default_machine () in
  let g, _, _ = Fixtures.shared_halo () in
  let members = [ Portfolio.Ccd 3; Portfolio.Annealing; Portfolio.Random; Portfolio.Cd ] in
  let run domains =
    Parallel.run_members ~domains ~members ~budget:0.5 ~seed:1 ~runs:3 machine g
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check int) "same member count" (List.length seq) (List.length par);
  List.iter2 (member_result_eq g) seq par;
  let bs = Parallel.best seq and bp = Parallel.best par in
  Alcotest.(check string) "same best member" bs.Parallel.member bp.Parallel.member;
  Alcotest.(check exact) "same best perf" bs.Parallel.perf bp.Parallel.perf

let suite =
  [
    Alcotest.test_case "five apps: simulate == reference" `Slow test_apps_golden;
    Alcotest.test_case "scratch reuse across iteration counts" `Quick
      test_fixture_golden_iterations;
    Alcotest.test_case "run wrapper matches reference" `Quick test_run_matches_reference;
    Alcotest.test_case "result arrays are fresh per simulate" `Quick
      test_result_arrays_fresh;
    Alcotest.test_case "evaluator protocol unchanged" `Quick test_evaluator_unchanged;
    Alcotest.test_case "parallel map preserves order" `Quick test_parallel_map_order;
    Alcotest.test_case "parallel map propagates exceptions" `Quick
      test_parallel_map_exception;
    Alcotest.test_case "parallel portfolio == sequential" `Slow
      test_parallel_equals_sequential;
  ]
