(* Fresh-seed measurement across domains.  [Evaluator.measure],
   [measure_objective] and [Driver.final_protocol] bind each mapping
   on the evaluator's scratch and split their runs into contiguous
   chunks, one per domain their instance-runs pay for
   ([Par.domains]), each on a runner of its own that reads those
   binds.  Every run keeps its seed, mapping and bind, so every list —
   and the final answer, and the evaluator's seed counter afterwards —
   must be bit-equal to the sequential loop kept in test/oracle
   ([Measure_oracle]).  The lassen:4 and grid:4x4 measurements stay on
   the calling domain; the grid:32x32 ones are past twice
   [Par.work_per_domain] and split. *)

(* [app]'s first input, built for every node of the [spec] machine
   ([nodes] sizes the presets; a mesh spec fixes its own count). *)
let problem ~spec ~nodes ~app =
  let machine =
    match Presets.of_spec spec ~nodes with Ok m -> m | Error e -> Alcotest.fail e
  in
  let nodes = machine.Machine.nodes in
  match App.find app with
  | Some a -> (machine, a.App.graph ~nodes ~input:(List.hd (a.App.inputs ~nodes)))
  | None -> Alcotest.failf "unknown app %s" app

let workloads =
  List.map
    (fun app -> (app ^ " lassen:4", fun () -> problem ~spec:"lassen" ~nodes:4 ~app))
    [ "circuit"; "stencil"; "pennant"; "htr"; "maestro" ]
  @ [ ("stencil grid:4x4", fun () -> problem ~spec:"grid:4x4" ~nodes:1 ~app:"stencil") ]

(* One Stencil grid:32x32 run simulates 24,576 instances, so 30 runs
   of one mapping are 737,280 instance-runs, ccd-mesh's Stencil final
   protocol: two domains on a host that recommends two or more. *)
let mesh () = problem ~spec:"grid:32x32" ~nodes:1 ~app:"stencil"

let energy machine r = Energy.joules_per_iteration machine Energy.default_power r

(* The [measure] window's counter, as a checkpoint records it. *)
let seed_counter ev =
  match
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "seed_counter"; n ] -> Some (int_of_string n)
        | _ -> None)
      (Evaluator.save_state ev)
  with
  | Some n -> n
  | None -> Alcotest.fail "save_state has no seed_counter line"

let bits l = List.map Int64.bits_of_float l
let check_runs what a b = Alcotest.(check (list int64)) what (bits a) (bits b)

let oracle_cfg ?objective ?iterations machine g =
  {
    Measure_oracle.scratch = Exec.scratch (Exec.compile machine g);
    noise_sigma = 0.03;
    fallback = false;
    iterations;
    metric =
      (match objective with
      | Some f -> f machine
      | None -> fun r -> r.Exec.per_iteration);
  }

(* A database of the default start and its one-coordinate neighbours
   (processor kinds, then memory kinds), each measured by a complete
   (unbounded) protocol; invalid and unplaceable ones are not
   recorded. *)
let populated ?objective machine g =
  let ev = Evaluator.create ~runs:3 ~seed:5 ?objective machine g in
  let space = Evaluator.space ev in
  let start = Mapping.default_start g machine in
  let neighbours =
    List.concat_map
      (fun tid -> List.map (Mapping.set_proc start tid) (Space.proc_choices space tid))
      (List.init (Graph.n_tasks g) Fun.id)
    @ List.concat_map
        (fun cid ->
          let owner = (Graph.collection g cid).Graph.owner in
          List.map (Mapping.set_mem start cid)
            (Space.mem_choices_for space ~cid (Mapping.proc_of start owner)))
        (List.init (Graph.n_collections g) Fun.id)
  in
  List.iter
    (fun m -> if Profiles_db.size (Evaluator.db ev) < 6 then ignore (Evaluator.evaluate ev m))
    (start :: neighbours);
  if Profiles_db.size (Evaluator.db ev) < 5 then
    Alcotest.failf "only %d mappings recorded" (Profiles_db.size (Evaluator.db ev));
  ev

let every_shape =
  List.concat_map (fun top -> List.map (fun runs -> (top, runs)) [ 1; 7; 30 ]) [ 1; 3; 5 ]

let final_protocol_case ?objective ?(shapes = every_shape) problem () =
  let machine, g = problem () in
  let ev = populated ?objective machine g in
  let search_best = Mapping.default_start g machine in
  List.iter
    (fun (final_top, final_runs) ->
      let what = Printf.sprintf "top %d x %d runs" final_top final_runs in
      let base = seed_counter ev in
      let best, runs =
        Driver.final_protocol ~final_top ~final_runs ev ~search_best ~search_perf:1.0
      in
      let obest, oruns =
        Measure_oracle.final_protocol
          (oracle_cfg ?objective machine g)
          ~base ~final_top ~final_runs (Evaluator.db ev) ~search_best
          ~search_perf:1.0
      in
      Alcotest.(check string)
        (what ^ ": final mapping") (Mapping.canonical_key obest)
        (Mapping.canonical_key best);
      check_runs (what ^ ": final runs") oruns runs;
      Alcotest.(check int)
        (what ^ ": seed counter") (base + (final_top * final_runs)) (seed_counter ev))
    shapes

let measure_case ?objective problem () =
  let machine, g = problem () in
  let ev = Evaluator.create ~seed:2 ?objective machine g in
  let m = Mapping.default_start g machine in
  let cfg = oracle_cfg machine g in
  let base = seed_counter ev in
  check_runs "measure, 7 runs"
    (Measure_oracle.measure cfg ~base ~runs:7 m)
    (Evaluator.measure ev ~runs:7 m);
  let base = seed_counter ev in
  check_runs "measure, the evaluator's runs, 2 iterations"
    (Measure_oracle.measure { cfg with iterations = Some 2 } ~base ~runs:7 m)
    (Evaluator.measure ev ~iterations:2 m);
  let base = seed_counter ev in
  check_runs "measure_objective, 30 runs"
    (Measure_oracle.measure (oracle_cfg ?objective machine g) ~base ~runs:30 m)
    (Evaluator.measure_objective ev ~runs:30 m);
  let base = seed_counter ev in
  check_runs "measure_objective, 1 run"
    (Measure_oracle.measure (oracle_cfg ?objective machine g) ~base ~runs:1 m)
    (Evaluator.measure_objective ev ~runs:1 m);
  Alcotest.(check int) "seed counter" (base + 1) (seed_counter ev)

let test_empty_db_fallback () =
  let machine, g = problem ~spec:"lassen" ~nodes:4 ~app:"stencil" in
  let ev = Evaluator.create ~seed:1 machine g in
  let search_best = Mapping.default_start g machine in
  let base = seed_counter ev in
  let best, runs = Driver.final_protocol ev ~search_best ~search_perf:0.25 in
  Alcotest.(check bool) "search best" true (best == search_best);
  check_runs "search perf" [ 0.25 ] runs;
  Alcotest.(check int) "no seed drawn" base (seed_counter ev)

(* The oversized fixture's default start (GPU framebuffer) cannot be
   placed; all-CPU fits in system memory.  Listed second, the failing
   mapping is bound after the first one, on the calling domain, and
   its bind raises the sequential loop's message before any run. *)
let test_unplaceable_raises () =
  let machine = Fixtures.default_machine () in
  let g, _, _ = Fixtures.oversized () in
  let good = Mapping.all_cpu g machine and bad = Mapping.default_start g machine in
  let ev = Evaluator.create ~seed:4 machine g in
  let cfg = oracle_cfg machine g in
  let base = seed_counter ev in
  Alcotest.(check int) "all-CPU runs" 7
    (List.length (Measure_oracle.measure cfg ~base ~runs:7 good));
  let expected =
    match Measure_oracle.measure cfg ~base:(base + 7) ~runs:7 bad with
    | _ -> Alcotest.fail "the oracle placed the oversized mapping"
    | exception Failure msg -> msg
  in
  match Evaluator.measure_objectives ev ~runs:7 [ good; bad ] with
  | _ -> Alcotest.fail "measure_objectives placed the oversized mapping"
  | exception Failure msg -> Alcotest.(check string) "sequential message" expected msg

(* The calling domain binds each measured mapping once, on the
   evaluator's scratch, and the runs read those binds: the final
   protocol adds one bind event (a hit, a delta or a full bind) per
   mapping it measures to the evaluator's stats, whatever its run
   count and however many domains run them. *)
let test_final_protocol_binds_once () =
  let machine, g = problem ~spec:"lassen" ~nodes:4 ~app:"stencil" in
  let ev = populated machine g in
  let binds () =
    let s = Evaluator.stats ev in
    s.Evaluator.s_bind_hits + s.Evaluator.s_delta_binds + s.Evaluator.s_full_binds
  in
  let search_best = Mapping.default_start g machine in
  List.iter
    (fun (final_top, final_runs) ->
      let before = binds () in
      ignore
        (Driver.final_protocol ~final_top ~final_runs ev ~search_best ~search_perf:1.0);
      Alcotest.(check int)
        (Printf.sprintf "top %d x %d runs" final_top final_runs)
        (min final_top (Profiles_db.size (Evaluator.db ev)))
        (binds () - before))
    [ (1, 7); (3, 30); (5, 30); (1, 1) ]

(* The domain count as a function of work, cores and job count:
   one domain below twice [Par.work_per_domain], one per
   [work_per_domain] above it, never more than the cores, 4 or the
   jobs, never 0. *)
let test_domain_rule () =
  let w = Par.work_per_domain in
  List.iter
    (fun (cores, jobs, work, k) ->
      Alcotest.(check int)
        (Printf.sprintf "%d cores, %d jobs, %d instance-runs" cores jobs work)
        k
        (Par.domains ~cores ~jobs ~work))
    [
      (* below 2W: the calling domain alone *)
      (8, 150, 0, 1);
      (8, 150, 1, 1);
      (8, 150, w, 1);
      (8, 150, (2 * w) - 1, 1);
      (* the largest shipped lassen measurement: Pennant lassen:4's
         final protocol, 5 x 30 runs of 1,488 instances *)
      (8, 150, 223_200, 1);
      (* from 2W: one domain per W *)
      (8, 150, 2 * w, 2);
      (8, 150, (3 * w) - 1, 2);
      (8, 150, 3 * w, 3);
      (8, 150, 4 * w, 4);
      (* ccd-mesh's final protocols, one mapping x 30 runs *)
      (2, 30, 737_280, 2);
      (2, 30, 1_105_920, 2);
      (* capped by the cores *)
      (1, 150, 100 * w, 1);
      (2, 150, 100 * w, 2);
      (3, 150, 100 * w, 3);
      (* capped at 4 *)
      (8, 150, 100 * w, 4);
      (64, 150, max_int, 4);
      (* capped by the jobs *)
      (8, 3, 100 * w, 3);
      (8, 1, 100 * w, 1);
      (* never 0 *)
      (8, 0, 0, 1);
      (8, 0, 100 * w, 1);
      (1, 1, 0, 1);
    ]

(* Every shipped lassen measurement stays under twice
   [Par.work_per_domain], so a final protocol of 5 mappings x 30 runs
   on any of the five apps runs every run on the calling domain: no
   domain is spawned.  Each run's objective names the domain that ran
   it. *)
let test_lassen_stays_home () =
  let home = (Domain.self () :> int) in
  List.iter
    (fun app ->
      let machine, g = problem ~spec:"lassen" ~nodes:4 ~app in
      let mu = Mutex.create () and calls = ref 0 and away = ref 0 in
      let objective machine r =
        Mutex.protect mu (fun () ->
            incr calls;
            if (Domain.self () :> int) <> home then incr away);
        energy machine r
      in
      let ev = populated ~objective machine g in
      calls := 0;
      ignore
        (Driver.final_protocol ev ~search_best:(Mapping.default_start g machine)
           ~search_perf:1.0);
      Alcotest.(check int) (app ^ ": runs") (5 * 30) !calls;
      Alcotest.(check int) (app ^ ": runs on another domain") 0 !away)
    [ "circuit"; "stencil"; "pennant"; "htr"; "maestro" ]

(* The runs of a final protocol past the threshold land on more than
   one domain: each run's objective, computed on the domain that ran
   it, names it (and each domain's first call waits until another
   domain has called it). *)
let test_runs_fan_out () =
  if Domain.recommended_domain_count () = 1 then begin
    print_endline "one domain recommended: the measurement runs inline, nothing to fan out";
    Alcotest.skip ()
  end;
  let machine, g = mesh () in
  let mu = Mutex.create () and seen = ref [] and wait = ref None in
  let objective machine r =
    let d = (Domain.self () :> int) in
    Mutex.protect mu (fun () -> if not (List.mem d !seen) then seen := d :: !seen);
    Option.iter Fixtures.note_domain !wait;
    energy machine r
  in
  let ev = populated ~objective machine g in
  seen := [];
  wait := Some (Fixtures.worker_wait ());
  ignore
    (Driver.final_protocol ~final_top:1 ~final_runs:30 ev
       ~search_best:(Mapping.default_start g machine) ~search_perf:1.0);
  Alcotest.(check bool)
    (Printf.sprintf "%d domains ran the runs" (List.length !seen))
    true
    (List.length !seen > 1)

(* A non-positive run count is refused before anything runs: the
   measurement raises instead of counting down past zero, and a search
   asked for no final runs fails before its first evaluation. *)
let test_bad_run_counts () =
  let machine, g = problem ~spec:"lassen" ~nodes:4 ~app:"circuit" in
  let ev = Evaluator.create machine g in
  let m = Mapping.default_start g machine in
  let base = seed_counter ev in
  List.iter
    (fun runs ->
      Alcotest.check_raises
        (Printf.sprintf "measure ~runs:%d" runs)
        (Invalid_argument "Evaluator.measure: runs must be positive")
        (fun () -> ignore (Evaluator.measure ev ~runs m)))
    [ 0; -1 ];
  Alcotest.(check int) "no seed drawn" base (seed_counter ev);
  let refused = Invalid_argument "Driver.session: final_runs must be positive" in
  List.iter
    (fun final_runs ->
      let events = ref 0 in
      Alcotest.check_raises
        (Printf.sprintf "Driver.run ~final_runs:%d" final_runs)
        refused
        (fun () ->
          ignore
            (Driver.run ~final_runs ~on_event:(fun _ -> incr events)
               (Driver.Ccd { rotations = 1 }) machine g));
      Alcotest.(check int) "nothing evaluated" 0 !events;
      Alcotest.check_raises
        (Printf.sprintf "Driver.session, final_runs %d" final_runs)
        refused
        (fun () ->
          ignore (Driver.session { Driver.default_cfg with final_runs } machine g)))
    [ 0; -1 ]

(* The command line refuses the same counts as a usage error (exit 124)
   before any work, and so it does a missing, unknown or unreadable
   input: a workload without an input, an unknown app, algorithm or
   preset, a bad node count, a file that does not exist or does not
   parse. *)
let test_cli_usage_errors () =
  let exe = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "automap_cli.exe" in
  if not (Sys.file_exists exe) then begin
    Printf.printf "%s not built: run from dune's test directory\n" exe;
    Alcotest.skip ()
  end;
  let garbage = Filename.temp_file "automap" ".map" in
  Out_channel.with_open_bin garbage (fun oc -> output_string oc "garbage\n");
  Fun.protect ~finally:(fun () -> Sys.remove garbage) @@ fun () ->
  List.iter
    (fun args ->
      let code = Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" exe args) in
      Alcotest.(check int) args 124 code)
    [
      "tune -a stencil --runs 0";
      "tune -a stencil --runs=-3";
      "tune -a stencil --final-runs 0";
      "tune -a stencil --final-runs=-1";
      "search -a stencil --runs 0";
      "search -a stencil -c grid:4x4";
      "search -a nosuch -i x";
      "search -a stencil -i 500x500 --algo nosuch";
      "search -a stencil -i 500x500 --algo ccd:1";
      "search -a stencil -i 500x500 -c nosuch";
      "search -a stencil -i 500x500 --machine /nonexistent";
      "simulate -a stencil -i 500x500 -m /nonexistent";
      "compare -a stencil -i 500x500 -m " ^ garbage;
    ]
  ;
  (* a machine spec's error lists the spec forms only when the spec
     takes none of them *)
  List.iter
    (fun (args, listed) ->
      let err = Filename.temp_file "automap" ".err" in
      Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
      let code =
        Sys.command (Printf.sprintf "%s %s >/dev/null 2>%s" exe args (Filename.quote err))
      in
      Alcotest.(check int) args 124 code;
      let msg = In_channel.with_open_bin err In_channel.input_all in
      Alcotest.(check bool) (args ^ " lists the spec forms: " ^ msg) listed
        (Str_helpers.contains msg "presets:"))
    [
      ("search -a stencil -i 500x500 -n 0", false);
      ("search -a stencil -i 500x500 -c nosuch", true);
    ]

let suite =
  List.concat_map
    (fun (name, problem) ->
      [
        Alcotest.test_case ("final protocol == sequential, " ^ name) `Quick
          (final_protocol_case problem);
        Alcotest.test_case ("measure == sequential, " ^ name) `Quick (measure_case problem);
      ])
    workloads
  @ [
      Alcotest.test_case "final protocol == sequential, energy, stencil lassen:4" `Quick
        (final_protocol_case ~objective:energy (List.assoc "stencil lassen:4" workloads));
      Alcotest.test_case "final protocol == sequential, energy, circuit lassen:4" `Quick
        (final_protocol_case ~objective:energy (List.assoc "circuit lassen:4" workloads));
      Alcotest.test_case "measure == sequential, energy, pennant lassen:4" `Quick
        (measure_case ~objective:energy (List.assoc "pennant lassen:4" workloads));
      Alcotest.test_case "final protocol == sequential, energy, stencil grid:32x32" `Quick
        (final_protocol_case ~objective:energy ~shapes:[ (1, 30); (3, 30) ] mesh);
      Alcotest.test_case "the domain count follows the work" `Quick test_domain_rule;
      Alcotest.test_case "a lassen:4 final protocol runs every run on the calling domain"
        `Quick test_lassen_stays_home;
      Alcotest.test_case "empty database falls back to the search best" `Quick
        test_empty_db_fallback;
      Alcotest.test_case "an unplaceable second mapping raises the sequential message"
        `Quick test_unplaceable_raises;
      Alcotest.test_case "the final protocol binds each mapping once" `Quick
        test_final_protocol_binds_once;
      Alcotest.test_case "the final protocol's runs land on several domains" `Quick
        test_runs_fan_out;
      Alcotest.test_case "non-positive run counts are refused" `Quick test_bad_run_counts;
      Alcotest.test_case "the CLI refuses bad run counts and inputs as usage errors" `Quick
        test_cli_usage_errors;
    ]
