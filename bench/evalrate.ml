(* Evaluator-throughput microbenchmark: how many candidate mappings per
   second can the search evaluate?

   For Stencil and Circuit (the two ends of the app spectrum: few big
   group tasks vs. many smaller ones) it measures

     - the reference interpreter (Oracle.run: re-derives all
       structure per run — the pre-compile simulator), and
     - the compiled path (Exec.compile once + Exec.simulate per
       candidate against a reused scratch — what Evaluator does),

   each driven with the §5 protocol of [runs] noisy executions per
   candidate, and reports candidate evaluations/sec, simulated task
   instances/sec and the compiled-over-reference speedup.

   Two more sections measure the domain claims of the final protocol:

     - the calibration of Par.work_per_domain: a CCD(5) search, then
       its final protocol (Driver.conclude) and the same jobs on one
       domain and on every domain they could use, on the five apps
       over lassen:4 and on Stencil and Circuit over grid:16x16 and
       grid:32x32 (Stencil on lassen:4 and grid:4x4, 20 trials, with
       --smoke); it prints each measurement's instance-runs and the
       domain count the rule gives them, and every leg must match
       Driver.conclude and the sequential record-API loop
       (Measure_oracle) bit for bit;
     - long-lived domains: cached quiet simulations on two scratches,
       both on the calling domain, then one per domain (one spawn), on
       Stencil and Circuit over grid:32x32 (grid:4x4 with --smoke),
       plus the cost of a bare Domain.spawn and join.

   Results go to stdout and to BENCH_evalrate.json so successive PRs
   can track the perf trajectory.

   Usage: dune exec bench/evalrate.exe [-- --smoke] [-- --out FILE]
     --smoke   single tiny pass (CI rot check, seconds not minutes)   *)

let out_file = ref "BENCH_evalrate.json"
let smoke = ref false

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out" :: f :: rest ->
        out_file := f;
        parse rest
    | unknown :: _ ->
        Printf.eprintf "evalrate: unknown argument %S\n" unknown;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let now = Unix.gettimeofday

(* Stamp the report with the producing commit so JSON files compared
   across PRs identify their code version.  Benchmarks may run from a
   build tree outside any repository: fall back to "unknown". *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* distinct valid candidates, deterministically derived from the search
   space so the bind phase is exercised like a real search *)
let candidates g machine ~count =
  let space = Space.make g machine in
  let rng = Rng.create 12345 in
  let rec gen acc n guard =
    if n = 0 || guard = 0 then acc
    else
      let m = Space.random_unconstrained space rng in
      if Mapping.is_valid g machine m then gen (m :: acc) (n - 1) (guard - 1)
      else gen acc n (guard - 1)
  in
  gen [ Mapping.default_start g machine ] (count - 1) (count * 200)

type rate = { evals_per_sec : float; instances_per_sec : float; evals : int }

let measure_rate ~runs ~min_time ~instances_per_sim sim_candidate mappings =
  (* one untimed pass first: allocator growth, code and page
     first-touch are one-time costs, not part of the steady-state rate
     this benchmark tracks — then repeat whole passes over the
     candidate list until [min_time] elapsed, so rates are stable
     across machine jitter *)
  List.iter (fun m -> sim_candidate ~seed:0 m) mappings;
  let evals = ref 0 in
  let t0 = now () in
  let elapsed () = now () -. t0 in
  while !evals = 0 || elapsed () < min_time do
    List.iter
      (fun m ->
        for r = 1 to runs do
          sim_candidate ~seed:(!evals + r) m
        done;
        incr evals)
      mappings
  done;
  let dt = elapsed () in
  let sims = !evals * runs in
  {
    evals_per_sec = float_of_int !evals /. dt;
    instances_per_sec = float_of_int (sims * instances_per_sim) /. dt;
    evals = !evals;
  }

type app_row = {
  row_app : string;
  row_input : string;
  reference : rate;
  compiled : rate;
  speedup : float;
}

let bench_app (app : App.t) machine ~input ~count ~runs ~min_time =
  let g = app.App.graph ~nodes:machine.Machine.nodes ~input in
  let mappings = candidates g machine ~count in
  let instances_per_sim =
    g.Graph.iterations
    * Array.fold_left (fun acc (t : Graph.task) -> acc + t.group_size) 0 g.Graph.tasks
  in
  let expect_ok = function
    | Ok _ -> ()
    | Error e -> failwith ("evalrate: " ^ Placement.error_to_string e)
  in
  let reference =
    measure_rate ~runs ~min_time ~instances_per_sim
      (fun ~seed m -> expect_ok (Oracle.run ~fallback:true ~seed machine g m))
      mappings
  in
  let sc = Exec.scratch (Exec.compile machine g) in
  let compiled =
    measure_rate ~runs ~min_time ~instances_per_sim
      (fun ~seed m -> expect_ok (Exec.simulate ~fallback:true ~seed sc m))
      mappings
  in
  let speedup = compiled.evals_per_sec /. reference.evals_per_sec in
  Printf.printf
    "%-8s %-10s reference %8.1f evals/s | compiled %8.1f evals/s | %5.2fx | %.2e inst/s\n%!"
    app.App.app_name input reference.evals_per_sec compiled.evals_per_sec speedup
    compiled.instances_per_sec;
  { row_app = app.App.app_name; row_input = input; reference; compiled; speedup }

(* ---- when a measurement pays for a domain ------------------------ *)

let problem (app : App.t) ~spec ~nodes =
  let machine =
    match Presets.of_spec spec ~nodes with Ok m -> m | Error e -> failwith e
  in
  let nodes = machine.Machine.nodes in
  (machine, app.App.graph ~nodes ~input:(List.hd (app.App.inputs ~nodes)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let seed_counter ev =
  match
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "seed_counter"; n ] -> int_of_string_opt n
        | _ -> None)
      (Evaluator.save_state ev)
  with
  | Some n -> n
  | None -> failwith "evalrate: save_state has no seed_counter line"

(* [maps] measured [runs] times each under the seeds [base + 1] on,
   split into [domains] contiguous chunks as Evaluator.measure_with
   splits them: every mapping bound on the calling domain, chunk 0 on
   the scratch's runner, the others on runners of their own.  The
   evaluator picks its count by Par.domains; this runs the same jobs
   on any count, so one measurement can be timed on both. *)
let split_measure sc ~domains ~noise_sigma ~iterations ~base ~runs maps =
  let maps = Array.of_list maps in
  let last = Array.length maps - 1 in
  let binds =
    Array.mapi
      (fun i m ->
        match Exec.bind sc ~fallback:false m with
        | Ok b -> if i < last then Exec.freeze b else b
        | Error e -> failwith ("evalrate: " ^ Placement.error_to_string e))
      maps
  in
  let n = Array.length maps * runs in
  let out = Array.make n 0.0 in
  let chunk c () =
    let r =
      if c = 0 then Exec.scratch_runner sc else Exec.runner (Exec.compiled_of_scratch sc)
    in
    for j = c * n / domains to ((c + 1) * n / domains) - 1 do
      Exec.run_fresh r binds.(j / runs) ~noise_sigma ~seed:(base + j + 1) ~iterations;
      out.(j) <- Exec.runner_per_iteration r
    done
  in
  ignore (Par.map ~domains (List.init domains chunk) : unit list);
  List.mapi
    (fun i m -> (m, List.init runs (fun r -> out.((i * runs) + runs - 1 - r))))
    (Array.to_list maps)

(* the final protocol's pick: the fastest mean, the first on a tie *)
let fastest = function
  | [] -> invalid_arg "evalrate: nothing measured"
  | c :: cs ->
      List.fold_left
        (fun ((_, bruns) as acc) ((_, runs) as cand) ->
          if Stats.mean runs < Stats.mean bruns then cand else acc)
        c cs

type conclude_row = {
  cr_app : string;
  cr_spec : string;
  cr_mappings : int;
  cr_runs : int;
  cr_work : int;        (* instance-runs: mappings x runs x instances per run *)
  cr_rule : int;        (* Par.domains for that work *)
  cr_fan : int;         (* the most domains the measurement could use *)
  cr_one : float;       (* seconds, medians over the timed reps *)
  cr_fanned : float;
  cr_conclude : float;  (* Driver.conclude, on the rule's count *)
}

(* One CCD(5) search (the CLI defaults), then its final protocol
   timed three ways under the same seeds: Driver.conclude itself, and
   the same jobs on one domain and on every domain the measurement
   could use.  The legs run where the final protocol runs, after a
   search, with the heap and the evaluator that search leaves.  Every
   leg must pick the same mapping with bit-equal runs, and the first
   pick must match the sequential record-API loop (Measure_oracle). *)
let bench_conclude (app : App.t) ~spec ~nodes ~max_trials ~reps =
  let machine, g = problem app ~spec ~nodes in
  let cfg = { Driver.default_cfg with batch = false; max_trials } in
  let s = match Driver.session cfg machine g with Ok s -> s | Error e -> failwith e in
  let o = Driver.search s in
  let ev = s.Driver.ev in
  let maps =
    List.map
      (fun e -> e.Profiles_db.mapping)
      (Profiles_db.top (Evaluator.db ev) cfg.Driver.final_top)
  in
  let runs = cfg.Driver.final_runs in
  let compiled = Exec.compile machine g in
  let sc = Exec.scratch compiled in
  let iterations = g.Graph.iterations in
  let jobs = List.length maps * runs in
  let work = jobs * iterations * Exec.compiled_slots compiled in
  let cores = Domain.recommended_domain_count () in
  let fan = min (min 4 cores) jobs in
  let same what (m0, r0) (m1, r1) =
    if
      Mapping.canonical_key m0 <> Mapping.canonical_key m1
      || List.map Int64.bits_of_float r0 <> List.map Int64.bits_of_float r1
    then
      failwith
        (Printf.sprintf "evalrate: %s on %s: %s differs from Driver.conclude" app.App.app_name
           spec what)
  in
  let rep ~oracle =
    let base = seed_counter ev in
    let t0 = now () in
    let shipped = Driver.conclude s o in
    let t1 = now () in
    let leg domains =
      let t0 = now () in
      let pick =
        fastest
          (split_measure sc ~domains ~noise_sigma:0.03 ~iterations ~base ~runs maps)
      in
      let dt = now () -. t0 in
      same (Printf.sprintf "the %d-domain leg" domains) shipped pick;
      dt
    in
    let one = leg 1 in
    let fanned = leg fan in
    if oracle then
      same "the sequential loop" shipped
        (Measure_oracle.final_protocol
           {
             Measure_oracle.scratch = Exec.scratch compiled;
             noise_sigma = 0.03;
             fallback = false;
             iterations = None;
             metric = (fun r -> r.Exec.per_iteration);
           }
           ~base ~final_top:cfg.Driver.final_top ~final_runs:runs (Evaluator.db ev)
           ~search_best:o.Engine.best ~search_perf:o.Engine.perf);
    (one, fanned, t1 -. t0)
  in
  ignore (rep ~oracle:true);
  let times = List.init reps (fun _ -> rep ~oracle:false) in
  let row =
    {
      cr_app = app.App.app_name;
      cr_spec = spec;
      cr_mappings = List.length maps;
      cr_runs = runs;
      cr_work = work;
      cr_rule = Par.domains ~cores ~jobs ~work;
      cr_fan = fan;
      cr_one = median (List.map (fun (a, _, _) -> a) times);
      cr_fanned = median (List.map (fun (_, b, _) -> b) times);
      cr_conclude = median (List.map (fun (_, _, c) -> c) times);
    }
  in
  Printf.printf
    "conclude %-8s %-10s %d x %d runs, %9d instance-runs, k=%d: 1 domain %8.2f ms | %d \
     domains %8.2f ms (%.2fx) | conclude %8.2f ms (bit-equal)\n%!"
    row.cr_app spec row.cr_mappings runs work row.cr_rule (row.cr_one *. 1e3) fan
    (row.cr_fanned *. 1e3) (row.cr_one /. row.cr_fanned) (row.cr_conclude *. 1e3);
  row

type domains_row = {
  dr_app : string;
  dr_spec : string;
  dr_sims : int;        (* per scratch *)
  dr_one : float;       (* seconds, both scratches on the calling domain *)
  dr_two : float option;(* one scratch per domain; None on one core *)
}

(* [sims] quiet simulations per scratch, cycling through seven seeds
   whose streams are already cached: the search's steady state, where
   nothing allocates.  The two-domain leg spawns one domain and joins
   it inside the timed region. *)
let bench_domains (app : App.t) ~spec ~sims ~reps =
  let machine, g = problem app ~spec ~nodes:1 in
  let m = Mapping.default_start g machine in
  let compiled = Exec.compile machine g in
  let scratches = [ Exec.scratch compiled; Exec.scratch compiled ] in
  let sim sc seed =
    if
      Exec.simulate_quiet sc m ~noise_sigma:0.03 ~seed ~fallback:false
        ~iterations:g.Graph.iterations ~cutoff:infinity
      <> Exec.st_finished
    then failwith "evalrate: simulation failed"
  in
  List.iter (fun sc -> for seed = 1 to 7 do sim sc seed done) scratches;
  let job sc () =
    for k = 0 to sims - 1 do
      sim sc (1 + (k mod 7))
    done;
    Exec.quiet_per_iteration sc
  in
  let leg domains =
    let t0 = now () in
    let last = Par.map ~domains (List.map job scratches) in
    (now () -. t0, last)
  in
  let timed domains =
    let runs = List.init reps (fun _ -> leg domains) in
    (median (List.map fst runs), snd (List.hd runs))
  in
  let one, last1 = timed 1 in
  let two =
    if Domain.recommended_domain_count () < 2 then None
    else begin
      let two, last2 = timed 2 in
      if last1 <> last2 then failwith "evalrate: the two-domain leg simulated differently";
      Some two
    end
  in
  (match two with
  | Some two ->
      Printf.printf
        "long-lived domains %-8s %-10s 2 x %d cached runs: 1 domain %.1f ms | 2 domains \
         %.1f ms -> %.2fx\n%!"
        app.App.app_name spec sims (one *. 1e3) (two *. 1e3) (one /. two)
  | None ->
      Printf.printf
        "long-lived domains %-8s %-10s 2 x %d cached runs: 1 domain %.1f ms; 2-domain leg \
         skipped (1 core)\n%!"
        app.App.app_name spec sims (one *. 1e3));
  { dr_app = app.App.app_name; dr_spec = spec; dr_sims = sims; dr_one = one; dr_two = two }

(* A bare Domain.spawn plus join, the fixed price of one fan-out. *)
let spawn_join_cost ~reps =
  ignore (Domain.join (Domain.spawn ignore));
  let t0 = now () in
  for _ = 1 to reps do
    Domain.join (Domain.spawn ignore)
  done;
  (now () -. t0) /. float_of_int reps

let json_rate r =
  Printf.sprintf
    {|{"evals_per_sec": %.2f, "instances_per_sec": %.2f, "evals": %d}|}
    r.evals_per_sec r.instances_per_sec r.evals

let () =
  let machine = Presets.shepard ~nodes:1 in
  let count = if !smoke then 2 else 30 in
  let runs = if !smoke then 1 else 7 in
  let min_time = if !smoke then 0.0 else 1.0 in
  let apps =
    [ (App.stencil, if !smoke then "500x500" else "2000x2000");
      (App.circuit, if !smoke then "n100w400" else "n200w800") ]
  in
  Printf.printf "evalrate: %s mode, %d candidates x %d runs per measurement\n%!"
    (if !smoke then "smoke" else "bench")
    count runs;
  let rows =
    List.map (fun (app, input) -> bench_app app machine ~input ~count ~runs ~min_time) apps
  in
  let reps = if !smoke then 1 else 5 in
  let max_trials = if !smoke then Some 20 else None in
  let lassen_apps = [ App.circuit; App.stencil; App.pennant; App.htr; App.maestro ] in
  let lassen =
    List.map
      (fun app -> bench_conclude app ~spec:"lassen" ~nodes:4 ~max_trials ~reps)
      (if !smoke then [ App.stencil ] else lassen_apps)
  in
  let grids =
    List.concat_map
      (fun spec ->
        List.map
          (fun app -> bench_conclude app ~spec ~nodes:1 ~max_trials ~reps)
          [ App.stencil; App.circuit ])
      (if !smoke then [ "grid:4x4" ] else [ "grid:16x16"; "grid:32x32" ])
  in
  let conclude = lassen @ grids in
  let grid = if !smoke then "grid:4x4" else "grid:32x32" in
  let reps = if !smoke then 1 else 3 in
  let long_lived =
    List.map
      (fun app -> bench_domains app ~spec:grid ~sims:(if !smoke then 10 else 30) ~reps)
      [ App.stencil; App.circuit ]
  in
  let spawn_join = spawn_join_cost ~reps:20 in
  Printf.printf "Domain.spawn + join: %.3f ms\n%!" (spawn_join *. 1e3);
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"bench\": \"evalrate\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"commit\": %S,\n" (git_commit ()));
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n  \"apps\": [\n" !smoke);
  List.iteri
    (fun i row ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"app\": %S, \"input\": %S, \"reference\": %s, \"compiled\": %s, \
            \"speedup\": %.3f}%s\n"
           row.row_app row.row_input (json_rate row.reference) (json_rate row.compiled)
           row.speedup
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  let rows f l = String.concat ",\n" (List.map f l) in
  Buffer.add_string buf
    (Printf.sprintf "  \"conclude\": [\n%s\n  ],\n"
       (rows
          (fun r ->
            Printf.sprintf
              "    {\"app\": %S, \"machine\": %S, \"mappings\": %d, \"runs\": %d, \
               \"instance_runs\": %d, \"rule_domains\": %d, \"fan_domains\": %d, \
               \"one_domain_s\": %.5f, \"fanned_out_s\": %.5f, \"conclude_s\": %.5f, \
               \"speedup\": %.3f, \"bit_equal\": true}"
              r.cr_app r.cr_spec r.cr_mappings r.cr_runs r.cr_work r.cr_rule r.cr_fan r.cr_one
              r.cr_fanned r.cr_conclude (r.cr_one /. r.cr_fanned))
          conclude));
  Buffer.add_string buf
    (Printf.sprintf "  \"long_lived_domains\": [\n%s\n  ],\n"
       (rows
          (fun r ->
            Printf.sprintf
              "    {\"app\": %S, \"machine\": %S, \"sims_per_scratch\": %d, \
               \"one_domain_s\": %.5f, %s}"
              r.dr_app r.dr_spec r.dr_sims r.dr_one
              (match r.dr_two with
              | Some two ->
                  Printf.sprintf "\"two_domains_s\": %.5f, \"speedup\": %.3f" two
                    (r.dr_one /. two)
              | None -> "\"skipped\": true"))
          long_lived));
  Buffer.add_string buf (Printf.sprintf "  \"spawn_join_ms\": %.4f\n" (spawn_join *. 1e3));
  Buffer.add_string buf "}\n";
  let oc = open_out !out_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" !out_file
