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

   Two more sections measure the domain claims of the final protocol,
   on Stencil and Circuit over grid:32x32 (grid:4x4 with --smoke):

     - the final protocol: one mapping x 30 fresh-seed runs through
       Evaluator.measure_objective, whose runs split across the
       machine's domains, and through the sequential record-API loop
       it replaced (Measure_oracle); the two lists must be bit-equal;
     - long-lived domains: cached quiet simulations on two scratches,
       both on the calling domain, then one per domain (one spawn),
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

(* ---- the final protocol across domains ---------------------------- *)

let grid_problem (app : App.t) ~spec =
  let machine =
    match Presets.of_spec spec ~nodes:1 with Ok m -> m | Error e -> failwith e
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

type protocol_row = {
  pr_app : string;
  pr_spec : string;
  pr_runs : int;
  pr_sequential : float;  (* seconds, median over the timed reps *)
  pr_fanned : float;
  pr_domains : int;
}

(* Each timed rep measures under fresh seeds, the way the final
   protocol does; an untimed rep first binds both scratches. *)
let bench_protocol (app : App.t) ~spec ~runs ~reps =
  let machine, g = grid_problem app ~spec in
  let m = Mapping.default_start g machine in
  let ev = Evaluator.create ~seed:1 machine g in
  let cfg =
    {
      Measure_oracle.scratch = Exec.scratch (Exec.compile machine g);
      noise_sigma = 0.03;
      fallback = false;
      iterations = None;
      metric = (fun r -> r.Exec.per_iteration);
    }
  in
  let rep () =
    let base = seed_counter ev in
    let t0 = now () in
    let fanned = Evaluator.measure_objective ev ~runs m in
    let t1 = now () in
    let sequential = Measure_oracle.measure cfg ~base ~runs m in
    let t2 = now () in
    if List.map Int64.bits_of_float fanned <> List.map Int64.bits_of_float sequential then
      failwith
        (Printf.sprintf "evalrate: %s on %s: the fanned-out runs differ from the sequential ones"
           app.App.app_name spec);
    (t2 -. t1, t1 -. t0)
  in
  ignore (rep ());
  let times = List.init reps (fun _ -> rep ()) in
  let row =
    {
      pr_app = app.App.app_name;
      pr_spec = spec;
      pr_runs = runs;
      pr_sequential = median (List.map fst times);
      pr_fanned = median (List.map snd times);
      pr_domains = Par.default_domains runs;
    }
  in
  Printf.printf
    "final protocol %-8s %-10s 1 mapping x %d runs: sequential %.1f ms | %d domains %.1f ms \
     -> %.2fx (bit-equal)\n%!"
    row.pr_app spec runs (row.pr_sequential *. 1e3) row.pr_domains (row.pr_fanned *. 1e3)
    (row.pr_sequential /. row.pr_fanned);
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
  let machine, g = grid_problem app ~spec in
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
  let grid = if !smoke then "grid:4x4" else "grid:32x32" in
  let reps = if !smoke then 1 else 3 in
  let protocol =
    List.map (fun app -> bench_protocol app ~spec:grid ~runs:30 ~reps) [ App.stencil; App.circuit ]
  in
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
    (Printf.sprintf "  \"final_protocol\": [\n%s\n  ],\n"
       (rows
          (fun r ->
            Printf.sprintf
              "    {\"app\": %S, \"machine\": %S, \"runs\": %d, \"domains\": %d, \
               \"sequential_s\": %.5f, \"fanned_out_s\": %.5f, \"speedup\": %.3f, \
               \"bit_equal\": true}"
              r.pr_app r.pr_spec r.pr_runs r.pr_domains r.pr_sequential r.pr_fanned
              (r.pr_sequential /. r.pr_fanned))
          protocol));
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
