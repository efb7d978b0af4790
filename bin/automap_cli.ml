(* AutoMap command-line interface.

   Subcommands:
     apps                      -- list the bundled benchmark applications
     analyze                   -- static feasibility report (lint, domains, groups)
     tune                      -- search for a fast mapping and report it
     search                    -- resumable engine search with progress events
     compare                   -- measure default/custom/HEFT/a saved mapping
     simulate                  -- run one mapping and export its execution trace
     serve                     -- mapping-as-a-service daemon (JSON over a socket)
     request                   -- send one request to a running serve daemon

   The workload can be a bundled benchmark (-a/--app with -i/--input)
   or external description files (--graph FILE, and --machine FILE in
   place of the -c preset) as produced by Graph_codec / Machine_codec —
   the §3.3 "search space and machine model representation" input.

   Examples:
     automap_cli profile -a pennant -i 320x90 -o pennant      # emit .tg/.mach
     automap_cli tune -a pennant -i 320x90 -n 1
     automap_cli tune -a htr -i 8x8y9z --algo cd --runs 3 -o mapping.txt
     automap_cli tune --graph app.tg --machine cluster.mach --objective energy
     automap_cli compare -a pennant -i 320x90 -m mapping.txt
     automap_cli simulate -a circuit -i n100w400 --trace trace.json *)

open Cmdliner

(* A bad command-line input: the entry point reports it as a usage
   error, as cmdliner reports its own parse errors. *)
exception Usage of string

let usage fmt = Printf.ksprintf (fun msg -> raise (Usage msg)) fmt

(* A file named on the command line.  Opening names the file in its
   error; reading (a directory, say) does not. *)
let read_input path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e ->
    usage "%s" (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let machine_preset ~cluster ~nodes =
  match Presets.of_spec cluster ~nodes with Ok m -> m | Error e -> usage "%s" e

let app_of name =
  match App.find name with
  | Some app -> app
  | None ->
      usage "unknown application %S (%s)" name
        (String.concat "|" (List.map (fun a -> a.App.app_name) App.all))

(* Resolve the workload: either --graph/--machine files or a bundled
   app on a preset cluster.  Returns (machine, graph, custom mapping
   generator if any). *)
let resolve_workload ~app ~input ~nodes ~cluster ~graph_file ~machine_file =
  let machine =
    match machine_file with
    | Some f -> (
        match Machine_codec.of_string (read_input f) with
        | Ok m -> m
        | Error e -> usage "%s: %s" f e)
    | None -> machine_preset ~cluster ~nodes
  in
  match graph_file with
  | Some f -> (
      match Graph_codec.of_string (read_input f) with
      | Ok g -> (machine, g, None)
      | Error e -> usage "%s: %s" f e)
  | None -> (
      match (app, input) with
      | Some a, Some i ->
          let a = app_of a in
          (* every app refuses an input it cannot parse this way *)
          let g =
            try a.App.graph ~nodes:machine.Machine.nodes ~input:i
            with Invalid_argument e -> usage "%s (inputs: automap_cli apps)" e
          in
          (machine, g, Some a.App.custom)
      | _ -> usage "either --graph FILE or both --app and --input are required")

(* A mapping file named by -m. *)
let read_mapping g file =
  match Codec.of_string g (read_input file) with Ok m -> m | Error e -> usage "%s: %s" file e

let objective_of = function
  | "time" -> None
  | "energy" ->
      Some (fun machine r -> Energy.joules_per_iteration machine Energy.default_power r)
  | "edp" ->
      Some (fun machine r -> Energy.edp_per_iteration machine Energy.default_power r)
  | other -> usage "unknown objective %S (time|energy|edp)" other

let algo_of s = match Driver.algo_of_string s with Ok a -> a | Error e -> usage "%s" e

(* common options *)
let app_arg =
  Arg.(value & opt (some string) None & info [ "a"; "app" ] ~docv:"APP" ~doc:"Bundled application name.")

let input_arg =
  Arg.(value & opt (some string) None & info [ "i"; "input" ] ~docv:"INPUT" ~doc:"Input name (application-specific syntax).")

let nodes_arg =
  Arg.(value & opt int 1 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Machine nodes (ignored with --machine).")

let cluster_arg =
  Arg.(value & opt string "shepard" & info [ "c"; "cluster" ] ~docv:"CLUSTER" ~doc:"Machine preset (shepard, lassen, testbed, cpu_only, headless) or a topology spec (grid:WxH, torus:WxH, fattree:LEVELS:ARITY, direct:N; append :free to disable link contention), e.g. grid:16x16. Topology specs fix the node count, so -n must be 1 (default) or match.")

let graph_file_arg =
  Arg.(value & opt (some string) None & info [ "graph" ] ~docv:"FILE" ~doc:"Task-graph description file (Graph_codec format).")

let machine_file_arg =
  Arg.(value & opt (some string) None & info [ "machine" ] ~docv:"FILE" ~doc:"Machine description file (Machine_codec format).")

let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed.")

(* run counts: a value below 1 is a usage error before any work *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let runs_arg =
  Arg.(value & opt positive_int 7 & info [ "runs" ] ~doc:"Executions per candidate mapping.")

let no_symmetry_arg =
  Arg.(value & flag & info [ "no-symmetry" ] ~doc:"Disable symmetry reduction (on by default): orbit canonicalization of sampled mappings and the engine seen-set that rejects symmetric duplicates of already-evaluated candidates without re-simulating. Symmetry changes the search trajectory, so checkpoints only resume under the flag they were written with.")

let no_dominance_arg =
  Arg.(value & flag & info [ "no-dominance" ] ~doc:"Disable dominance pruning (on by default): processor/memory-kind values the static analysis proves dominated — some surviving value is equal-or-better in every candidate — are dropped from the search domains.")

let apps_cmd =
  let doc = "List the bundled benchmark applications and their inputs." in
  let run () =
    List.iter
      (fun app ->
        Printf.printf "%-8s inputs (1 node): %s\n" app.App.app_name
          (String.concat " " (app.App.inputs ~nodes:1)))
      App.all
  in
  Cmd.v (Cmd.info "apps" ~doc) Term.(const run $ const ())

let tune_cmd =
  let doc = "Search for a fast mapping (offline autotuning, §3.3)." in
  let algo_arg =
    Arg.(value & opt string "ccd" & info [ "algo" ] ~docv:"ALGO" ~doc:"Search algorithm: ccd, cd, ensemble, random, annealing, portfolio, heft (any case). ccd:N sets the rotations (default 5), random:N and annealing:N the evaluation cap (defaults 1000 and 2000).")
  in
  let objective_arg =
    Arg.(value & opt string "time" & info [ "objective" ] ~docv:"OBJ" ~doc:"Metric to minimize: time, energy or edp.")
  in
  let final_runs_arg =
    Arg.(value & opt positive_int 30 & info [ "final-runs" ] ~doc:"Executions per top-5 mapping in the final re-evaluation. These fresh-seed runs are spread across the machine's cores.")
  in
  let budget_arg =
    Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"SECONDS" ~doc:"Virtual search-time budget.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the best mapping to FILE.")
  in
  let extended_arg =
    Arg.(value & flag & info [ "extended" ] ~doc:"Also search the group-task distribution strategy (blocked vs cyclic across nodes).")
  in
  let db_arg =
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE" ~doc:"Profiles-database checkpoint: reloaded before the search if it exists, rewritten afterwards (warm restart across sessions).")
  in
  let run app input nodes cluster graph_file machine_file seed algo objective runs
      final_runs budget output extended db_file no_symmetry no_dominance =
    let machine, g, custom =
      resolve_workload ~app ~input ~nodes ~cluster ~graph_file ~machine_file
    in
    let objective = objective_of objective in
    let db =
      match db_file with
      | Some f when Sys.file_exists f -> (
          match Profiles_db.load g (read_input f) with
          | Ok db ->
              Printf.printf "(warm start: %d mappings reloaded from %s)\n"
                (Profiles_db.size db) f;
              Some db
          | Error e -> usage "%s: %s" f e)
      | _ -> None
    in
    let r =
      Driver.run ~runs ~final_runs ~seed ?budget ?objective ~extended
        ~symmetry:(not no_symmetry) ~dominance:(not no_dominance) ?db (algo_of algo) machine g
    in
    Option.iter
      (fun f ->
        write_file f (Profiles_db.save r.Driver.db);
        Printf.printf "(profiles database saved to %s: %d mappings)\n" f
          (Profiles_db.size r.Driver.db))
      db_file;
    Format.printf "%a@.%a@.@." Machine.pp machine Graph.pp_summary g;
    let describe label mapping =
      match Exec.run ~noise_sigma:0.0 machine g mapping with
      | Ok res ->
          Printf.printf "%-8s %10.4f ms/iter  %8.4f J/iter\n" label
            (res.Exec.per_iteration *. 1e3)
            (Energy.joules_per_iteration machine Energy.default_power res)
      | Error e -> Printf.printf "%-8s %s\n" label (Placement.error_to_string e)
    in
    describe "default" (Mapping.default_start g machine);
    Option.iter (fun c -> describe "custom" (c g machine)) custom;
    describe "automap" r.Driver.best;
    Printf.printf "\nsearch: %d suggested, %d evaluated, %d cache hits, %d invalid, %d OOM\n"
      r.Driver.suggested r.Driver.evaluated r.Driver.cache_hits r.Driver.invalid
      r.Driver.oom;
    Printf.printf "best mapping: %s\n" (Report.placement_summary g r.Driver.best);
    match output with
    | None -> ()
    | Some file ->
        write_file file (Codec.to_string g r.Driver.best);
        Printf.printf "mapping written to %s\n" file
  in
  Cmd.v (Cmd.info "tune" ~doc)
    Term.(
      const run $ app_arg $ input_arg $ nodes_arg $ cluster_arg $ graph_file_arg
      $ machine_file_arg $ seed_arg $ algo_arg $ objective_arg $ runs_arg
      $ final_runs_arg $ budget_arg $ out_arg $ extended_arg $ db_arg
      $ no_symmetry_arg $ no_dominance_arg)

(* minimal JSON string escaping for the --events stream *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no literal for infinities (penalised/pruned proposals) *)
let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let search_cmd =
  let doc =
    "Resumable budget-aware search through the strategy engine: stream progress \
     events, checkpoint periodically, resume a killed run decision-identically."
  in
  let algo_arg =
    Arg.(value & opt string "ccd" & info [ "algo" ] ~docv:"ALGO" ~doc:"Search algorithm: ccd, cd, ensemble, random, annealing, portfolio, heft (any case). ccd:N sets the rotations (default 5), random:N and annealing:N the evaluation cap (defaults 1000 and 2000).")
  in
  let budget_arg =
    Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"SECONDS" ~doc:"Virtual search-time budget.")
  in
  let max_trials_arg =
    Arg.(value & opt (some int) None & info [ "max-trials" ] ~docv:"N" ~doc:"Stop after N evaluated proposals (including the start).")
  in
  let max_wall_arg =
    Arg.(value & opt (some float) None & info [ "max-wall" ] ~docv:"SECONDS" ~doc:"Stop after SECONDS of real elapsed time (resume-aware: carried across checkpoints).")
  in
  let progress_arg =
    Arg.(value & flag & info [ "progress" ] ~doc:"Print each improvement and phase change to stderr as it happens.")
  in
  let events_arg =
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc:"Append every engine event to FILE as JSON lines (eval, improve, phase, checkpoint).")
  in
  let checkpoint_arg =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc:"Write a resumable checkpoint to FILE (atomically) every --checkpoint-every trials.")
  in
  let checkpoint_every_arg =
    Arg.(value & opt int 25 & info [ "checkpoint-every" ] ~docv:"N" ~doc:"Checkpoint interval in evaluated trials.")
  in
  let resume_arg =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc:"Resume from a checkpoint FILE written by the same workload and settings; the search continues decision-identically.")
  in
  let heft_seed_arg =
    Arg.(value & flag & info [ "heft-seed" ] ~doc:"Start the search from the HEFT list schedule instead of the runtime-default mapping.")
  in
  let batch_arg =
    Arg.(value & flag & info [ "batch" ] ~doc:"Rank each task's candidates with an online surrogate cost model (CD/CCD only): the model trains on every exact evaluation, and the search proposes the task's candidates best-predicted-first, one at a time, stopping at the first improvement. A resumed search runs the model exactly when its checkpoint carries one.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the best mapping to FILE.")
  in
  let run app input nodes cluster graph_file machine_file seed algo runs budget
      max_trials max_wall progress events_file checkpoint checkpoint_every resume
      heft_seed batch no_symmetry no_dominance output =
    let machine, g, _ =
      resolve_workload ~app ~input ~nodes ~cluster ~graph_file ~machine_file
    in
    let events_oc = Option.map open_out events_file in
    let emit line = Option.iter (fun oc -> output_string oc line; output_char oc '\n'; flush oc) events_oc in
    let on_event = function
      | Engine.Eval { trial; perf; vt; accepted; _ } ->
          emit
            (Printf.sprintf
               {|{"event":"eval","trial":%d,"perf":%s,"vt":%.17g,"accepted":%b}|}
               trial (json_float perf) vt accepted)
      | Engine.Improve { trial; mapping; perf; vt } ->
          emit
            (Printf.sprintf
               {|{"event":"improve","trial":%d,"perf":%s,"vt":%.17g,"mapping":"%s"}|}
               trial (json_float perf) vt
               (json_escape (Mapping.canonical_key mapping)));
          if progress then
            Printf.eprintf "[trial %6d, vt %8.2fs] best %.4f ms/iter\n%!" trial vt
              (perf *. 1e3)
      | Engine.Phase_change { name } ->
          emit (Printf.sprintf {|{"event":"phase","name":"%s"}|} (json_escape name));
          if progress then Printf.eprintf "[phase] %s\n%!" name
      | Engine.Checkpointed { trial; path } ->
          emit
            (Printf.sprintf {|{"event":"checkpoint","trial":%d,"path":"%s"}|} trial
               (json_escape path));
          if progress then Printf.eprintf "[checkpoint] trial %d -> %s\n%!" trial path
    in
    let symmetry = not no_symmetry in
    let r =
      Driver.run ~runs ~seed ?budget ?max_trials ?max_wall ~heft_seed ~batch ~symmetry
        ~dominance:(not no_dominance) ~on_event ?checkpoint
        ~checkpoint_every ?resume_from:resume (algo_of algo) machine g
    in
    Option.iter close_out events_oc;
    Format.printf "%a@." Driver.pp_result r;
    Printf.printf "engine: %d steps, %d checkpoints written\n" r.Driver.engine_steps
      r.Driver.checkpoints_written;
    if symmetry then
      Printf.printf "symmetry: %d symmetric duplicates skipped without re-simulation\n"
        r.Driver.symmetry_skips;
    (* only a search that ran a model has observations to report *)
    if r.Driver.surrogate_trained > 0 then begin
      Printf.printf "surrogate: %d observations, %d rounds reranked%s\n"
        r.Driver.surrogate_trained r.Driver.surrogate_reranks
        (if Float.is_finite r.Driver.spearman then
           Printf.sprintf ", spearman %.3f" r.Driver.spearman
         else "");
      if progress then
        Printf.eprintf "[surrogate] %d trained, %d reranks\n%!"
          r.Driver.surrogate_trained r.Driver.surrogate_reranks
    end;
    Printf.printf "best mapping: %s\n" (Report.placement_summary g r.Driver.best);
    match output with
    | None -> ()
    | Some file ->
        write_file file (Codec.to_string g r.Driver.best);
        Printf.printf "mapping written to %s\n" file
  in
  Cmd.v (Cmd.info "search" ~doc)
    Term.(
      const run $ app_arg $ input_arg $ nodes_arg $ cluster_arg $ graph_file_arg
      $ machine_file_arg $ seed_arg $ algo_arg $ runs_arg $ budget_arg
      $ max_trials_arg $ max_wall_arg $ progress_arg $ events_arg $ checkpoint_arg
      $ checkpoint_every_arg $ resume_arg $ heft_seed_arg $ batch_arg $ no_symmetry_arg
      $ no_dominance_arg $ out_arg)

let analyze_cmd =
  let doc =
    "Statically analyze a (machine, graph) pair before searching: machine lint, \
     per-coordinate feasible domains, co-location constraint groups and \
     mapping-independent lower-bound floors (§4.2).  Exits non-zero when the \
     input is certifiably infeasible (error-level diagnostics), or — with \
     --strict — when any warning is present."
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as a JSON object instead of text.")
  in
  let strict_arg =
    Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as errors: exit non-zero if any warning-level diagnostic is present.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the report to FILE instead of stdout.")
  in
  let rotations_arg =
    Arg.(value & opt int 5 & info [ "rotations" ] ~docv:"N" ~doc:"CCD rotation count for the co-location group schedule.")
  in
  let run app input nodes cluster graph_file machine_file json strict output rotations =
    let machine, g, _ =
      resolve_workload ~app ~input ~nodes ~cluster ~graph_file ~machine_file
    in
    let a = Analysis.analyze ~rotations machine g in
    let text =
      if json then Analysis.to_json a else Format.asprintf "%a" Analysis.report a
    in
    (match output with
    | None -> print_string text
    | Some f ->
        write_file f text;
        Printf.printf "report written to %s\n" f);
    let n_errors = List.length (Analysis.errors a) in
    let n_warnings = List.length (Analysis.warnings a) in
    if n_errors > 0 then exit 1;
    if strict && n_warnings > 0 then begin
      Printf.eprintf "analyze: --strict and %d warning(s) present\n" n_warnings;
      exit 1
    end
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const run $ app_arg $ input_arg $ nodes_arg $ cluster_arg $ graph_file_arg
      $ machine_file_arg $ json_arg $ strict_arg $ out_arg $ rotations_arg)

let compare_cmd =
  let doc = "Measure the default, custom, HEFT and (optionally) a saved mapping." in
  let mapping_arg =
    Arg.(value & opt (some string) None & info [ "m"; "mapping" ] ~docv:"FILE" ~doc:"Mapping file produced by tune -o.")
  in
  let run app input nodes cluster graph_file machine_file seed mapping_file =
    let machine, g, custom =
      resolve_workload ~app ~input ~nodes ~cluster ~graph_file ~machine_file
    in
    let file = Option.map (read_mapping g) mapping_file in
    let measure label mapping =
      match Automap_api.measure_mapping ~seed machine g mapping with
      | v -> Printf.printf "%-8s %10.4f ms/iter\n" label (v *. 1e3)
      | exception Failure e -> Printf.printf "%-8s failed: %s\n" label e
    in
    measure "default" (Mapping.default_start g machine);
    Option.iter (fun c -> measure "custom" (c g machine)) custom;
    measure "heft" (Heft.mapping machine g);
    Option.iter (measure "file") file
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const run $ app_arg $ input_arg $ nodes_arg $ cluster_arg $ graph_file_arg
      $ machine_file_arg $ seed_arg $ mapping_arg)

let simulate_cmd =
  let doc = "Execute one mapping in the simulator; optionally export its trace." in
  let mapping_arg =
    Arg.(value & opt (some string) None & info [ "m"; "mapping" ] ~docv:"FILE" ~doc:"Mapping file (default: the runtime default mapping).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Write a Chrome trace-event JSON of the run.")
  in
  let gantt_arg =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart of the run.")
  in
  let run app input nodes cluster graph_file machine_file seed mapping_file trace_file
      gantt =
    let machine, g, _ =
      resolve_workload ~app ~input ~nodes ~cluster ~graph_file ~machine_file
    in
    let mapping =
      match mapping_file with
      | None -> Mapping.default_start g machine
      | Some file -> read_mapping g file
    in
    let collector = Trace.create () in
    match Exec.run ~noise_sigma:0.0 ~seed ~trace:collector machine g mapping with
    | Error e -> failwith (Placement.error_to_string e)
    | Ok r ->
        Printf.printf "makespan %.4f ms (%.4f ms/iter), %d copies, %.3f MB moved\n"
          (r.Exec.makespan *. 1e3)
          (r.Exec.per_iteration *. 1e3)
          r.Exec.n_copies (r.Exec.bytes_moved /. 1e6);
        Printf.printf "energy %.4f J/iter\n"
          (Energy.joules_per_iteration machine Energy.default_power r);
        if gantt then print_string (Trace.gantt collector);
        Option.iter
          (fun f ->
            write_file f (Trace.to_chrome_json collector);
            Printf.printf "trace written to %s (load in chrome://tracing)\n" f)
          trace_file
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ app_arg $ input_arg $ nodes_arg $ cluster_arg $ graph_file_arg
      $ machine_file_arg $ seed_arg $ mapping_arg $ trace_arg $ gantt_arg)

let profile_cmd =
  let doc =
    "Run the application once and emit the search-space input files (§3.3): the \
     task-graph and machine descriptions plus the measured per-task profile."
  in
  let out_arg =
    Arg.(value & opt string "profile_out" & info [ "o"; "output" ] ~docv:"PREFIX" ~doc:"Output prefix: writes PREFIX.tg, PREFIX.mach and PREFIX.profile.")
  in
  let run app input nodes cluster graph_file machine_file seed prefix =
    ignore seed;
    let machine, g, _ =
      resolve_workload ~app ~input ~nodes ~cluster ~graph_file ~machine_file
    in
    (* one profiling run under the runtime-default strategy *)
    let default = Mapping.default_start g machine in
    let profile = Exec.profile machine g default in
    write_file (prefix ^ ".tg") (Graph_codec.to_string g);
    write_file (prefix ^ ".mach") (Machine_codec.to_string machine);
    let buf = Buffer.create 256 in
    Buffer.add_string buf "# per-task seconds under the default mapping\n";
    List.iter
      (fun (tid, s) ->
        Buffer.add_string buf
          (Printf.sprintf "%s %.17g\n" (Graph.task g tid).Graph.tname s))
      profile;
    write_file (prefix ^ ".profile") (Buffer.contents buf);
    Printf.printf "wrote %s.tg, %s.mach, %s.profile\n" prefix prefix prefix;
    Printf.printf "tune it with: automap_cli tune --graph %s.tg --machine %s.mach\n"
      prefix prefix
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ app_arg $ input_arg $ nodes_arg $ cluster_arg $ graph_file_arg
      $ machine_file_arg $ seed_arg $ out_arg)

(* common endpoint options for serve / request *)
let socket_arg =
  Arg.(value & opt string "automap.sock" & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path (ignored with --port).")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc:"Listen/connect on loopback TCP PORT instead of a Unix socket.")

let endpoint_of ~socket ~port =
  match port with Some p -> Server.Tcp p | None -> Server.Unix_path socket

let serve_cmd =
  let doc =
    "Run the mapping service: a daemon answering concurrent map/analyze requests \
     as JSON lines over a socket.  Searches are time-sliced across a worker pool \
     (fair scheduling — a long search never starves a short request) and memoized \
     across requests: compiled simulations and finished results are shared, and \
     a new search on a known workload starts from the best mapping found for it \
     so far unless its request says \"warm\": false.  With --state-dir, SIGTERM \
     checkpoints every in-flight search and a restarted daemon resumes them \
     decision-identically."
  in
  let workers_arg =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc:"Worker domains running search slices. A search's final protocol spreads its fresh-seed runs across the machine's cores, so each worker may add domains of its own while it concludes a job.")
  in
  let slice_arg =
    Arg.(value & opt int 40 & info [ "slice-trials" ] ~docv:"N" ~doc:"Scheduling quantum: evaluated trials per slice before a search re-queues.")
  in
  let state_dir_arg =
    Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc:"Persist job metadata and per-slice checkpoints under DIR; on startup, orphaned jobs found there are resumed.")
  in
  let run socket port workers slice_trials state_dir =
    let srv = Server.create ~slice_trials ?state_dir () in
    let recovered = Server.recover srv in
    if recovered > 0 then Printf.printf "recovered %d in-flight job(s)\n" recovered;
    (match port with
    | Some p -> Printf.printf "listening on tcp 127.0.0.1:%d\n%!" p
    | None -> Printf.printf "listening on %s\n%!" socket);
    Server.serve ~workers srv (endpoint_of ~socket ~port);
    Printf.printf "daemon stopped\n"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ port_arg $ workers_arg $ slice_arg $ state_dir_arg)

let request_cmd =
  let doc =
    "Send one JSON request line to a running serve daemon and print the JSON \
     response.  The request is validated locally before sending.  Examples: \
     '{\"type\":\"ping\"}', '{\"type\":\"map\",\"id\":\"j1\",\"app\":\"stencil\",\
     \"nodes\":2,\"max_trials\":200,\"wait\":true}', \
     '{\"type\":\"result\",\"id\":\"j1\"}', '{\"type\":\"status\"}'."
  in
  let request_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JSON" ~doc:"The request object, as one line of JSON.")
  in
  let die fmt = Printf.ksprintf (fun m -> prerr_endline ("request: " ^ m); exit 1) fmt in
  let run socket port request =
    (match Wire.request_of_string request with
    | Ok _ -> ()
    | Error e -> die "bad request: %s" e);
    let fd =
      try
        match port with
        | Some p ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
            fd
        | None ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket);
            fd
      with Unix.Unix_error (e, _, _) ->
        die "cannot connect to the daemon: %s" (Unix.error_message e)
    in
    let oc = Unix.out_channel_of_descr fd in
    let ic = Unix.in_channel_of_descr fd in
    output_string oc request;
    output_char oc '\n';
    flush oc;
    (match input_line ic with
    | line -> print_endline line
    | exception End_of_file -> die "connection closed without a response");
    Unix.close fd
  in
  Cmd.v (Cmd.info "request" ~doc) Term.(const run $ socket_arg $ port_arg $ request_arg)

let () =
  let doc = "AutoMap: automated mapping of task-based programs" in
  let info = Cmd.info "automap_cli" ~doc in
  let cmd =
    Cmd.group info
      [
        apps_cmd;
        analyze_cmd;
        tune_cmd;
        search_cmd;
        compare_cmd;
        simulate_cmd;
        profile_cmd;
        serve_cmd;
        request_cmd;
      ]
  in
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Usage msg ->
        prerr_endline ("automap_cli: " ^ msg);
        Cmd.Exit.cli_error
    | exception e ->
        Printf.eprintf "automap_cli: internal error, uncaught exception:\n%s\n%s%!"
          (Printexc.to_string e) (Printexc.get_backtrace ());
        Cmd.Exit.internal_error)
