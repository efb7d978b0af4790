(* Serve-daemon request-latency benchmark: what does cross-request
   memoization actually buy?

   For each app the same map request is issued three ways against an
   in-process server (no sockets, no domains — Server.step runs the
   slices on this thread, so the numbers isolate the service layer
   from transport and scheduling noise):

   - cold:       first ever request for the workload — compiles the
                 simulation, runs the full sliced search;
   - warm:       the exact same request again — must be answered from
                 the result memo at submit time, bit-equal to cold,
                 with zero slices run.  Measured over many repeats
                 (a single hit is sub-microsecond);
   - warm-start: the same workload under a different seed — misses the
                 memo but seeds its search from the cached incumbent
                 and shares the compiled simulation.

   Hard gates (the bench fails, it does not just report):
   - the warm answer is bit-identical to the cold answer (mapping and
     %h-printed perf) and runs zero slices;
   - warm is at least 50x faster than cold.

   Results go to stdout and BENCH_servrate.json.

   Usage: dune exec bench/servrate.exe [-- --smoke] [-- --out FILE]
     --smoke   two apps, small trial budget (CI rot check)            *)

let out_file = ref "BENCH_servrate.json"
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
        Printf.eprintf "servrate: unknown argument %S\n" unknown;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let now = Unix.gettimeofday

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

type row = {
  row_app : string;
  row_input : string;
  cold_ms : float;
  cold_trials : int;
  warm_us : float;      (* per-request, averaged over warm_reps *)
  warm_reps : int;
  speedup : float;      (* cold / warm *)
  warm_start_ms : float;
  warm_start_trials : int;
  perf_hex : string;
}

let counter resp name =
  match resp with
  | Wire.R_status { counters; _ } -> (
      match List.assoc_opt name counters with
      | Some v -> v
      | None -> failwith ("servrate: missing status counter " ^ name))
  | _ -> failwith "servrate: expected a status response"

let result_of srv id =
  match Server.handle srv (Wire.Poll { p_id = id }) with
  | Wire.R_result p -> p
  | _ -> failwith ("servrate: no result for job " ^ id)

let run_row srv ~max_trials app =
  let name = app.App.app_name in
  let input = match app.App.inputs ~nodes:1 with i :: _ -> i | [] -> "" in
  let workload =
    { Wire.default_workload with Wire.w_app = Some name; w_input = Some input }
  in
  let cfg seed = { Slice.default_cfg with Slice.max_trials = Some max_trials; seed } in
  let submit ?(warm = true) id c =
    Server.handle srv (Wire.Map { m_id = id; workload; cfg = c; wait = false; warm })
  in
  (* cold: submit + run every slice to completion *)
  let t0 = now () in
  (match submit ~warm:false (name ^ "-cold") (cfg 0) with
  | Wire.R_accepted _ -> ()
  | _ -> failwith (name ^ ": cold request not accepted"));
  Server.drain srv;
  let cold_ms = 1e3 *. (now () -. t0) in
  let cold = result_of srv (name ^ "-cold") in
  if cold.Wire.r_state <> Wire.Done then failwith (name ^ ": cold search failed");
  (* warm: the exact repeat, many times; every one must be a memo hit *)
  let slices_before = counter (Server.handle srv Wire.Status) "slices" in
  let warm_reps = 200 in
  let t1 = now () in
  let last = ref None in
  for i = 1 to warm_reps do
    match submit (Printf.sprintf "%s-warm-%d" name i) (cfg 0) with
    | Wire.R_result p -> last := Some p
    | _ -> failwith (name ^ ": warm repeat was not answered immediately")
  done;
  let warm_us = 1e6 *. (now () -. t1) /. float_of_int warm_reps in
  let slices_after = counter (Server.handle srv Wire.Status) "slices" in
  if slices_after <> slices_before then
    failwith (name ^ ": warm repeats ran slices — the memo was not used");
  let warm = Option.get !last in
  if not (warm.Wire.r_cached) then failwith (name ^ ": warm repeat not marked cached");
  if warm.Wire.r_mapping <> cold.Wire.r_mapping || warm.Wire.r_perf_hex <> cold.Wire.r_perf_hex
  then failwith (name ^ ": warm answer differs from cold — memo must be bit-exact");
  let speedup = cold_ms *. 1e3 /. warm_us in
  if speedup < 50.0 then
    failwith
      (Printf.sprintf "%s: warm speedup %.1fx below the 50x gate (cold %.2fms, warm %.1fus)"
         name speedup cold_ms warm_us);
  (* warm-start: same workload, different search identity *)
  let t2 = now () in
  (match submit (name ^ "-near") (cfg 1) with
  | Wire.R_accepted _ -> ()
  | Wire.R_result _ -> failwith (name ^ ": near-repeat unexpectedly hit the memo")
  | _ -> failwith (name ^ ": near-repeat rejected"));
  Server.drain srv;
  let warm_start_ms = 1e3 *. (now () -. t2) in
  let near = result_of srv (name ^ "-near") in
  if near.Wire.r_state <> Wire.Done then failwith (name ^ ": warm-start search failed");
  if not near.Wire.r_warm_started then
    failwith (name ^ ": near-repeat did not warm-start from the incumbent");
  Printf.printf
    "%-8s cold %8.2fms (%d trials) | warm %7.2fus x%d (%.0fx, bit-equal) | warm-start \
     %8.2fms (%d trials)\n%!"
    name cold_ms cold.Wire.r_trials warm_us warm_reps speedup warm_start_ms
    near.Wire.r_trials;
  {
    row_app = name;
    row_input = input;
    cold_ms;
    cold_trials = cold.Wire.r_trials;
    warm_us;
    warm_reps;
    speedup;
    warm_start_ms;
    warm_start_trials = near.Wire.r_trials;
    perf_hex = Option.value ~default:"" cold.Wire.r_perf_hex;
  }

let () =
  let max_trials = if !smoke then 60 else 400 in
  let apps =
    if !smoke then
      List.filter
        (fun a ->
          List.mem (String.lowercase_ascii a.App.app_name) [ "stencil"; "circuit" ])
        App.all
    else App.all
  in
  let srv = Server.create ~slice_trials:40 () in
  Printf.printf "servrate: %d apps, %d trials per search, slice 40 (%s)\n%!"
    (List.length apps) max_trials
    (if !smoke then "smoke" else "full");
  let rows = List.map (run_row srv ~max_trials) apps in
  let status = Server.handle srv Wire.Status in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"bench\": \"servrate\",\n");
  Buffer.add_string buf (Printf.sprintf "  \"commit\": %S,\n" (git_commit ()));
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" !smoke);
  Buffer.add_string buf (Printf.sprintf "  \"max_trials\": %d,\n" max_trials);
  Buffer.add_string buf "  \"apps\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           {|    {"app": %S, "input": %S, "cold_ms": %.3f, "cold_trials": %d, "warm_us": %.3f, "warm_reps": %d, "warm_speedup": %.1f, "warm_bit_equal": true, "warm_start_ms": %.3f, "warm_start_trials": %d, "perf_hex": %S}%s|}
           r.row_app r.row_input r.cold_ms r.cold_trials r.warm_us r.warm_reps
           r.speedup r.warm_start_ms r.warm_start_trials r.perf_hex
           (if i = List.length rows - 1 then "\n" else ",\n"))
      )
    rows;
  Buffer.add_string buf "  ],\n";
  (let geo =
     exp
       (List.fold_left (fun acc r -> acc +. log r.speedup) 0.0 rows
       /. float_of_int (List.length rows))
   in
   Buffer.add_string buf (Printf.sprintf "  \"geomean_warm_speedup\": %.1f,\n" geo));
  Buffer.add_string buf "  \"counters\": {";
  (match status with
  | Wire.R_status { counters; _ } ->
      List.iteri
        (fun i (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s\"%s\": %d" (if i = 0 then "" else ", ") k v))
        counters
  | _ -> ());
  Buffer.add_string buf "}\n}\n";
  let oc = open_out !out_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" !out_file
