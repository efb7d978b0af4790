(* The serve daemon's core, driven in-process (no domains, no sockets:
   Server.step runs slices deterministically on this thread), proving
   the service guarantees:

   - an exact repeat is answered from the result memo at submit time —
     no slice runs, no simulation — bit-equal to the cold answer;
   - a long search cannot starve a short one (FIFO re-queue between
     slices);
   - a server restarted from its state directory resumes an in-flight
     search decision-identically to an uninterrupted run;
   - a finished job keeps its answer, not its search state;
   - near-repeats warm-start from the cached incumbent, and a cold
     repeat takes a memo entry only when its job was not warm-started;
   - the cache counters surface through the status response. *)

let cfg ?(algo = Driver.Ccd { rotations = 2 }) ?(seed = 0) ~max_trials () =
  {
    Slice.default_cfg with
    Slice.algo;
    runs = 3;
    seed;
    max_trials = Some max_trials;
  }

let stencil ~nodes = { Wire.default_workload with Wire.w_app = Some "stencil"; w_nodes = nodes }

let map_req ?(warm = true) ~id ~cfg workload =
  Wire.Map { m_id = id; workload; cfg; wait = false; warm }

let counters_of = function
  | Wire.R_status { counters; _ } -> counters
  | _ -> Alcotest.fail "expected a status response"

let counter cs name =
  match List.assoc_opt name cs with
  | Some v -> v
  | None -> Alcotest.failf "status counter %s missing" name

let result_of srv id =
  match Server.handle srv (Wire.Poll { p_id = id }) with
  | Wire.R_result p -> p
  | Wire.R_error { message; _ } -> Alcotest.failf "poll %s: %s" id message
  | _ -> Alcotest.fail "expected a result response"

(* ---- warm repeat: memo hit, bit-equal, no search ---------------------- *)

let check_warm_repeat () =
  let srv = Server.create ~slice_trials:20 () in
  let c = cfg ~max_trials:50 () in
  (match Server.handle srv (map_req ~id:"cold" ~cfg:c (stencil ~nodes:1)) with
  | Wire.R_accepted _ -> ()
  | _ -> Alcotest.fail "cold map must be accepted");
  Server.drain srv;
  let cold = result_of srv "cold" in
  Alcotest.(check bool) "cold done" true (cold.Wire.r_state = Wire.Done);
  Alcotest.(check bool) "cold not cached" false cold.Wire.r_cached;
  let slices_before = counter (counters_of (Server.handle srv Wire.Status)) "slices" in
  (* the repeat is answered synchronously at submit — R_result, not
     R_accepted — and runs zero slices, hence zero simulations *)
  let warm =
    match Server.handle srv (map_req ~id:"warm" ~cfg:c (stencil ~nodes:1)) with
    | Wire.R_result p -> p
    | _ -> Alcotest.fail "exact repeat must be answered immediately"
  in
  let slices_after = counter (counters_of (Server.handle srv Wire.Status)) "slices" in
  Alcotest.(check int) "no slice ran for the repeat" slices_before slices_after;
  Alcotest.(check bool) "repeat marked cached" true warm.Wire.r_cached;
  Alcotest.(check (option string)) "same mapping" cold.Wire.r_mapping warm.Wire.r_mapping;
  Alcotest.(check (option string))
    "bit-equal perf" cold.Wire.r_perf_hex warm.Wire.r_perf_hex;
  Alcotest.(check int) "same trial count" cold.Wire.r_trials warm.Wire.r_trials

(* ---- fairness: a long search does not starve a short one -------------- *)

let check_interleaving () =
  let srv = Server.create ~slice_trials:20 () in
  let long =
    map_req ~warm:false ~id:"long"
      ~cfg:(cfg ~algo:(Driver.Random_walk { max_evals = 100000 }) ~max_trials:100000 ())
      (stencil ~nodes:1)
  in
  let short = map_req ~warm:false ~id:"short" ~cfg:(cfg ~max_trials:10 ()) (stencil ~nodes:1) in
  ignore (Server.handle srv long);
  ignore (Server.handle srv short);
  (* slice 1: the long job runs one quantum and re-queues BEHIND the
     short job; slice 2 must therefore be the short job, to completion *)
  Alcotest.(check bool) "slice 1 ran" true (Server.step srv);
  Alcotest.(check bool) "slice 2 ran" true (Server.step srv);
  let s = result_of srv "short" in
  let l = result_of srv "long" in
  Alcotest.(check bool) "short finished" true (s.Wire.r_state = Wire.Done);
  Alcotest.(check bool) "long still in flight" true (l.Wire.r_state <> Wire.Done);
  Alcotest.(check bool) "long made progress" true (l.Wire.r_trials > 0)

(* ---- restart: resume is decision-identical ---------------------------- *)

let check_restart_identity () =
  let c = cfg ~algo:(Driver.Random_walk { max_evals = 150 }) ~max_trials:150 () in
  let req id = map_req ~warm:false ~id ~cfg:c (stencil ~nodes:2) in
  (* interrupted: run two slices, then abandon the server mid-search —
     its state directory is all that survives (as after SIGKILL) *)
  let dir = Fixtures.fresh_dir "automap_serve_test" in
  Fun.protect ~finally:(fun () -> Fixtures.remove_dir dir) @@ fun () ->
  let a = Server.create ~slice_trials:25 ~state_dir:dir () in
  ignore (Server.handle a (req "job"));
  ignore (Server.step a);
  ignore (Server.step a);
  Alcotest.(check bool) "still unfinished when abandoned" true
    ((result_of a "job").Wire.r_state <> Wire.Done);
  (* restart from disk *)
  let b = Server.create ~slice_trials:25 ~state_dir:dir () in
  Alcotest.(check int) "one job recovered" 1 (Server.recover b);
  Server.drain b;
  let resumed = result_of b "job" in
  (* reference: the same request, uninterrupted *)
  let r = Server.create ~slice_trials:25 () in
  ignore (Server.handle r (req "job"));
  Server.drain r;
  let straight = result_of r "job" in
  Alcotest.(check bool) "resumed finished" true (resumed.Wire.r_state = Wire.Done);
  Alcotest.(check (option string))
    "same mapping as uninterrupted" straight.Wire.r_mapping resumed.Wire.r_mapping;
  Alcotest.(check (option string))
    "bit-equal perf" straight.Wire.r_perf_hex resumed.Wire.r_perf_hex;
  Alcotest.(check int) "same trials" straight.Wire.r_trials resumed.Wire.r_trials;
  Alcotest.(check bool) "state files cleaned after completion" true
    (Sys.readdir dir = [||])

(* ---- finished jobs keep their answer, not their search ---------------- *)

(* Jobs that differ only in their final protocol's run count: each is a
   distinct request (the memo keys on the whole config) running the very
   same search, so what the server gains per later job is what a
   finished job keeps.
   That must be its answer — a few hundred words — and not its search,
   whose envelope the server used to keep for the daemon's lifetime. *)
let check_finished_jobs_release () =
  let workload =
    { Wire.default_workload with Wire.w_app = Some "pennant"; w_nodes = 2; w_cluster = "lassen" }
  in
  let job_cfg final_runs = { (cfg ~max_trials:60 ()) with Slice.final_runs } in
  let srv = Server.create ~slice_trials:10 () in
  let run id final_runs =
    ignore (Server.handle srv (map_req ~warm:false ~id ~cfg:(job_cfg final_runs) workload));
    Server.drain srv;
    let p = result_of srv id in
    Alcotest.(check bool) (id ^ " done") true (p.Wire.r_state = Wire.Done)
  in
  let words () = Obj.reachable_words (Obj.repr srv) in
  run "j0" 5;
  let before = words () in
  let n = 4 in
  for i = 1 to n do
    run (Printf.sprintf "j%d" i) (5 + i)
  done;
  let per_job = (words () - before) / n in
  (* the same search's last envelope, as a chain of slices leaves it *)
  let envelope_words =
    let machine = Result.get_ok (Presets.of_spec "lassen" ~nodes:2) in
    let graph =
      App.pennant.App.graph ~nodes:2 ~input:(List.hd (App.pennant.App.inputs ~nodes:2))
    in
    let rec last ckpt = function
      | Slice.Finished _ -> ckpt
      | Slice.Paused p -> (
          match Slice.resume ~slice_trials:10 (job_cfg 5) machine graph ~ckpt:p.Slice.ckpt with
          | Ok (st, _) -> last p.Slice.ckpt st
          | Error e -> Alcotest.failf "Slice.resume: %s" e)
    in
    String.length (last "" (fst (Slice.start ~slice_trials:10 (job_cfg 5) machine graph)))
    / (Sys.word_size / 8)
  in
  if per_job * 4 >= envelope_words then
    Alcotest.failf
      "each finished job grew the server by %d words; its search's last envelope is %d"
      per_job envelope_words

(* ---- warm start for near-repeats -------------------------------------- *)

let check_warm_start () =
  let srv = Server.create ~slice_trials:20 () in
  ignore (Server.handle srv (map_req ~id:"first" ~cfg:(cfg ~max_trials:50 ()) (stencil ~nodes:1)));
  Server.drain srv;
  (* different seed => different memo key, same workload => incumbent *)
  let near = map_req ~id:"near" ~cfg:(cfg ~seed:7 ~max_trials:50 ()) (stencil ~nodes:1) in
  (match Server.handle srv near with
  | Wire.R_accepted _ -> ()
  | Wire.R_result _ -> Alcotest.fail "near-repeat must not hit the result memo"
  | _ -> Alcotest.fail "unexpected response");
  Server.drain srv;
  let p = result_of srv "near" in
  Alcotest.(check bool) "near-repeat done" true (p.Wire.r_state = Wire.Done);
  Alcotest.(check bool) "warm-started from the incumbent" true p.Wire.r_warm_started;
  let cs = counters_of (Server.handle srv Wire.Status) in
  Alcotest.(check bool) "warm_starts counted" true (counter cs "warm_starts" >= 1);
  (* a cold exact repeat of the warm-started job is not answered from
     its memo entry: it runs, and answers as it does alone *)
  let near_cold =
    map_req ~warm:false ~id:"near-cold" ~cfg:(cfg ~seed:7 ~max_trials:50 ()) (stencil ~nodes:1)
  in
  (match Server.handle srv near_cold with
  | Wire.R_accepted _ -> ()
  | Wire.R_result _ -> Alcotest.fail "a cold repeat took a warm job's memo entry"
  | _ -> Alcotest.fail "unexpected response");
  Server.drain srv;
  let alone = Server.create ~slice_trials:20 () in
  ignore (Server.handle alone near_cold);
  Server.drain alone;
  let soaked = result_of srv "near-cold" and single = result_of alone "near-cold" in
  Alcotest.(check (option string)) "cold repeat: alone's mapping" single.Wire.r_mapping
    soaked.Wire.r_mapping;
  Alcotest.(check (option string)) "cold repeat: alone's perf bits" single.Wire.r_perf_hex
    soaked.Wire.r_perf_hex;
  (* a cold-pinned request must not warm-start *)
  (match
     Server.handle srv
       (map_req ~warm:false ~id:"pinned" ~cfg:(cfg ~seed:9 ~max_trials:50 ()) (stencil ~nodes:1))
   with
  | Wire.R_accepted _ -> ()
  | _ -> Alcotest.fail "unexpected response");
  Server.drain srv;
  Alcotest.(check bool) "warm=false stays cold" false
    (result_of srv "pinned").Wire.r_warm_started

(* A warm map that finds no incumbent searches exactly as a cold one
   would, so a cold exact repeat may take its memo entry. *)
let check_cold_repeat_of_unseeded_warm () =
  let c = cfg ~max_trials:50 () in
  let srv = Server.create ~slice_trials:20 () in
  ignore (Server.handle srv (map_req ~id:"warm" ~cfg:c (stencil ~nodes:1)));
  Server.drain srv;
  let warm = result_of srv "warm" in
  Alcotest.(check bool) "warm map done" true (warm.Wire.r_state = Wire.Done);
  Alcotest.(check bool) "no incumbent in a fresh server" false warm.Wire.r_warm_started;
  let cold_req = map_req ~warm:false ~id:"cold" ~cfg:c (stencil ~nodes:1) in
  let cold =
    match Server.handle srv cold_req with
    | Wire.R_result p -> p
    | _ -> Alcotest.fail "a cold repeat of an unseeded warm job must be answered from the memo"
  in
  Alcotest.(check bool) "cold repeat marked cached" true cold.Wire.r_cached;
  let alone = Server.create ~slice_trials:20 () in
  ignore (Server.handle alone cold_req);
  Server.drain alone;
  let single = result_of alone "cold" in
  Alcotest.(check (option string)) "alone's mapping" single.Wire.r_mapping cold.Wire.r_mapping;
  Alcotest.(check (option string)) "alone's perf bits" single.Wire.r_perf_hex
    cold.Wire.r_perf_hex;
  Alcotest.(check int) "alone's trials" single.Wire.r_trials cold.Wire.r_trials

(* ---- counters and analyze --------------------------------------------- *)

let check_counters () =
  let srv = Server.create ~slice_trials:20 () in
  let c = cfg ~max_trials:50 () in
  ignore (Server.handle srv (map_req ~id:"a" ~cfg:c (stencil ~nodes:1)));
  Server.drain srv;
  ignore (Server.handle srv (map_req ~id:"b" ~cfg:c (stencil ~nodes:1)));
  let cs = counters_of (Server.handle srv Wire.Status) in
  Alcotest.(check bool) "compile cache hit across slices" true
    (counter cs "compile_hits" >= 1);
  Alcotest.(check int) "one compile for one workload" 1 (counter cs "compile_misses");
  Alcotest.(check int) "repeat hit the result memo" 1 (counter cs "result_hits");
  Alcotest.(check bool) "compiled problem has weight" true
    (counter cs "resident_bytes" > 0);
  Alcotest.(check int) "no evictions in a small run" 0 (counter cs "evictions")

let check_analyze_and_errors () =
  let srv = Server.create () in
  (match
     Server.handle srv (Wire.Analyze { an_id = "an1"; workload = stencil ~nodes:1 })
   with
  | Wire.R_analysis { ra_id = "an1"; report } ->
      Alcotest.(check bool) "report has lines" true (List.length report > 0)
  | _ -> Alcotest.fail "expected an analysis response");
  (match Server.handle srv (Wire.Poll { p_id = "ghost" }) with
  | Wire.R_error _ -> ()
  | _ -> Alcotest.fail "unknown job must be an error");
  (match
     Server.handle srv
       (Wire.Analyze
          { an_id = "an2"; workload = { (stencil ~nodes:1) with Wire.w_app = Some "nosuch" } })
   with
  | Wire.R_error { message; _ } ->
      Alcotest.(check bool) "names the app" true (Str_helpers.contains message "nosuch")
  | _ -> Alcotest.fail "unknown app must be an error");
  (* the CLI's message: the spec forms, listed by Presets *)
  (match
     Server.handle srv
       (Wire.Analyze
          { an_id = "an3"; workload = { (stencil ~nodes:1) with Wire.w_cluster = "nosuch" } })
   with
  | Wire.R_error { message; _ } ->
      Alcotest.(check bool) "lists the machine specs" true
        (Str_helpers.contains message "presets:")
  | _ -> Alcotest.fail "unknown cluster must be an error");
  (match Server.handle_line srv "{nonsense" with
  | Wire.R_error _ -> ()
  | _ -> Alcotest.fail "unparseable line must be an error");
  (* hostile field values must become error responses, never exceptions
     out of handle (nodes:0 used to raise through Machine.make) *)
  (match
     Server.handle_line srv {|{"type":"map","id":"bad-nodes","app":"stencil","nodes":0}|}
   with
  | Wire.R_error { message; _ } ->
      Alcotest.(check bool) "names nodes" true (Str_helpers.contains message "nodes")
  | _ -> Alcotest.fail "nodes:0 must be a typed error");
  match
    Server.handle_line srv {|{"type":"analyze","id":"neg","app":"stencil","nodes":-3}|}
  with
  | Wire.R_error _ -> ()
  | _ -> Alcotest.fail "negative nodes must be a typed error"

(* ---- the LRU cache underneath ----------------------------------------- *)

let check_cache_lru () =
  let c = Cache.create ~max_entries:2 () in
  Cache.put c "a" 1 ~weight:10;
  Cache.put c "b" 2 ~weight:10;
  ignore (Cache.find c "a");    (* refresh a: b is now LRU *)
  Cache.put c "c" 3 ~weight:10; (* evicts b *)
  Alcotest.(check bool) "a survives (recently used)" true (Cache.mem c "a");
  Alcotest.(check bool) "b evicted (LRU)" false (Cache.mem c "b");
  Alcotest.(check bool) "c resident" true (Cache.mem c "c");
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "resident weight tracked" 20 s.Cache.resident_bytes

let check_cache_weight_cap () =
  let c = Cache.create ~max_entries:100 ~max_bytes:25 () in
  Cache.put c "a" 1 ~weight:10;
  Cache.put c "b" 2 ~weight:10;
  Cache.put c "c" 3 ~weight:10; (* 30 > 25: evict a *)
  Alcotest.(check bool) "oldest evicted for weight" false (Cache.mem c "a");
  Alcotest.(check int) "two resident" 2 (Cache.length c);
  (* a single oversized entry is kept: it must be usable once *)
  Cache.put c "huge" 4 ~weight:1000;
  Alcotest.(check bool) "oversized entry resident" true (Cache.mem c "huge");
  Alcotest.(check int) "alone in the cache" 1 (Cache.length c)

let suite =
  [
    Alcotest.test_case "warm repeat: memo hit, bit-equal, zero slices" `Quick
      check_warm_repeat;
    Alcotest.test_case "a long search does not starve a short one" `Quick
      check_interleaving;
    Alcotest.test_case "restart resumes decision-identically" `Quick
      check_restart_identity;
    Alcotest.test_case "finished jobs keep their answer, not their search" `Quick
      check_finished_jobs_release;
    Alcotest.test_case "near-repeats warm-start from the incumbent" `Quick
      check_warm_start;
    Alcotest.test_case "a cold repeat takes an unseeded warm job's memo entry" `Quick
      check_cold_repeat_of_unseeded_warm;
    Alcotest.test_case "status surfaces the cache counters" `Quick check_counters;
    Alcotest.test_case "analyze inline; errors are typed" `Quick
      check_analyze_and_errors;
    Alcotest.test_case "cache: LRU order and stats" `Quick check_cache_lru;
    Alcotest.test_case "cache: weight cap and oversized entries" `Quick
      check_cache_weight_cap;
  ]
