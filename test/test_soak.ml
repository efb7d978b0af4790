(* A seeded soak of the serve daemon, in-process as serve-mix drives it
   (Server.handle_line for requests, Server.step for slices), with
   crashes.

   Each seed deals a mix of request lines: valid map, analyze, status
   and result lines, and malformed ones — mutated wire JSON, inline
   graph or machine codec text that cannot parse, and configurations
   out of bounds.  Map lines are cold ([warm] false), so no answer may
   depend on another job's incumbent; about half take a seed of their
   own, and the others repeat an earlier accepted map's workload and
   seed under search settings of their own: jobs that differ only in
   settings, which share nothing but the compiled problem, and, when
   the settings come out the same too, exact repeats, which the memo's
   cold rule lets a finished job answer at once.  Between lines the
   soak runs a few slices, polling every job in flight after each, and
   at random slice boundaries it abandons the server and re-creates it
   from its state directory, as after a SIGKILL.  The crash leaves a
   stray temp file behind, sometimes a truncated checkpoint, and a job
   accepted but never sliced leaves a meta file with no checkpoint.

   The live variant deals the same mix but runs the slices on two
   worker domains (Server.start_workers), as the daemon does, while
   lines keep arriving.  At random points it stops the workers, joins
   them and polls every job in flight; only then does it abandon the
   server and recover a new one, so each job in flight is at a slice
   boundary on disk.  How many slices run between two lines depends
   on timing, so a live seed reproduces its mix, not its
   interleaving.

   Every malformed line must get an error answer, nothing may raise, a
   job whose checkpoint was cut short must fail with an error, and
   every other completed answer must be bit-equal — mapping, perf bits,
   trials — to the same request run alone in a fresh server.  A failure
   names the soak seed that reproduces it. *)

let workloads =
  [|
    { Wire.default_workload with Wire.w_app = Some "stencil"; w_nodes = 1 };
    { Wire.default_workload with Wire.w_app = Some "stencil"; w_nodes = 2 };
    { Wire.default_workload with Wire.w_app = Some "circuit"; w_nodes = 1; w_cluster = "lassen" };
  |]

let algos =
  [|
    Driver.Ccd { rotations = 2 };
    Driver.Cd;
    Driver.Random_walk { max_evals = 30 };
    Driver.Annealing { max_evals = 30 };
    Driver.Ensemble_tuner;
  |]

let pick rng a = a.(Random.State.int rng (Array.length a))

let map_request rng ~id ~workload ~seed =
  Wire.Map
    {
      m_id = id;
      workload;
      cfg =
        {
          Slice.default_cfg with
          Slice.algo = pick rng algos;
          runs = 2;
          seed;
          max_trials = Some (6 + Random.State.int rng 20);
          final_top = 2;
          final_runs = 3;
        };
      wait = false;
      warm = false;
    }

(* Codec text with its header line dropped: every directive then comes
   before the header, which both codecs refuse. *)
let headless text =
  match String.index_opt text '\n' with
  | Some i -> String.sub text (i + 1) (String.length text - i - 1)
  | None -> ""

let bad_graph =
  lazy (headless (Graph_codec.to_string (App.stencil.App.graph ~nodes:1 ~input:"500x500")))

let bad_machine = lazy (headless (Machine_codec.to_string (Presets.shepard ~nodes:1)))

let with_field k v = function
  | Wire.Obj fields -> Wire.Obj (List.remove_assoc k fields @ [ (k, v) ])
  | j -> j

type expect =
  | Accepted of string * (Wire.workload * int)
      (* a valid map: its id, and its workload and seed *)
  | Analysis
  | Status
  | Result of string
  | Error_answer

(* The [k]th line: a valid request, or one the server must refuse.
   [earlier] holds the workload and seed of every map accepted so far. *)
let gen_line rng k ~pending ~earlier =
  let id = Printf.sprintf "j%d" k in
  let identity =
    if earlier <> [] && Random.State.bool rng then pick rng (Array.of_list earlier)
    else (pick rng workloads, 1000 + k)
  in
  let valid_map () = map_request rng ~id ~workload:(fst identity) ~seed:(snd identity) in
  let map_json () = Wire.request_to_json (valid_map ()) in
  let malformed () =
    let line =
      match Random.State.int rng 9 with
      | 0 ->
          (* truncated JSON: the object never closes *)
          let s = Wire.request_to_string (valid_map ()) in
          String.sub s 0 (1 + Random.State.int rng (String.length s - 1))
      | 1 -> Wire.request_to_string (valid_map ()) ^ pick rng [| "}"; " x"; ","; "{}" |]
      | 2 -> Wire.to_string (with_field "type" (Wire.Str "mapp") (map_json ()))
      | 3 ->
          let workload = { (pick rng workloads) with Wire.w_graph = Some (Lazy.force bad_graph) } in
          Wire.request_to_string
            (if Random.State.bool rng then Wire.Analyze { an_id = id; workload }
             else
               match valid_map () with
               | Wire.Map m -> Wire.Map { m with workload }
               | r -> r)
      | 4 ->
          let workload =
            { (pick rng workloads) with Wire.w_machine = Some (Lazy.force bad_machine) }
          in
          Wire.request_to_string (Wire.Analyze { an_id = id; workload })
      | 5 ->
          let k, v =
            pick rng
              [|
                ("runs", Wire.Num 0.0); ("runs", Wire.Num 1001.0); ("final_runs", Wire.Num 0.0);
                ("final_top", Wire.Num 0.0); ("nodes", Wire.Num 0.0); ("nodes", Wire.Num (-2.0));
                ("iterations", Wire.Num 0.0); ("iterations", Wire.Num 1e8);
                ("algo", Wire.Str "ccd:x");
              |]
          in
          Wire.to_string (with_field k v (map_json ()))
      | 6 -> Wire.request_to_string (Wire.Poll { p_id = "ghost" ^ id })
      | 7 ->
          Wire.to_string
            (with_field "id" (Wire.Str (pick rng [| "a/b"; String.make 129 'x'; "" |])) (map_json ()))
      | _ -> (
          (* a second job under an id still in flight *)
          match pending with
          | [] -> "{\"type\":\"map\"}"
          | ids -> Wire.to_string (with_field "id" (Wire.Str (pick rng (Array.of_list ids))) (map_json ())))
    in
    (line, Error_answer)
  in
  match Random.State.int rng 20 with
  | 0 | 1 | 2 | 3 | 4 | 5 -> (Wire.request_to_string (valid_map ()), Accepted (id, identity))
  | 6 | 7 ->
      (Wire.request_to_string (Wire.Analyze { an_id = id; workload = pick rng workloads }), Analysis)
  | 8 -> (Wire.request_to_string Wire.Status, Status)
  | 9 | 10 when pending <> [] ->
      let p = pick rng (Array.of_list pending) in
      (Wire.request_to_string (Wire.Poll { p_id = p }), Result p)
  | _ -> malformed ()

(* [live]: run the slices on two worker domains instead of
   [Server.step]. *)
let soak ~live seed =
  let rng = Random.State.make [| seed |] in
  let fail fmt = QCheck.Test.fail_reportf ("soak seed %d: " ^^ fmt) seed in
  let guard what f =
    try f () with e -> fail "%s raised %s" what (Printexc.to_string e)
  in
  let dir = Fixtures.fresh_dir "automap_soak" in
  let slice_trials = 3 + Random.State.int rng 6 in
  let create () = Server.create ~slice_trials ~state_dir:dir () in
  let srv = ref (create ()) in
  let workers = ref (if live then Server.start_workers !srv 2 else []) in
  let stop_workers () =
    Server.stop !srv;
    let ws = !workers in
    workers := [];
    guard "a worker" (fun () -> List.iter Domain.join ws)
  in
  let pending = ref [] in   (* (id, line) of accepted maps in flight *)
  let earlier = ref [] in   (* (workload, seed) of every accepted map *)
  let answers = ref [] in   (* (id, line, payload) of completed maps *)
  let truncated = ref [] in (* ids whose checkpoint a crash cut short *)
  let poll_pending () =
    pending :=
      List.filter
        (fun (id, line) ->
          let cut = List.mem id !truncated in
          match guard "poll" (fun () -> Server.handle !srv (Wire.Poll { p_id = id })) with
          | Wire.R_result p when p.Wire.r_state = Wire.Done ->
              if cut then fail "%s finished from a truncated checkpoint" id;
              answers := (id, line, p) :: !answers;
              false
          | Wire.R_result p when p.Wire.r_state = Wire.Failed ->
              if not cut then fail "%s failed: %s" id (Option.value p.Wire.r_error ~default:"");
              false
          | Wire.R_result _ -> true
          | r -> fail "poll %s: %s" id (Wire.response_to_string r))
        !pending
  in
  let write path text =
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc
  in
  (* crash leftovers: a stray temp file, and sometimes a job's
     checkpoint cut short — its end marker gone — which must fail that
     job cleanly *)
  let leave_leftovers () =
    write (Filename.concat dir "stray.ckpt.tmp") "automap-checkpoint 1\nalgo";
    let on_disk =
      List.filter
        (fun (id, _) ->
          (not (List.mem id !truncated)) && Sys.file_exists (Filename.concat dir (id ^ ".ckpt")))
        !pending
    in
    if on_disk <> [] && Random.State.int rng 3 = 0 then begin
      let id, _ = pick rng (Array.of_list on_disk) in
      let path = Filename.concat dir (id ^ ".ckpt") in
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      write path (String.sub text 0 (Random.State.int rng (String.length text - 4)));
      truncated := id :: !truncated
    end
  in
  let restart () =
    if live then begin
      stop_workers ();
      poll_pending ()
    end;
    leave_leftovers ();
    srv := create ();
    let n = guard "recover" (fun () -> Server.recover !srv) in
    if n <> List.length !pending then
      fail "recovered %d jobs, %d were in flight" n (List.length !pending);
    if live then workers := Server.start_workers !srv 2
  in
  let slice () =
    if not (guard "step" (fun () -> Server.step !srv)) then
      fail "no slice to run with %d jobs in flight" (List.length !pending);
    poll_pending ();
    if Random.State.int rng 4 = 0 then restart ()
  in
  (* live: let the workers run up to a millisecond, then restart or
     poll *)
  let run_live () =
    Unix.sleepf (Random.State.float rng 0.001);
    if Random.State.int rng 3 = 0 then restart () else poll_pending ()
  in
  Fun.protect ~finally:(fun () ->
      (try stop_workers () with _ -> ());
      Fixtures.remove_dir dir)
  @@ fun () ->
  for k = 1 to 10 + Random.State.int rng 6 do
    let line, expect = gen_line rng k ~pending:(List.map fst !pending) ~earlier:!earlier in
    let resp = guard line (fun () -> Server.handle_line !srv line) in
    (match (expect, resp) with
    | Accepted (id, identity), Wire.R_accepted { a_id } when a_id = id ->
        pending := (id, line) :: !pending;
        earlier := identity :: !earlier
    | Accepted (id, identity), Wire.R_result p
      when p.Wire.r_id = id && p.Wire.r_state = Wire.Done && p.Wire.r_cached ->
        (* an exact repeat of a finished map, answered from the memo *)
        answers := (id, line, p) :: !answers;
        earlier := identity :: !earlier
    | Analysis, Wire.R_analysis { report = _ :: _; _ }
    | Status, Wire.R_status _
    | Error_answer, Wire.R_error _ ->
        ()
    | Result id, Wire.R_result p when p.Wire.r_id = id -> ()
    | _ -> fail "%s answered %s" line (Wire.response_to_string resp));
    if live then run_live ()
    else
      for _ = 1 to min (Random.State.int rng 3) (List.length !pending) do
        slice ()
      done
  done;
  let deadline = Unix.gettimeofday () +. 60.0 in
  while !pending <> [] do
    if not live then slice ()
    else if Unix.gettimeofday () > deadline then
      fail "%d jobs still in flight after 60 s" (List.length !pending)
    else run_live ()
  done;
  if live then stop_workers ();
  List.iter
    (fun (id, line, (p : Wire.result_payload)) ->
      let alone = Server.create () in
      ignore (Server.handle_line alone line);
      Server.drain alone;
      match Server.handle alone (Wire.Poll { p_id = id }) with
      | Wire.R_result q
        when q.Wire.r_state = Wire.Done
             && q.Wire.r_mapping = p.Wire.r_mapping
             && q.Wire.r_perf_hex = p.Wire.r_perf_hex
             && q.Wire.r_trials = p.Wire.r_trials ->
          ()
      | r ->
          fail "%s: soaked %s, alone %s" id
            (Wire.response_to_string (Wire.R_result p))
            (Wire.response_to_string r))
    !answers;
  true

let prop_soak =
  QCheck.Test.make ~count:3
    ~name:"soak: a seeded request mix with restarts answers as fresh single-job servers"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (soak ~live:false)

let prop_soak_live =
  QCheck.Test.make ~count:3
    ~name:"soak: live workers, stopped and joined at random, answer as fresh single-job servers"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (soak ~live:true)

(* Whatever bytes arrive, [handle_line] answers and never raises. *)
let prop_any_bytes =
  QCheck.Test.make ~count:300 ~name:"handle_line answers arbitrary bytes without raising"
    QCheck.(
      oneof
        [
          string;
          map
            (fun (n, tail) ->
              let s = Wire.request_to_string (Wire.Poll { p_id = "j1" }) in
              String.sub s 0 (n mod String.length s) ^ tail)
            (pair small_nat string);
        ])
    (fun line ->
      let srv = Server.create () in
      match Server.handle_line srv line with
      | _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_soak; prop_soak_live; prop_any_bytes ]
