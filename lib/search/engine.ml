type hint = { bound : float option; overhead : float }

let unbounded = { bound = None; overhead = 0.0 }

type step =
  | Propose of Mapping.t * hint
  | Phase of string
  | Stop

type ctx = { trials : int; vt : float; best : Mapping.t * float }

type strategy = {
  name : string;
  init : Mapping.t * float -> unit;
  step : ctx -> step;
  receive : Mapping.t -> float -> bool;
  encode : unit -> string list;
}

type event =
  | Eval of { trial : int; mapping : Mapping.t; perf : float; vt : float; accepted : bool }
  | Improve of { trial : int; mapping : Mapping.t; perf : float; vt : float }
  | Phase_change of { name : string }
  | Checkpointed of { trial : int; path : string }

type checkpoint_cfg = { every : int; path : string }

type carry = {
  c_trials : int;
  c_steps : int;
  c_wall : float;
  c_best : Mapping.t * float;
}

type outcome = {
  best : Mapping.t;
  perf : float;
  trials : int;
  steps : int;
  checkpoints_written : int;
}

(* ---- checkpoint envelope ------------------------------------------------ *)

type snapshot = {
  s_algo : string;
  s_fingerprint : string;
  s_trials : int;
  s_steps : int;
  s_wall : float;
  s_best_key : string;
  s_best_perf : float;
  s_strategy : string list;
  s_evaluator : string list;
  s_profiles : string;
  s_surrogate : string list;  (* empty: no surrogate ran (or pre-section envelope) *)
  s_symmetry : string list;   (* empty: no seen-set ran (or pre-section envelope) *)
}

let magic = "automap-checkpoint 1"

(* ---- canonical seen-set -------------------------------------------------
   One entry per orbit-canonical mapping key.  An entry [(v, be)] means
   the canonical representative was evaluated under bound [be]
   (infinity when unbounded):

   - [v < be]: the evaluation completed, [v] is the exact value;
   - [v >= be]: the evaluation was cut, [v] only certifies "no better
     than [be]".

   A candidate proposed under bound [b] is answered from the memo only
   when the entry certifies rejection — exact with [v >= b], or cut
   with [b <= be].  A twin whose memoized value could win (or whose
   cut certificate is too weak for the current bound) evaluates
   normally, so skips never substitute a twin's value for an
   acceptance: twins share the noise-free static cost bit-for-bit, but
   the simulated makespan can differ by dispatch tie order, and the
   engine's best must only ever point at truly evaluated mappings. *)

type seen = {
  canon : Mapping.t -> Mapping.t;
  tbl : (string, float * float) Hashtbl.t;
}

let seen_create canon = { canon; tbl = Hashtbl.create 256 }
let seen_size sn = Hashtbl.length sn.tbl

(* A proposal's seen-set key and its evaluator key: one string, built
   once, when the canonicalizer returns the candidate itself. *)
let seen_keys sn m =
  let c = sn.canon m in
  let k = Mapping.canonical_key c in
  (k, if c == m then k else Mapping.canonical_key m)

let seen_record sn key v be =
  match Hashtbl.find_opt sn.tbl key with
  | Some (v0, be0) when v0 < be0 -> ()            (* exact entry: keep *)
  | Some (_, be0) when v >= be && be <= be0 -> () (* no stronger a cut *)
  | _ -> Hashtbl.replace sn.tbl key (v, be)

let seen_skippable sn key b =
  match Hashtbl.find_opt sn.tbl key with
  | Some (v, be) when (if v < be then v >= b else b <= be) -> Some v
  | _ -> None

let seen_save sn =
  Hashtbl.fold
    (fun k (v, be) acc -> Printf.sprintf "%s %h %h" k v be :: acc)
    sn.tbl []
  |> List.sort compare

let seen_restore sn lines =
  let err = Error "Engine.seen_restore: bad seen line" in
  List.fold_left
    (fun acc l ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match String.split_on_char ' ' l |> List.filter (( <> ) "") with
          | [ k; v; be ] -> (
              match (float_of_string_opt v, float_of_string_opt be) with
              | Some v, Some be ->
                  Hashtbl.replace sn.tbl k (v, be);
                  Ok ()
              | _ -> err)
          | _ -> err))
    (Ok ()) lines

let checkpoint_string ?surrogate ?seen ev strat ~trials ~steps ~wall ~best =
  let bm, bp = best in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let section name lines =
    line "%s %d" name (List.length lines);
    List.iter (fun l -> line "%s" l) lines
  in
  line "%s" magic;
  line "algo %s" strat.name;
  line "fingerprint %s" (Evaluator.fingerprint ev);
  line "engine %d %d %h" trials steps wall;
  line "best %h %s" bp (Mapping.canonical_key bm);
  section "strategy" (strat.encode ());
  section "evaluator" (Evaluator.save_state ev);
  section "profiles"
    (String.split_on_char '\n' (Profiles_db.save (Evaluator.db ev))
    |> List.filter (( <> ) ""));
  (* optional trailing sections: absent when no surrogate/seen-set ran,
     so plain checkpoints stay byte-compatible with readers and writers
     that predate them *)
  (match surrogate with
  | None -> ()
  | Some sg -> section "surrogate" (Surrogate.save sg));
  (match seen with
  | None -> ()
  | Some sn -> section "symmetry" (seen_save sn));
  line "end";
  Buffer.contents buf

let snapshot_of_string s =
  let fail fmt = Printf.ksprintf (fun m -> Error ("Engine.snapshot_of_string: " ^ m)) fmt in
  let lines = String.split_on_char '\n' s in
  (* a trailing newline yields one empty trailing element; drop blanks at
     the end only — blob lines themselves are never empty *)
  let rec drop_trailing = function
    | [ "" ] -> []
    | [] -> []
    | l :: rest -> l :: drop_trailing rest
  in
  let lines = drop_trailing lines in
  let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let int_of s = int_of_string_opt s in
  let float_of s = float_of_string_opt s in
  let take_section tag = function
    | l :: rest -> (
        match words l with
        | [ w; n ] when w = tag -> (
            match int_of n with
            | Some n when n >= 0 && n <= List.length rest ->
                let rec split k acc rest =
                  if k = 0 then Ok (List.rev acc, rest)
                  else match rest with
                    | l :: rest -> split (k - 1) (l :: acc) rest
                    | [] -> fail "truncated %s section" tag
                in
                split n [] rest
            | _ -> fail "bad %s count" tag)
        | _ -> fail "expected %s section" tag)
    | [] -> fail "missing %s section" tag
  in
  match lines with
  | m :: algo :: fp :: engine :: best :: rest when m = magic -> (
      let ( let* ) = Result.bind in
      let* s_algo =
        match words algo with [ "algo"; a ] -> Ok a | _ -> fail "bad algo line"
      in
      let* s_fingerprint =
        match String.index_opt fp ' ' with
        | Some i when String.sub fp 0 i = "fingerprint" ->
            Ok (String.sub fp (i + 1) (String.length fp - i - 1))
        | _ -> fail "bad fingerprint line"
      in
      let* s_trials, s_steps, s_wall =
        match words engine with
        | [ "engine"; t; st; w ] -> (
            match (int_of t, int_of st, float_of w) with
            | Some t, Some st, Some w -> Ok (t, st, w)
            | _ -> fail "bad engine line")
        | _ -> fail "bad engine line"
      in
      let* s_best_perf, s_best_key =
        match words best with
        | [ "best"; p; k ] -> (
            match float_of p with Some p -> Ok (p, k) | None -> fail "bad best perf")
        | _ -> fail "bad best line"
      in
      let* s_strategy, rest = take_section "strategy" rest in
      let* s_evaluator, rest = take_section "evaluator" rest in
      let* s_profiles_lines, rest = take_section "profiles" rest in
      (* optional sections, recognized by their header word *)
      let take_optional tag rest =
        match rest with
        | l :: _ when (match words l with [ w; _ ] -> w = tag | _ -> false) ->
            take_section tag rest
        | _ -> Ok ([], rest)
      in
      let* s_surrogate, rest = take_optional "surrogate" rest in
      let* s_symmetry, rest = take_optional "symmetry" rest in
      match rest with
      | [ "end" ] ->
          Ok
            {
              s_algo;
              s_fingerprint;
              s_trials;
              s_steps;
              s_wall;
              s_best_key;
              s_best_perf;
              s_strategy;
              s_evaluator;
              s_profiles = String.concat "\n" s_profiles_lines;
              s_surrogate;
              s_symmetry;
            }
      | _ -> fail "missing end marker")
  | _ -> fail "bad magic"

let write_file path contents =
  (* atomic-enough: never leave a half-written checkpoint under [path] *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents);
  Sys.rename tmp path

let load_snapshot path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error ("Engine.load_snapshot: " ^ e)
  | s -> snapshot_of_string s

(* ---- the one trial loop ------------------------------------------------- *)

let run ?(budget = Budget.unlimited) ?(on_event = fun _ -> ()) ?checkpoint ?carry
    ?surrogate ?seen ~start ev strat =
  (match checkpoint with
  | Some { every; _ } when every <= 0 ->
      invalid_arg "Engine.run: checkpoint interval must be positive"
  | _ -> ());
  (* the surrogate trains from the event bus: every exact evaluation is
     one SGD observation, every accepted mapping the new diff reference
     — all strategies and algorithms feed it for free *)
  let on_event =
    match surrogate with
    | None -> on_event
    | Some sg ->
        fun e ->
          (match e with
          | Eval { mapping; perf; accepted; _ } ->
              Surrogate.observe sg mapping perf;
              if accepted then Surrogate.note_incumbent sg mapping
          | _ -> ());
          on_event e
  in
  let t0 = Unix.gettimeofday () in
  let trials = ref 0 in
  let steps = ref 0 in
  let checkpoints = ref 0 in
  let wall0 = ref 0.0 in
  let best = ref (start, infinity) in
  (* evaluate a proposal and memo its value in the seen-set, if any *)
  let evaluate ?bound keys m =
    match (seen, keys) with
    | Some sn, Some (k, ek) ->
        let v = Evaluator.eval_keyed ?bound ev ek m in
        seen_record sn k v (Option.value bound ~default:infinity);
        v
    | _ -> Evaluator.evaluate ?bound ev m
  in
  (match carry with
  | None ->
      (* the start point is trial 1: evaluated unbounded and handed to
         the strategy as the first incumbent, exactly as every legacy
         loop opened *)
      let p0 = evaluate (Option.map (fun sn -> seen_keys sn start) seen) start in
      strat.init (start, p0);
      best := (start, p0);
      trials := 1;
      let vt = Evaluator.virtual_time ev in
      on_event (Eval { trial = 1; mapping = start; perf = p0; vt; accepted = true });
      on_event (Improve { trial = 1; mapping = start; perf = p0; vt })
  | Some c ->
      (* resumed run: the evaluator and strategy were restored by the
         caller; no start evaluation, no init *)
      trials := c.c_trials;
      steps := c.c_steps;
      wall0 := c.c_wall;
      best := c.c_best);
  let wall () = !wall0 +. (Unix.gettimeofday () -. t0) in
  let maybe_checkpoint () =
    match checkpoint with
    | Some { every; path } when !trials mod every = 0 ->
        write_file path
          (checkpoint_string ?surrogate ?seen ev strat ~trials:!trials
             ~steps:!steps ~wall:(wall ()) ~best:!best);
        incr checkpoints;
        on_event (Checkpointed { trial = !trials; path })
    | _ -> ()
  in
  let exhausted () =
    Budget.exhausted budget ~trials:!trials ~vt:(Evaluator.virtual_time ev)
      ~wall:(wall ())
  in
  (* One proposal, evaluated under [hint] (or answered from the
     seen-set) and handed to [receive]. *)
  let propose candidate hint =
    let keys = Option.map (fun sn -> seen_keys sn candidate) seen in
    let memo =
      match (seen, keys, hint.bound) with
      | Some sn, Some (k, _), Some b -> seen_skippable sn k b
      | _ -> None
    in
    match memo with
    | Some v ->
        (* a symmetric twin's recorded value certifies rejection at
           this bound: answer from the memo — no evaluation, no trial,
           no event, no clock charge.  [receive] is expected to reject
           (v >= bound); a strategy that still accepts (e.g. a
           Metropolis draw) moves its own incumbent, but the engine's
           best never moves on a memoized value. *)
        Evaluator.note_symmetry_skip ev;
        ignore (strat.receive candidate v : bool)
    | None ->
        if hint.overhead > 0.0 then Evaluator.note_suggestion_overhead ev hint.overhead;
        let perf = evaluate ?bound:hint.bound keys candidate in
        incr trials;
        let accepted = strat.receive candidate perf in
        let vt = Evaluator.virtual_time ev in
        let improved = perf < snd !best in
        if improved then best := (candidate, perf);
        on_event (Eval { trial = !trials; mapping = candidate; perf; vt; accepted });
        if improved then on_event (Improve { trial = !trials; mapping = candidate; perf; vt });
        maybe_checkpoint ()
  in
  let stop = ref false in
  while not (!stop || exhausted ()) do
    incr steps;
    match strat.step { trials = !trials; vt = Evaluator.virtual_time ev; best = !best } with
    | Stop -> stop := true
    | Phase name -> on_event (Phase_change { name })
    | Propose (candidate, hint) -> propose candidate hint
  done;
  let bm, bp = !best in
  {
    best = bm;
    perf = bp;
    trials = !trials;
    steps = !steps;
    checkpoints_written = !checkpoints;
  }
