(* The strategy-engine contract: (1) every algorithm driven through
   Search.Engine is decision-identical to its frozen pre-engine loop
   (Legacy_ref) — same best mapping, bit-equal performance, identical
   evaluator decision counters and bit-equal virtual time; (2) a search
   checkpointed at trial k, killed and resumed replays the exact same
   accept/reject sequence and lands on the same best as an
   uninterrupted run; (3) budget semantics and the event bus behave as
   documented. *)

let machine () = Fixtures.default_machine ()

let make_ev ?(runs = 2) m g = Evaluator.create ~runs ~noise_sigma:0.0 ~seed:1 m g

(* every decision-relevant evaluator counter; Exec-level perf counters
   are deliberately excluded (incumbent pinning may shift cache
   internals without changing any result) *)
type counters = {
  suggested : int;
  evaluated : int;
  cache_hits : int;
  invalid : int;
  oom : int;
  cut_evals : int;
  cut_runs : int;
  cut_sims : int;
  noop : int;
  dead : int;
  vt_bits : int64;
}

let counters ev =
  {
    suggested = Evaluator.suggested ev;
    evaluated = Evaluator.evaluated ev;
    cache_hits = Evaluator.cache_hits ev;
    invalid = Evaluator.invalid_count ev;
    oom = Evaluator.oom_count ev;
    cut_evals = Evaluator.cut_evals ev;
    cut_runs = Evaluator.cut_runs ev;
    cut_sims = Evaluator.cut_sims ev;
    noop = Evaluator.noop_skips ev;
    dead = Evaluator.dead_coord_skips ev;
    vt_bits = Int64.bits_of_float (Evaluator.virtual_time ev);
  }

let check_equiv name (m1, p1) ev1 (m2, p2) ev2 =
  Alcotest.(check bool) (name ^ ": same best mapping") true (Mapping.equal m1 m2);
  Alcotest.(check bool)
    (name ^ ": bit-equal best perf")
    true
    (Int64.bits_of_float p1 = Int64.bits_of_float p2);
  Alcotest.(check bool) (name ^ ": identical counters") true (counters ev1 = counters ev2)

let equiv_case name legacy modern () =
  let g, _, _ = Fixtures.shared_halo () in
  let m = machine () in
  let ev1 = make_ev m g and ev2 = make_ev m g in
  check_equiv name (legacy ev1) ev1 (modern ev2) ev2

let test_equiv_cd =
  equiv_case "cd" (fun ev -> Legacy_ref.cd_search ev) (fun ev -> Fixtures.search ev (Cd.make ev))

let test_equiv_ccd =
  equiv_case "ccd"
    (fun ev -> Legacy_ref.ccd_search ~rotations:5 ev)
    (fun ev -> Fixtures.search ev (Ccd.make ~rotations:5 ev))

let test_equiv_ccd_budget =
  (* truncation: the engine's per-step budget check must cut the search
     at exactly the same decision as the legacy interleaved should_stop *)
  equiv_case "ccd budget"
    (fun ev -> Legacy_ref.ccd_search ~rotations:3 ~budget:0.005 ev)
    (fun ev -> Fixtures.search ~budget:0.005 ev (Ccd.make ~rotations:3 ev))

let test_equiv_annealing =
  equiv_case "annealing"
    (fun ev -> Legacy_ref.annealing_search ~seed:11 ~max_evals:300 ev)
    (fun ev -> Fixtures.search ev (Annealing.make ~seed:11 ~max_evals:300 ev))

let test_equiv_random =
  equiv_case "random"
    (fun ev -> Legacy_ref.random_search ~seed:7 ~max_evals:300 ev)
    (fun ev -> Fixtures.search ev (Random_search.make ~seed:7 ~max_evals:300 ev))

let test_equiv_ensemble =
  let config = { Ensemble.default_config with max_suggestions = 200; seed = 5 } in
  equiv_case "ensemble"
    (fun ev -> Legacy_ref.ensemble_search ~config ev)
    (fun ev -> Fixtures.search ev (Ensemble.make ~config ev))

let test_equiv_portfolio =
  equiv_case "portfolio"
    (fun ev -> Legacy_ref.portfolio_search ~budget:0.05 ~seed:3 ev)
    (fun ev -> Fixtures.search ev (Portfolio.make ~budget:0.05 ~seed:3 ev))

let test_equiv_ccd_app () =
  (* same contract on a real application *)
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let ev1 = make_ev m g and ev2 = make_ev m g in
  check_equiv "ccd stencil"
    (Legacy_ref.ccd_search ~rotations:5 ev1)
    ev1
    (Fixtures.search ev2 (Ccd.make ~rotations:5 ev2))
    ev2

(* ---- budget semantics ---------------------------------------------- *)

let test_budget_semantics () =
  let b = Budget.make ~max_trials:10 ~max_virtual:1.0 ~max_wall:5.0 () in
  let ex = Budget.exhausted b in
  Alcotest.(check bool) "under every cap" false (ex ~trials:9 ~vt:1.0 ~wall:5.0);
  Alcotest.(check bool) "trials reach cap" true (ex ~trials:10 ~vt:0.0 ~wall:0.0);
  Alcotest.(check bool) "vt at cap continues" false (ex ~trials:0 ~vt:1.0 ~wall:0.0);
  Alcotest.(check bool) "vt past cap stops" true (ex ~trials:0 ~vt:1.0000001 ~wall:0.0);
  Alcotest.(check bool) "wall past cap stops" true (ex ~trials:0 ~vt:0.0 ~wall:5.1);
  Alcotest.(check bool) "unlimited never stops" false
    (Budget.exhausted Budget.unlimited ~trials:max_int ~vt:infinity ~wall:infinity);
  Alcotest.(check bool) "unlimited is unlimited" true (Budget.is_unlimited Budget.unlimited);
  Alcotest.(check bool) "capped is not unlimited" false (Budget.is_unlimited b);
  Alcotest.check_raises "negative trials rejected"
    (Invalid_argument "Budget.make: max_trials must be non-negative") (fun () ->
      ignore (Budget.make ~max_trials:(-1) ()));
  (* infinity caps normalize to "no cap" *)
  Alcotest.(check bool) "infinite virtual cap is unlimited" true
    (Budget.is_unlimited (Budget.make ~max_virtual:infinity ()))

(* ---- event bus ----------------------------------------------------- *)

let test_event_bus () =
  let g, _, _ = Fixtures.shared_halo () in
  let m = machine () in
  let ev = make_ev m g in
  let events = ref [] in
  let o =
    Engine.run
      ~on_event:(fun e -> events := e :: !events)
      ~start:(Mapping.default_start g m) ev
      (Ccd.make ~rotations:3 ev)
  in
  let events = List.rev !events in
  (match events with
  | Engine.Eval { trial = 1; accepted = true; _ }
    :: Engine.Improve { trial = 1; _ }
    :: Engine.Phase_change { name = "rotation 1/3" }
    :: _ ->
      ()
  | _ -> Alcotest.fail "run must open with Eval 1 / Improve 1 / Phase");
  let n_evals =
    List.length (List.filter (function Engine.Eval _ -> true | _ -> false) events)
  in
  Alcotest.(check int) "one Eval event per trial" o.Engine.trials n_evals;
  (* Improve events carry a strictly decreasing perf sequence ending at
     the outcome's best *)
  let improves =
    List.filter_map
      (function Engine.Improve { perf; _ } -> Some perf | _ -> None)
      events
  in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "improvements strictly decrease" true
    (strictly_decreasing improves);
  Alcotest.(check (float 0.0)) "last improvement is the outcome"
    o.Engine.perf
    (List.fold_left (fun _ p -> p) nan improves)

(* ---- delivery rules, on a scripted strategy ------------------------- *)

(* A strategy that takes [steps] in order, then stops, accepting a
   verdict exactly when it beats the bound of the proposal delivered.
   It records every verdict. *)
let scripted steps =
  let todo = ref steps and bound = ref infinity and got = ref [] in
  let strat =
    {
      Engine.name = "scripted";
      init = ignore;
      step =
        (fun _ ->
          match !todo with
          | [] -> Engine.Stop
          | s :: rest ->
              todo := rest;
              (match s with
              | Engine.Propose (_, h) -> bound := Option.value h.Engine.bound ~default:infinity
              | _ -> ());
              s);
      receive =
        (fun m perf ->
          got := (m, perf) :: !got;
          perf < !bound);
      encode = (fun () -> []);
    }
  in
  (strat, fun () -> List.rev !got)

(* Circuit n50w200 on lassen:4 with noise off, so a probe evaluator
   that makes the same evaluations in the same order reads the values
   and the clock the engine's evaluator will. *)
let circuit () =
  let machine = Presets.lassen ~nodes:4 in
  (machine, App.circuit.App.graph ~nodes:4 ~input:"n50w200")

let scripted_ev ?symmetry (machine, g) =
  Evaluator.create ~noise_sigma:0.0 ?symmetry machine g

(* The start, its value and the first [n] of the start's neighbours
   (CD's sweep order) that an evaluation bounded by the start's value
   rejects only after running them, so each advances the clock. *)
let losers ((machine, g) as p) n =
  let start = Mapping.default_start g machine in
  let probe = scripted_ev p in
  let p0 = Evaluator.evaluate probe start in
  let sweep = Descent.start probe ~overlap:None ~profile:(Evaluator.profile_for probe start) in
  let rec draw acc k =
    if k = n then Array.of_list (List.rev acc)
    else
      match Descent.next sweep ~incumbent:start with
      | None -> Alcotest.failf "fewer than %d costly losers among the start's neighbours" n
      | Some m ->
          let vt = Evaluator.virtual_time probe in
          if Evaluator.evaluate ~bound:p0 probe m >= p0 && Evaluator.virtual_time probe > vt
          then draw (m :: acc) (k + 1)
          else draw acc k
  in
  (start, p0, draw [] 0)

let proposals p0 ms =
  List.map (fun m -> Engine.Propose (m, { Engine.bound = Some p0; overhead = 0.0 })) ms

let check_delivered what expected verdicts =
  Alcotest.(check (list string))
    what
    (List.map Mapping.canonical_key expected)
    (List.map (fun (m, _) -> Mapping.canonical_key m) (verdicts ()))

let test_trial_cap_per_proposal () =
  let p = circuit () in
  let start, p0, s = losers p 5 in
  let strat, verdicts = scripted (proposals p0 (Array.to_list s)) in
  let o = Engine.run ~budget:(Budget.make ~max_trials:3 ()) ~start (scripted_ev p) strat in
  check_delivered "proposals delivered" [ s.(0); s.(1) ] verdicts;
  Alcotest.(check int) "trials" 3 o.Engine.trials

(* The cap lies between the clock after the first proposal and after
   the second. *)
let test_virtual_budget_per_proposal () =
  let p = circuit () in
  let start, p0, s = losers p 5 in
  let probe = scripted_ev p in
  ignore (Evaluator.evaluate probe start : float);
  ignore (Evaluator.evaluate ~bound:p0 probe s.(0) : float);
  let vt1 = Evaluator.virtual_time probe in
  ignore (Evaluator.evaluate ~bound:p0 probe s.(1) : float);
  let vt2 = Evaluator.virtual_time probe in
  Alcotest.(check bool) "each evaluation advances the clock" true (vt1 < vt2);
  let strat, verdicts = scripted (proposals p0 (Array.to_list s)) in
  let ev = scripted_ev p in
  let budget = Budget.make ~max_virtual:((vt1 +. vt2) /. 2.0) () in
  let o = Engine.run ~budget ~start ev strat in
  check_delivered "proposals delivered" [ s.(0); s.(1) ] verdicts;
  Alcotest.(check int) "trials" 3 o.Engine.trials;
  Alcotest.(check int64) "clock" (Int64.bits_of_float vt2)
    (Int64.bits_of_float (Evaluator.virtual_time ev))

(* A loser proposed twice: the first copy is evaluated, and its
   seen-set entry answers the second. *)
let test_seen_answers_duplicate () =
  let p = circuit () in
  let start, p0, s = losers p 1 in
  let strat, verdicts = scripted (proposals p0 [ s.(0); s.(0) ]) in
  let ev = scripted_ev ~symmetry:true p in
  let seen = Engine.seen_create (Space.canonicalize (Evaluator.space ev)) in
  let o = Engine.run ~seen ~start ev strat in
  check_delivered "both copies delivered" [ s.(0); s.(0) ] verdicts;
  Alcotest.(check int) "trials: the start and the first copy" 2 o.Engine.trials;
  Alcotest.(check int) "seen-set answers" 1 (Evaluator.symmetry_skips ev)

(* Four losers and the first again, with a seen-set and a checkpoint
   every two trials: one Eval per evaluated proposal, in order, a
   checkpoint right after trials 2 and 4, and nothing for the
   duplicate the seen-set answers. *)
let test_events_per_proposal () =
  let p = circuit () in
  let start, p0, s = losers p 4 in
  let path = Filename.temp_file "automap_engine" ".ckpt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let strat, _ = scripted (proposals p0 (Array.to_list s @ [ s.(0) ])) in
  let ev = scripted_ev ~symmetry:true p in
  let seen = Engine.seen_create (Space.canonicalize (Evaluator.space ev)) in
  let events = ref [] in
  let key = Mapping.canonical_key in
  let on_event e =
    let line =
      match e with
      | Engine.Eval { trial; mapping; accepted; _ } ->
          Printf.sprintf "eval %d %s %b" trial (key mapping) accepted
      | Engine.Improve { trial; _ } -> Printf.sprintf "improve %d" trial
      | Engine.Phase_change { name } -> "phase " ^ name
      | Engine.Checkpointed { trial; _ } -> Printf.sprintf "checkpoint %d" trial
    in
    events := line :: !events
  in
  let checkpoint = { Engine.every = 2; path } in
  let o = Engine.run ~on_event ~checkpoint ~seen ~start ev strat in
  let eval i m = Printf.sprintf "eval %d %s false" i (key m) in
  Alcotest.(check (list string))
    "events"
    [
      Printf.sprintf "eval 1 %s true" (key start);
      "improve 1";
      eval 2 s.(0);
      "checkpoint 2";
      eval 3 s.(1);
      eval 4 s.(2);
      "checkpoint 4";
      eval 5 s.(3);
    ]
    (List.rev !events);
  Alcotest.(check int) "trials" 5 o.Engine.trials;
  Alcotest.(check int) "the duplicate answered from the seen-set" 1
    (Evaluator.symmetry_skips ev);
  Alcotest.(check int) "checkpoints written" 2 o.Engine.checkpoints_written

(* ---- checkpoint / resume ------------------------------------------- *)

(* the strategies under test; portfolio gets a finite budget so its
   member deadlines are exercised *)
let strategies =
  [|
    ("cd", fun ev -> Cd.make ev);
    ("ccd", fun ev -> Ccd.make ~rotations:3 ev);
    ("annealing", fun ev -> Annealing.make ~seed:5 ev);
    ("random", fun ev -> Random_search.make ~seed:9 ev);
    ("ensemble", fun ev -> Ensemble.make ~config:{ Ensemble.default_config with seed = 2 } ev);
    ("portfolio", fun ev -> Portfolio.make ~budget:0.2 ~seed:4 ev);
  |]

let apps =
  [|
    ("Circuit", "n50w200");
    ("Stencil", "500x500");
    ("Pennant", "320x90");
    ("HTR", "8x8y9z");
    ("Maestro", "lf4r16");
  |]

let app_graph i =
  let name, input = apps.(i) in
  match App.find name with
  | Some a -> a.App.graph ~nodes:1 ~input
  | None -> Alcotest.fail ("unknown app " ^ name)

(* one Eval event, reduced to its decision content *)
let eval_events events =
  List.filter_map
    (function
      | Engine.Eval { trial; perf; vt; accepted; _ } ->
          Some (trial, Int64.bits_of_float perf, Int64.bits_of_float vt, accepted)
      | _ -> None)
    (List.rev events)

(* Run [strat] to [t2] trials uninterrupted; run it again but checkpoint
   and stop at [t1]; resume from the file to [t2].  The resumed run must
   replay the reference's post-[t1] decision sequence exactly. *)
let resume_identical ~strat_i ~app_i ~t1 =
  let m = Presets.shepard ~nodes:1 in
  let g = app_graph app_i in
  let start = Mapping.default_start g m in
  let t2 = t1 + 10 in
  let _, make_strat = strategies.(strat_i) in
  let run ?carry ?checkpoint ~max_trials ev strat =
    let events = ref [] in
    let o =
      Engine.run
        ~budget:(Budget.make ~max_trials ())
        ~on_event:(fun e -> events := e :: !events)
        ?carry ?checkpoint ~start ev strat
    in
    (o, !events)
  in
  (* reference: uninterrupted *)
  let ev_ref = make_ev m g in
  let o_ref, events_ref = run ~max_trials:t2 ev_ref (make_strat ev_ref) in
  (* interrupted at t1, checkpointing exactly there *)
  let path = Filename.temp_file "automap_resume" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let ev_a = make_ev m g in
      let o_a, _ =
        run ~checkpoint:{ Engine.every = t1; path } ~max_trials:t1 ev_a
          (make_strat ev_a)
      in
      if o_a.Engine.checkpoints_written = 0 then
        (* the strategy finished before trial t1 — nothing to resume;
           the truncated run must then already equal the reference *)
        Mapping.equal o_a.Engine.best o_ref.Engine.best
        && o_a.Engine.trials = o_ref.Engine.trials
      else begin
        let snap =
          match Engine.load_snapshot path with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        (* a resumed evaluator needs the snapshot's profiles database
           (cache hits!) as well as its mutable state *)
        let db =
          match Profiles_db.load g snap.Engine.s_profiles with
          | Ok db -> db
          | Error e -> Alcotest.fail e
        in
        let ev_b = Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:1 ~db m g in
        if Evaluator.fingerprint ev_b <> snap.Engine.s_fingerprint then
          Alcotest.fail "fingerprint mismatch";
        (match Evaluator.restore_state ev_b snap.Engine.s_evaluator with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let strat_b =
          match Driver.decode_strategy ev_b ~algo:snap.Engine.s_algo snap.Engine.s_strategy with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let best_m =
          match Mapping.of_canonical_key g snap.Engine.s_best_key with
          | Some m -> m
          | None -> Alcotest.fail "unparsable best key"
        in
        let carry =
          {
            Engine.c_trials = snap.Engine.s_trials;
            c_steps = snap.Engine.s_steps;
            c_wall = snap.Engine.s_wall;
            c_best = (best_m, snap.Engine.s_best_perf);
          }
        in
        let o_b, events_b = run ~carry ~max_trials:t2 ev_b strat_b in
        let tail_ref =
          List.filter (fun (t, _, _, _) -> t > snap.Engine.s_trials) (eval_events events_ref)
        in
        Mapping.equal o_b.Engine.best o_ref.Engine.best
        && Int64.bits_of_float o_b.Engine.perf = Int64.bits_of_float o_ref.Engine.perf
        && o_b.Engine.trials = o_ref.Engine.trials
        && o_b.Engine.steps = o_ref.Engine.steps
        && eval_events events_b = tail_ref
        && counters ev_b = counters ev_ref
      end)

let resume_prop =
  QCheck.Test.make ~count:15
    ~name:"checkpoint/resume is decision-identical (every strategy, every app)"
    QCheck.(triple (int_bound (Array.length strategies - 1)) (int_bound 4) (int_range 2 12))
    (fun (strat_i, app_i, t1) -> resume_identical ~strat_i ~app_i ~t1)

(* deterministic full matrix on the cheap fixture so every strategy is
   exercised even if the random sampler misses one *)
let test_resume_matrix () =
  let g, _, _ = Fixtures.shared_halo () in
  ignore g;
  Array.iteri
    (fun strat_i (name, _) ->
      Alcotest.(check bool)
        (name ^ " resumes identically")
        true
        (resume_identical ~strat_i ~app_i:1 ~t1:5))
    strategies

(* ---- driver-level resume ------------------------------------------- *)

let test_driver_resume () =
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let path = Filename.temp_file "automap_driver" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let full =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:40
          (Driver.Ccd { rotations = 5 }) m g
      in
      let truncated =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:20
          ~checkpoint:path ~checkpoint_every:20
          (Driver.Ccd { rotations = 5 }) m g
      in
      Alcotest.(check int) "one checkpoint written" 1 truncated.Driver.checkpoints_written;
      let resumed =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:40
          ~resume_from:path (Driver.Ccd { rotations = 5 }) m g
      in
      Alcotest.(check bool) "same best mapping" true
        (Mapping.equal full.Driver.best resumed.Driver.best);
      Alcotest.(check (float 0.0)) "same search perf" full.Driver.search_perf
        resumed.Driver.search_perf;
      Alcotest.(check int) "same evaluation count" full.Driver.evaluated
        resumed.Driver.evaluated;
      Alcotest.(check int) "same engine steps" full.Driver.engine_steps
        resumed.Driver.engine_steps)

(* A graph without collections keys its mappings with no memory
   letter, so the profiles section and best key of its checkpoint parse
   back and the search resumes decision-identically. *)
let test_driver_resume_no_collections () =
  let m = Presets.shepard ~nodes:1 in
  let g = Fixtures.no_collections () in
  let path = Filename.temp_file "automap_solo" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let run ?checkpoint ?resume_from ~max_trials () =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials
          ?checkpoint ~checkpoint_every:1 ?resume_from
          (Driver.Ccd { rotations = 2 })
          m g
      in
      let full = run ~max_trials:8 () in
      let truncated = run ~checkpoint:path ~max_trials:2 () in
      Alcotest.(check bool) "resumed mid-search" true
        (truncated.Driver.checkpoints_written = 1
        && truncated.Driver.suggested < full.Driver.suggested);
      let resumed = run ~resume_from:path ~max_trials:8 () in
      Alcotest.(check bool) "same best mapping" true
        (Mapping.equal full.Driver.best resumed.Driver.best);
      Alcotest.(check int64) "same search perf bits"
        (Int64.bits_of_float full.Driver.search_perf)
        (Int64.bits_of_float resumed.Driver.search_perf);
      Alcotest.(check int64) "same final perf bits"
        (Int64.bits_of_float full.Driver.perf)
        (Int64.bits_of_float resumed.Driver.perf);
      Alcotest.(check int) "same evaluation count" full.Driver.evaluated
        resumed.Driver.evaluated;
      let key = Mapping.canonical_key full.Driver.best in
      Alcotest.(check int) "no memory letter" 9 (String.length key);
      (match Mapping.of_canonical_key g key with
      | Some back ->
          Alcotest.(check bool) "key round-trips" true (Mapping.equal back full.Driver.best)
      | None -> Alcotest.fail "key does not parse");
      match Profiles_db.load g (Profiles_db.save full.Driver.db) with
      | Ok db ->
          Alcotest.(check int) "profiles round-trip" (Profiles_db.size full.Driver.db)
            (Profiles_db.size db)
      | Error e -> Alcotest.fail e)

let test_driver_fingerprint_mismatch () =
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let path = Filename.temp_file "automap_fp" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      ignore
        (Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:10
           ~checkpoint:path ~checkpoint_every:10
           (Driver.Ccd { rotations = 5 }) m g);
      (* different evaluator settings must be refused *)
      match
        Driver.run ~runs:3 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~resume_from:path
          (Driver.Ccd { rotations = 5 }) m g
      with
      | _ -> Alcotest.fail "mismatched resume must raise"
      | exception Failure msg ->
          Alcotest.(check bool) "mentions fingerprint" true
            (String.length msg > 0
            && Str_helpers.contains msg "fingerprint"))

(* Checkpoints written by earlier releases carry the evaluator
   fingerprint as it was then: a default evaluator must still produce
   exactly that string, or every old checkpoint is refused on resume.
   Reference mode fingerprints like the old prune-off evaluator. *)
let test_fingerprint_pinned () =
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  Alcotest.(check string) "default evaluator"
    "Shepard|Stencil-500x500|r7|n0x1.eb851eb851eb8p-6|ffalse|i-|pinfinity|\
     o0x1.a36e2eb1c432dp-13|prtrue|c0|syfalse|dofalse"
    (Evaluator.fingerprint (Evaluator.create m g));
  let m = Presets.lassen ~nodes:2 in
  let g = App.circuit.App.graph ~nodes:2 ~input:"n50w200" in
  Alcotest.(check string) "driver-style evaluator"
    "Lassen|Circuit-n50w200|r3|n0x1.eb851eb851eb8p-6|ffalse|i-|pinfinity|\
     o0x1.a36e2eb1c432dp-13|prtrue|c5000015|sytrue|dotrue"
    (Evaluator.fingerprint
       (Evaluator.create ~runs:3 ~seed:5 ~symmetry:true ~dominance:true m g));
  Alcotest.(check string) "reference mode"
    "Lassen|Circuit-n50w200|r3|n0x1.eb851eb851eb8p-6|ffalse|i-|pinfinity|\
     o0x1.a36e2eb1c432dp-13|prfalse|c5000015|syfalse|dofalse"
    (Evaluator.fingerprint (Evaluator.create ~runs:3 ~seed:5 ~reference:true m g))

(* ---- heft through the engine --------------------------------------- *)

let test_driver_heft () =
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let r = Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 Driver.Heft m g in
  Alcotest.(check bool) "valid" true (Mapping.is_valid g m r.Driver.best);
  Alcotest.(check int) "single trial" 1 r.Driver.suggested;
  Alcotest.(check int) "one step" 1 r.Driver.engine_steps;
  Alcotest.(check bool) "heft mapping evaluated" true
    (Mapping.equal r.Driver.best (Heft.mapping m g));
  (* HEFT as a seed for a real search must do no worse than HEFT *)
  let seeded =
    Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~heft_seed:true
      ~max_trials:30 Driver.Cd m g
  in
  Alcotest.(check bool) "cd from heft seed no worse" true
    (seeded.Driver.search_perf <= r.Driver.search_perf +. 1e-12)

let suite =
  [
    Alcotest.test_case "equiv cd" `Quick test_equiv_cd;
    Alcotest.test_case "equiv ccd" `Quick test_equiv_ccd;
    Alcotest.test_case "equiv ccd budget" `Quick test_equiv_ccd_budget;
    Alcotest.test_case "equiv annealing" `Quick test_equiv_annealing;
    Alcotest.test_case "equiv random" `Quick test_equiv_random;
    Alcotest.test_case "equiv ensemble" `Quick test_equiv_ensemble;
    Alcotest.test_case "equiv portfolio" `Quick test_equiv_portfolio;
    Alcotest.test_case "equiv ccd on stencil" `Quick test_equiv_ccd_app;
    Alcotest.test_case "budget semantics" `Quick test_budget_semantics;
    Alcotest.test_case "event bus" `Quick test_event_bus;
    Alcotest.test_case "the trial cap is checked before each proposal" `Quick
      test_trial_cap_per_proposal;
    Alcotest.test_case "a virtual-time budget is checked before each proposal" `Quick
      test_virtual_budget_per_proposal;
    Alcotest.test_case "the seen-set answers a re-proposed duplicate" `Quick
      test_seen_answers_duplicate;
    Alcotest.test_case "each proposal emits its own events" `Quick test_events_per_proposal;
    QCheck_alcotest.to_alcotest resume_prop;
    Alcotest.test_case "resume matrix" `Quick test_resume_matrix;
    Alcotest.test_case "driver resume" `Quick test_driver_resume;
    Alcotest.test_case "driver resume without collections" `Quick
      test_driver_resume_no_collections;
    Alcotest.test_case "driver fingerprint mismatch" `Quick test_driver_fingerprint_mismatch;
    Alcotest.test_case "fingerprint pinned" `Quick test_fingerprint_pinned;
    Alcotest.test_case "driver heft" `Quick test_driver_heft;
  ]
