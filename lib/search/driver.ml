type algo =
  | Cd
  | Ccd of { rotations : int }
  | Ensemble_tuner
  | Random_walk of { max_evals : int }
  | Annealing of { max_evals : int }
  | Portfolio
  | Heft

let algo_name = function
  | Cd -> "CD"
  | Ccd { rotations } -> Printf.sprintf "CCD(%d)" rotations
  | Ensemble_tuner -> "Ensemble(OT)"
  | Random_walk _ -> "Random"
  | Annealing _ -> "Annealing"
  | Portfolio -> "Portfolio"
  | Heft -> "HEFT"

(* CLI/wire spelling — one parser shared by automap_cli and the serve
   daemon, so a request names algorithms exactly like the command line *)
let algo_of_string s =
  let unknown = Error (Printf.sprintf "unknown algorithm %S" s) in
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "cd" ] -> Ok Cd
  | [ "ccd" ] -> Ok (Ccd { rotations = 5 })
  | [ ("ensemble" | "opentuner" | "ot") ] -> Ok Ensemble_tuner
  | [ "random" ] -> Ok (Random_walk { max_evals = Random_search.default_max_evals })
  | [ "annealing" ] -> Ok (Annealing { max_evals = Annealing.default_max_evals })
  | [ "portfolio" ] -> Ok Portfolio
  | [ "heft" ] -> Ok Heft
  | [ name; n ] -> (
      match (name, int_of_string_opt n) with
      | "ccd", Some rotations when rotations >= 2 -> Ok (Ccd { rotations })
      | "ccd", Some _ -> Error (Printf.sprintf "algorithm %S: CCD needs 2 rotations or more" s)
      | "random", Some max_evals -> Ok (Random_walk { max_evals })
      | "annealing", Some max_evals -> Ok (Annealing { max_evals })
      | _ -> unknown)
  | _ -> unknown

type cfg = {
  algo : algo;
  runs : int;
  noise_sigma : float option;
  iterations : int option;
  seed : int;
  budget : float option;
  max_trials : int option;
  batch : bool;
  min_batch : int;
  surrogate : bool;
  surrogate_skim : int option;
  symmetry : bool;
  dominance : bool;
  heft_seed : bool;
  final_top : int;
  final_runs : int;
}

let default_cfg =
  {
    algo = Ccd { rotations = 5 };
    runs = 7;
    noise_sigma = None;
    iterations = None;
    seed = 0;
    budget = None;
    max_trials = None;
    batch = true;
    min_batch = Descent.default_min_batch;
    surrogate = true;
    surrogate_skim = None;
    symmetry = true;
    dominance = true;
    heft_seed = false;
    final_top = 5;
    final_runs = 30;
  }

type result = {
  algo : algo;
  db : Profiles_db.t;
  best : Mapping.t;
  perf : float;
  final_stats : Stats.summary;
  search_perf : float;
  trace : (float * float) list;
  virtual_search_time : float;
  eval_time_fraction : float;
  suggested : int;
  evaluated : int;
  cache_hits : int;
  invalid : int;
  oom : int;
  engine_steps : int;
  checkpoints_written : int;
  symmetry_skips : int;
  surrogate_trained : int;
  surrogate_reranks : int;
  surrogate_skips : int;
  spearman : float;
}

(* HEFT is not a search: the list schedule *is* the mapping.  As a
   strategy it stops immediately, so the engine evaluates the (HEFT)
   start point and hands it straight to the final protocol. *)
let heft_strategy =
  {
    Engine.name = "heft";
    init = ignore;
    step = (fun _ -> Engine.Stop);
    receive = (fun _ _ -> false);
    encode = (fun () -> []);
  }

let make_strategy ~seed ?budget ~batch ?(min_batch = 1) ?surrogate algo ev =
  match algo with
  | Cd -> Cd.make ~batch ~min_batch ?surrogate ev
  | Ccd { rotations } -> Ccd.make ~batch ~min_batch ?surrogate ~rotations ev
  | Ensemble_tuner ->
      Ensemble.make ~config:{ Ensemble.default_config with seed = seed + 1 } ev
  | Random_walk { max_evals } -> Random_search.make ~seed:(seed + 1) ~max_evals ev
  | Annealing { max_evals } -> Annealing.make ~seed:(seed + 1) ~max_evals ev
  | Portfolio -> Portfolio.make ?budget ~seed:(seed + 1) ev
  | Heft -> heft_strategy

(* Checkpoints name the strategy; decoding dispatches on that name
   explicitly (no registration side effects, so no link-order traps). *)
let decode_strategy ?(batch = false) ?(min_batch = 1) ?surrogate ev ~algo lines =
  match algo with
  | "cd" -> Cd.decode ~batch ~min_batch ?surrogate ev lines
  | "ccd" -> Ccd.decode ~batch ~min_batch ?surrogate ev lines
  | "annealing" -> Annealing.decode ev lines
  | "random" -> Random_search.decode ev lines
  | "ensemble" -> Ensemble.decode ev lines
  | "portfolio" -> Portfolio.decode ev lines
  | "heft" -> Ok heft_strategy
  | other -> Error (Printf.sprintf "unknown strategy %S in checkpoint" other)

(* Final protocol (§5): re-run the [final_top] best mappings of the
   profiles database [final_runs] times each, as one measurement;
   report the one with the fastest average. *)
let final_protocol ?(final_top = 5) ?(final_runs = 30) ev ~search_best ~search_perf
    =
  let candidates =
    match Profiles_db.top (Evaluator.db ev) final_top with
    | [] -> [ (search_best, [ search_perf ]) ]
    | tops ->
        let ms = List.map (fun e -> e.Profiles_db.mapping) tops in
        List.combine ms (Evaluator.measure_objectives ev ~runs:final_runs ms)
  in
  List.fold_left
    (fun ((_, bruns) as acc) ((_, runs) as cand) ->
      if Stats.mean runs < Stats.mean bruns then cand else acc)
    (List.hd candidates) (List.tl candidates)

type session = {
  cfg : cfg;
  ev : Evaluator.t;
  seen : Engine.seen option;
  sg : Surrogate.t option;
  strat : Engine.strategy;
  start : Mapping.t;
  carry : Engine.carry option;
}

(* Every rule that turns a configuration into a running search lives
   here, for fresh and resumed searches alike. *)
let session ?scratch ?objective ?extended ?db ?start ?snapshot (cfg : cfg) machine
    graph =
  if cfg.final_runs < 1 then invalid_arg "Driver.session: final_runs must be positive";
  let ( let* ) = Result.bind in
  let* db =
    (* a checkpoint carries its own profiles database; it supersedes
       any warm-start [db] *)
    match snapshot with
    | None -> Ok db
    | Some s ->
        Result.map Option.some
          (Result.map_error (( ^ ) "profiles section: ")
             (Profiles_db.load graph s.Engine.s_profiles))
  in
  let ev =
    Evaluator.create ~runs:cfg.runs ?noise_sigma:cfg.noise_sigma
      ?iterations:cfg.iterations ~seed:cfg.seed ?objective ?extended
      ~symmetry:cfg.symmetry ~dominance:cfg.dominance ?db ?scratch machine graph
  in
  let space = Evaluator.space ev in
  (* The seen-set memoizes evaluated orbits so symmetric duplicates are
     skipped; keyed by the space's canonicalizer, it exists exactly when
     the space canonicalizes (symmetry is part of the fingerprint, so a
     resume cannot silently flip it). *)
  let seen =
    if Space.symmetry space then Some (Engine.seen_create (Space.canonicalize space))
    else None
  in
  let* () =
    match snapshot with
    | Some s when Evaluator.fingerprint ev <> s.Engine.s_fingerprint ->
        Error
          (Printf.sprintf
             "fingerprint mismatch — checkpoint was written with a different \
              machine, graph or evaluator configuration (%s vs %s)"
             s.Engine.s_fingerprint (Evaluator.fingerprint ev))
    | Some s -> Evaluator.restore_state ev s.Engine.s_evaluator
    | None -> Ok ()
  in
  (* Skim only makes sense on ranked batches, and ranking needs batch
     proposals (checkpoints then fall strictly between ranked batches —
     see Descent).  So a fresh search runs a surrogate only when [cfg]
     asks for one and it ranks: an unbatched search has no decision
     that reads the model.  A resumed one runs it exactly when its
     snapshot carries one, since restoring a model into a surrogate-free
     run (or dropping it from a surrogate run) would change the decision
     sequence.  The model's own header rejects a skim/config mismatch. *)
  let batch = cfg.batch || cfg.surrogate_skim <> None in
  let* sg =
    let wanted =
      match snapshot with
      | None -> cfg.surrogate && batch
      | Some s -> s.Engine.s_surrogate <> []
    in
    if not wanted then Ok None
    else
      let m = Surrogate.create ?skim:cfg.surrogate_skim space in
      match snapshot with
      | Some s -> Result.map (fun () -> Some m) (Surrogate.restore m s.Engine.s_surrogate)
      | None -> Ok (Some m)
  in
  Option.iter (Evaluator.attach_surrogate ev) sg;
  let* () =
    match (snapshot, seen) with
    | Some s, Some sn ->
        Result.map_error (( ^ ) "symmetry section: ")
          (Engine.seen_restore sn s.Engine.s_symmetry)
    | Some s, None when s.Engine.s_symmetry <> [] ->
        Error "checkpoint has a symmetry section but symmetry is off"
    | _ -> Ok ()
  in
  let rank_sg = if batch then sg else None in
  let* strat, start, carry =
    match snapshot with
    | None ->
        let start =
          match start with
          | Some m -> m
          | None ->
              if cfg.heft_seed || cfg.algo = Heft then Heft.mapping machine graph
              else Mapping.default_start graph machine
        in
        Ok
          ( make_strategy ~seed:cfg.seed ?budget:cfg.budget ~batch
              ~min_batch:cfg.min_batch ?surrogate:rank_sg cfg.algo ev,
            start,
            None )
    | Some s ->
        let* strat =
          decode_strategy ~batch ~min_batch:cfg.min_batch ?surrogate:rank_sg ev
            ~algo:s.Engine.s_algo s.Engine.s_strategy
        in
        let* best =
          Option.to_result ~none:"best-mapping key does not parse for this graph"
            (Mapping.of_canonical_key graph s.Engine.s_best_key)
        in
        Ok
          ( strat,
            best,
            Some
              {
                Engine.c_trials = s.Engine.s_trials;
                c_steps = s.Engine.s_steps;
                c_wall = s.Engine.s_wall;
                c_best = (best, s.Engine.s_best_perf);
              } )
  in
  Ok { cfg; ev; seen; sg; strat; start; carry }

(* The portfolio spends [cfg.budget] through its members' own
   deadlines; every other strategy gets it as the engine's virtual-time
   cap. *)
let budget ?max_trials ?max_wall s =
  let max_virtual = if s.strat.Engine.name = "portfolio" then None else s.cfg.budget in
  Budget.make ?max_trials ?max_virtual ?max_wall ()

let search ?on_event ?checkpoint ?max_trials ?max_wall s =
  Engine.run
    ~budget:(budget ?max_trials ?max_wall s)
    ?on_event ?checkpoint ?carry:s.carry ?surrogate:s.sg ?seen:s.seen ~start:s.start
    s.ev s.strat

(* What a snapshot of [o] would restore: the engine's counters and
   best, with the best as the start point (Engine.run ignores [start]
   under a carry). *)
let advance s (o : Engine.outcome) ~wall =
  {
    s with
    start = o.Engine.best;
    carry =
      Some
        {
          Engine.c_trials = o.Engine.trials;
          c_steps = o.Engine.steps;
          c_wall = wall;
          c_best = (o.Engine.best, o.Engine.perf);
        };
  }

let conclude s (o : Engine.outcome) =
  final_protocol ~final_top:s.cfg.final_top ~final_runs:s.cfg.final_runs s.ev
    ~search_best:o.Engine.best ~search_perf:o.Engine.perf

let run ?(runs = default_cfg.runs) ?(final_top = default_cfg.final_top)
    ?(final_runs = default_cfg.final_runs) ?noise_sigma ?iterations
    ?(seed = default_cfg.seed) ?budget ?max_trials ?max_wall ?start
    ?(heft_seed = default_cfg.heft_seed) ?objective ?extended ?(batch = false)
    ?(min_batch = default_cfg.min_batch) ?(surrogate = default_cfg.surrogate)
    ?surrogate_skim ?(symmetry = default_cfg.symmetry)
    ?(dominance = default_cfg.dominance) ?db ?on_event ?checkpoint
    ?(checkpoint_every = 25) ?resume_from algo machine graph =
  let cfg =
    { algo; runs; noise_sigma; iterations; seed; budget; max_trials; batch; min_batch;
      surrogate; surrogate_skim; symmetry; dominance; heft_seed; final_top; final_runs }
  in
  let ok = function
    | Ok v -> v
    | Error e -> failwith (match resume_from with Some p -> p ^ ": " ^ e | None -> e)
  in
  let snapshot = Option.map (fun path -> ok (Engine.load_snapshot path)) resume_from in
  let s = ok (session ?objective ?extended ?db ?start ?snapshot cfg machine graph) in
  let checkpoint =
    Option.map (fun path -> { Engine.every = checkpoint_every; path }) checkpoint
  in
  let o = search ?on_event ?checkpoint ?max_trials ?max_wall s in
  let best, best_runs = conclude s o in
  let ev = s.ev in
  let vt = Evaluator.virtual_time ev in
  let st = Evaluator.stats ev in
  {
    algo;
    db = Evaluator.db ev;
    best;
    perf = Stats.mean best_runs;
    final_stats = Stats.summarize best_runs;
    search_perf = o.Engine.perf;
    trace = Evaluator.trace ev;
    virtual_search_time = vt;
    eval_time_fraction = (if vt > 0.0 then Evaluator.eval_time ev /. vt else 1.0);
    suggested = Evaluator.suggested ev;
    evaluated = Evaluator.evaluated ev;
    cache_hits = Evaluator.cache_hits ev;
    invalid = Evaluator.invalid_count ev;
    oom = Evaluator.oom_count ev;
    engine_steps = o.Engine.steps;
    checkpoints_written = o.Engine.checkpoints_written;
    symmetry_skips = st.Evaluator.s_symmetry_skips;
    surrogate_trained = st.Evaluator.s_surrogate_trained;
    surrogate_reranks = st.Evaluator.s_surrogate_reranks;
    surrogate_skips = st.Evaluator.s_surrogate_skips;
    spearman = st.Evaluator.s_spearman;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "%s: perf=%.6gs/iter (search best %.6g), suggested=%d evaluated=%d cache=%d invalid=%d oom=%d, search time=%.1fs (useful %.0f%%)"
    (algo_name r.algo) r.perf r.search_perf r.suggested r.evaluated r.cache_hits
    r.invalid r.oom r.virtual_search_time
    (100.0 *. r.eval_time_fraction)
