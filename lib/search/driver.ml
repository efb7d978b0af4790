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
let algo_of_string ?(max_evals = 1000) s =
  match String.lowercase_ascii s with
  | "cd" -> Ok Cd
  | "ccd" -> Ok (Ccd { rotations = 5 })
  | "ensemble" -> Ok Ensemble_tuner
  | "random" -> Ok (Random_walk { max_evals })
  | "annealing" -> Ok (Annealing { max_evals })
  | "portfolio" -> Ok Portfolio
  | "heft" -> Ok Heft
  | other -> Error (Printf.sprintf "unknown algorithm %S" other)

let algo_to_string = function
  | Cd -> "cd"
  | Ccd _ -> "ccd"
  | Ensemble_tuner -> "ensemble"
  | Random_walk _ -> "random"
  | Annealing _ -> "annealing"
  | Portfolio -> "portfolio"
  | Heft -> "heft"

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
  batch_calls : int;
  batch_short_circuits : int;
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
  | Portfolio -> Portfolio.make ?budget ~seed:(seed + 1) ~batch ~min_batch ?surrogate ev
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
  | "portfolio" -> Portfolio.decode ~batch ~min_batch ?surrogate ev lines
  | "heft" -> Ok heft_strategy
  | other -> Error (Printf.sprintf "unknown strategy %S in checkpoint" other)

(* Final protocol (§5): re-run the [final_top] best mappings of the
   profiles database [final_runs] times each; report the one with the
   fastest average.  Shared by [run] and the serve daemon's slice
   driver, which applies it when a sliced search finishes. *)
let final_protocol ?(final_top = 5) ?(final_runs = 30) ev ~search_best ~search_perf
    =
  let candidates =
    match Profiles_db.top (Evaluator.db ev) final_top with
    | [] -> [ (search_best, [ search_perf ]) ]
    | tops ->
        List.map
          (fun e ->
            let m = e.Profiles_db.mapping in
            (m, Evaluator.measure_objective ev ~runs:final_runs m))
          tops
  in
  List.fold_left
    (fun ((_, bruns) as acc) ((_, runs) as cand) ->
      if Stats.mean runs < Stats.mean bruns then cand else acc)
    (List.hd candidates) (List.tl candidates)

let run ?runs ?(final_top = 5) ?(final_runs = 30) ?noise_sigma ?iterations
    ?(seed = 0) ?budget ?max_trials ?max_wall ?start ?(heft_seed = false)
    ?objective ?extended ?(batch = false)
    ?(min_batch = Descent.default_min_batch) ?(surrogate = true) ?surrogate_skim
    ?(symmetry = true) ?(dominance = true)
    ?db ?on_event ?checkpoint ?(checkpoint_every = 25) ?resume_from algo machine
    graph =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* skim only makes sense on ranked batches *)
  let batch = batch || surrogate_skim <> None in
  let snapshot =
    match resume_from with
    | None -> None
    | Some path -> (
        match Engine.load_snapshot path with
        | Ok s -> Some (path, s)
        | Error e -> fail "%s: %s" path e)
  in
  let db =
    (* a checkpoint carries its own profiles database — it supersedes
       any warm-start [?db] *)
    match snapshot with
    | None -> db
    | Some (path, s) -> (
        match Profiles_db.load graph s.Engine.s_profiles with
        | Ok db -> Some db
        | Error e -> fail "%s: profiles section: %s" path e)
  in
  let ev =
    Evaluator.create ?runs ?noise_sigma ?iterations ~seed ?objective ?extended
      ~symmetry ~dominance ?db machine graph
  in
  (* The seen-set memoizes evaluated orbits so symmetric duplicates are
     skipped; keyed by the space's canonicalizer, it exists exactly when
     the evaluator's space canonicalizes (symmetry is part of the
     fingerprint, so resume cannot silently flip it). *)
  let seen =
    if Space.symmetry (Evaluator.space ev) then
      Some (Engine.seen_create (Space.canonicalize (Evaluator.space ev)))
    else None
  in
  let checkpoint =
    Option.map (fun path -> { Engine.every = checkpoint_every; path }) checkpoint
  in
  let o =
    match snapshot with
    | None ->
        let start =
          match start with
          | Some m -> m
          | None ->
              if heft_seed || algo = Heft then Heft.mapping machine graph
              else Mapping.default_start graph machine
        in
        let sg =
          if not surrogate then None
          else Some (Surrogate.create ?skim:surrogate_skim (Evaluator.space ev))
        in
        Option.iter (Evaluator.attach_surrogate ev) sg;
        (* ranking needs batch proposals (checkpoints then fall strictly
           between ranked batches — see Descent); without batch the
           model still trains for telemetry and a later batched run *)
        let rank_sg = if batch then sg else None in
        let strat =
          make_strategy ~seed ?budget ~batch ~min_batch ?surrogate:rank_sg algo ev
        in
        let budget =
          (* the portfolio shares [budget] across members through its own
             absolute deadlines; every other algorithm gets it as the
             engine's virtual-time cap *)
          let max_virtual = if algo = Portfolio then None else budget in
          Budget.make ?max_trials ?max_virtual ?max_wall ()
        in
        Engine.run ~budget ?on_event ?checkpoint ?surrogate:sg ?seen ~start ev
          strat
    | Some (path, s) ->
        if Evaluator.fingerprint ev <> s.Engine.s_fingerprint then
          fail
            "%s: fingerprint mismatch — checkpoint was written with a different \
             machine, graph or evaluator configuration (%s vs %s)"
            path s.Engine.s_fingerprint (Evaluator.fingerprint ev);
        (match Evaluator.restore_state ev s.Engine.s_evaluator with
        | Ok () -> ()
        | Error e -> fail "%s: %s" path e);
        (* the snapshot decides whether a surrogate resumes: restoring
           one into a surrogate-free run (or dropping it from a
           surrogate run) would silently change the decision sequence.
           The model's own header rejects a skim/config mismatch. *)
        let sg =
          if s.Engine.s_surrogate = [] then None
          else begin
            let m = Surrogate.create ?skim:surrogate_skim (Evaluator.space ev) in
            (match Surrogate.restore m s.Engine.s_surrogate with
            | Ok () -> ()
            | Error e -> fail "%s: %s" path e);
            Some m
          end
        in
        Option.iter (Evaluator.attach_surrogate ev) sg;
        (* the fingerprint check above guarantees the snapshot was
           written with the same symmetry flag, so [seen] exists exactly
           when the snapshot has entries to restore *)
        (match seen with
        | Some sn -> (
            match Engine.seen_restore sn s.Engine.s_symmetry with
            | Ok () -> ()
            | Error e -> fail "%s: symmetry section: %s" path e)
        | None ->
            if s.Engine.s_symmetry <> [] then
              fail "%s: checkpoint has a symmetry section but symmetry is off"
                path);
        let rank_sg = if batch then sg else None in
        let strat =
          match
            decode_strategy ~batch ~min_batch ?surrogate:rank_sg ev
              ~algo:s.Engine.s_algo s.Engine.s_strategy
          with
          | Ok strat -> strat
          | Error e -> fail "%s: %s" path e
        in
        let best_m =
          match Mapping.of_canonical_key graph s.Engine.s_best_key with
          | Some m -> m
          | None -> fail "%s: best-mapping key does not parse for this graph" path
        in
        let carry =
          {
            Engine.c_trials = s.Engine.s_trials;
            c_steps = s.Engine.s_steps;
            c_wall = s.Engine.s_wall;
            c_best = (best_m, s.Engine.s_best_perf);
          }
        in
        let budget =
          let max_virtual = if s.Engine.s_algo = "portfolio" then None else budget in
          Budget.make ?max_trials ?max_virtual ?max_wall ()
        in
        Engine.run ~budget ?on_event ?checkpoint ~carry ?surrogate:sg ?seen
          ~start:best_m ev strat
  in
  let search_best, search_perf = (o.Engine.best, o.Engine.perf) in
  let best, best_runs =
    final_protocol ~final_top ~final_runs ev ~search_best ~search_perf
  in
  let vt = Evaluator.virtual_time ev in
  let st = Evaluator.stats ev in
  {
    algo;
    db = Evaluator.db ev;
    best;
    perf = Stats.mean best_runs;
    final_stats = Stats.summarize best_runs;
    search_perf;
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
    batch_calls = Evaluator.batch_calls ev;
    batch_short_circuits = Evaluator.batch_short_circuits ev;
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
