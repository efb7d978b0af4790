(* One scheduling quantum of a search, for the serve daemon: run the
   engine for at most [slice_trials] evaluated proposals, then either
   finish (strategy stopped or the request's own budget ran out) or
   pause into a checkpoint envelope.  Because the pause/resume path is
   the PR 5 checkpoint codec — proven decision-identical — a search
   chopped into slices (possibly hopping between worker domains, each
   slice on a fresh evaluator over the shared compiled problem) takes
   exactly the trial sequence the unsliced run would.

   The only approximation is the wall clock: each slice accumulates its
   own elapsed time into the envelope's wall field.  Wall is not
   decision-relevant here (slice budgets are trial-counted and requests
   carry no max_wall), so the accumulated value is telemetry. *)

type cfg = {
  algo : Driver.algo;
  runs : int;
  noise_sigma : float option;
  iterations : int option;
  seed : int;
  budget : float option;      (* request's virtual-time cap *)
  max_trials : int option;    (* request's total trial cap *)
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
    algo = Driver.Ccd { rotations = 5 };
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

let algo_spec = function
  | Driver.Cd -> "cd"
  | Driver.Ccd { rotations } -> Printf.sprintf "ccd:%d" rotations
  | Driver.Ensemble_tuner -> "ensemble"
  | Driver.Random_walk { max_evals } -> Printf.sprintf "random:%d" max_evals
  | Driver.Annealing { max_evals } -> Printf.sprintf "annealing:%d" max_evals
  | Driver.Portfolio -> "portfolio"
  | Driver.Heft -> "heft"

let opt_f = function None -> "none" | Some v -> Printf.sprintf "%h" v
let opt_i = function None -> "none" | Some v -> string_of_int v

(* Only the fields that pick the evaluator's decision stream: profiles
   measured under one eval identity are poison under another (different
   CRN seeds, run counts, noise), so the server's shared profiles pool
   is segmented by this digest. *)
let eval_identity cfg =
  Printf.sprintf "runs=%d noise=%s iters=%s seed=%d" cfg.runs
    (opt_f cfg.noise_sigma) (opt_i cfg.iterations) cfg.seed

let eval_fingerprint cfg = Digest.to_hex (Digest.string (eval_identity cfg))

(* The full search identity, for the result memo.  Deliberately
   conservative: decision-neutral fields (batch, min_batch) are
   included too — segmenting the memo slightly finer than necessary
   costs a warm start where a hit was possible, never a wrong answer. *)
let fingerprint cfg =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf
          "algo=%s %s budget=%s trials=%s batch=%b min_batch=%d surrogate=%b \
           skim=%s symmetry=%b dominance=%b heft=%b top=%d final_runs=%d"
          (algo_spec cfg.algo) (eval_identity cfg) (opt_f cfg.budget)
          (opt_i cfg.max_trials) cfg.batch cfg.min_batch cfg.surrogate
          (opt_i cfg.surrogate_skim) cfg.symmetry cfg.dominance cfg.heft_seed
          cfg.final_top cfg.final_runs))

type finished = {
  best : Mapping.t;
  perf : float;
  best_runs : float list;
  search_best : Mapping.t;
  search_perf : float;
  trials : int;
}

type progress = { ckpt : string; p_trials : int; p_best_perf : float }
type status = Finished of finished | Paused of progress

(* skim only makes sense on ranked batches (mirrors Driver.run) *)
let eff_batch cfg = cfg.batch || cfg.surrogate_skim <> None

let make_evaluator ?scratch ?db cfg machine graph =
  Evaluator.create ~runs:cfg.runs ?noise_sigma:cfg.noise_sigma
    ?iterations:cfg.iterations ~seed:cfg.seed ~symmetry:cfg.symmetry
    ~dominance:cfg.dominance ?db ?scratch machine graph

(* mirrors Driver.run: the seen-set exists exactly when the evaluator's
   space canonicalizes; symmetry is part of the fingerprint so resumed
   slices cannot silently flip it *)
let make_seen ev =
  if Space.symmetry (Evaluator.space ev) then
    Some (Engine.seen_create (Space.canonicalize (Evaluator.space ev)))
  else None

let slice_budget cfg ~done_trials ~slice_trials =
  let cap =
    let c = done_trials + slice_trials in
    match cfg.max_trials with Some m -> min m c | None -> c
  in
  (* the portfolio consumes [budget] through its own member deadlines;
     every other algorithm gets it as the engine's virtual-time cap
     (mirrors Driver.run) *)
  let max_virtual = if cfg.algo = Driver.Portfolio then None else cfg.budget in
  (cap, Budget.make ~max_trials:cap ?max_virtual ())

(* Did the slice end because the search is over, or because the quantum
   ran out?  Hitting the slice cap with the request's own limits still
   open means "more work"; anything else — strategy stop, request trial
   cap, virtual budget overrun — is final.  A strategy that stops
   exactly on the cap is indistinguishable from a truncated one; it
   costs one extra no-op slice that stops immediately, evaluating
   nothing. *)
let is_finished cfg ev (o : Engine.outcome) ~cap =
  o.Engine.trials < cap
  || (match cfg.max_trials with Some m -> o.Engine.trials >= m | None -> false)
  ||
  match cfg.budget with
  | Some b when cfg.algo <> Driver.Portfolio -> Evaluator.virtual_time ev > b
  | _ -> false

let conclude cfg ev (o : Engine.outcome) =
  let best, best_runs =
    Driver.final_protocol ~final_top:cfg.final_top ~final_runs:cfg.final_runs ev
      ~search_best:o.Engine.best ~search_perf:o.Engine.perf
  in
  Finished
    {
      best;
      perf = Stats.mean best_runs;
      best_runs;
      search_best = o.Engine.best;
      search_perf = o.Engine.perf;
      trials = o.Engine.trials;
    }

let pause ?surrogate ?seen ev strat (o : Engine.outcome) ~wall =
  Paused
    {
      ckpt =
        Engine.checkpoint_string ?surrogate ?seen ev strat ~trials:o.Engine.trials
          ~steps:o.Engine.steps ~wall ~best:(o.Engine.best, o.Engine.perf);
      p_trials = o.Engine.trials;
      p_best_perf = o.Engine.perf;
    }

let start ?scratch ?db ?warm_start ?on_event ~slice_trials cfg machine graph =
  let batch = eff_batch cfg in
  let ev = make_evaluator ?scratch ?db cfg machine graph in
  let start_m =
    match warm_start with
    | Some m -> m
    | None ->
        if cfg.heft_seed || cfg.algo = Driver.Heft then Heft.mapping machine graph
        else Mapping.default_start graph machine
  in
  let sg =
    if not cfg.surrogate then None
    else Some (Surrogate.create ?skim:cfg.surrogate_skim (Evaluator.space ev))
  in
  Option.iter (Evaluator.attach_surrogate ev) sg;
  let rank_sg = if batch then sg else None in
  let strat =
    Driver.make_strategy ~seed:cfg.seed ?budget:cfg.budget ~batch
      ~min_batch:cfg.min_batch ?surrogate:rank_sg cfg.algo ev
  in
  let seen = make_seen ev in
  let cap, budget = slice_budget cfg ~done_trials:0 ~slice_trials in
  let t0 = Unix.gettimeofday () in
  let o =
    Engine.run ~budget ?on_event ?surrogate:sg ?seen ~start:start_m ev strat
  in
  let status =
    if is_finished cfg ev o ~cap then conclude cfg ev o
    else pause ?surrogate:sg ?seen ev strat o ~wall:(Unix.gettimeofday () -. t0)
  in
  (status, ev)

let resume ?scratch ?on_event ~slice_trials cfg machine graph ~ckpt =
  let ( let* ) = Result.bind in
  let batch = eff_batch cfg in
  let* s = Engine.snapshot_of_string ckpt in
  let* db = Profiles_db.load graph s.Engine.s_profiles in
  let ev = make_evaluator ?scratch ~db cfg machine graph in
  let* () =
    if Evaluator.fingerprint ev = s.Engine.s_fingerprint then Ok ()
    else
      Error
        (Printf.sprintf
           "Slice.resume: fingerprint mismatch (%s vs %s) — checkpoint belongs \
            to a different machine/graph/config"
           s.Engine.s_fingerprint (Evaluator.fingerprint ev))
  in
  let* () = Evaluator.restore_state ev s.Engine.s_evaluator in
  (* the snapshot decides whether a surrogate resumes (see Driver.run) *)
  let* sg =
    if s.Engine.s_surrogate = [] then Ok None
    else
      let m = Surrogate.create ?skim:cfg.surrogate_skim (Evaluator.space ev) in
      let* () = Surrogate.restore m s.Engine.s_surrogate in
      Ok (Some m)
  in
  Option.iter (Evaluator.attach_surrogate ev) sg;
  let rank_sg = if batch then sg else None in
  let* strat =
    Driver.decode_strategy ~batch ~min_batch:cfg.min_batch ?surrogate:rank_sg ev
      ~algo:s.Engine.s_algo s.Engine.s_strategy
  in
  let* best_m =
    match Mapping.of_canonical_key graph s.Engine.s_best_key with
    | Some m -> Ok m
    | None -> Error "Slice.resume: best-mapping key does not parse for this graph"
  in
  let carry =
    {
      Engine.c_trials = s.Engine.s_trials;
      c_steps = s.Engine.s_steps;
      c_wall = s.Engine.s_wall;
      c_best = (best_m, s.Engine.s_best_perf);
    }
  in
  let seen = make_seen ev in
  let* () =
    match seen with
    | Some sn -> Engine.seen_restore sn s.Engine.s_symmetry
    | None ->
        if s.Engine.s_symmetry = [] then Ok ()
        else
          Error
            "Slice.resume: checkpoint has a symmetry section but symmetry is off"
  in
  let cap, budget = slice_budget cfg ~done_trials:s.Engine.s_trials ~slice_trials in
  let t0 = Unix.gettimeofday () in
  let o =
    Engine.run ~budget ?on_event ~carry ?surrogate:sg ?seen ~start:best_m ev strat
  in
  let status =
    if is_finished cfg ev o ~cap then conclude cfg ev o
    else
      pause ?surrogate:sg ?seen ev strat o
        ~wall:(s.Engine.s_wall +. (Unix.gettimeofday () -. t0))
  in
  Ok (status, ev)
