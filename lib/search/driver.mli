(** The AutoMap driver (Figure 4): owns the evaluator/profiles
    database, invokes a pluggable search algorithm through the
    {!Engine}, and applies the paper's measurement protocol — during
    the search each candidate is executed [runs] (7) times and
    averaged; afterwards the [final_top] (5) best mappings are
    re-executed [final_runs] (30) times each and the mapping with the
    fastest average is reported (§5, "Experimental Setup"). *)

type algo =
  | Cd
  | Ccd of { rotations : int }
  | Ensemble_tuner
  | Random_walk of { max_evals : int }
  | Annealing of { max_evals : int }
  | Portfolio  (** {!Portfolio.default_members} sharing the budget *)
  | Heft  (** no search: evaluate the HEFT list schedule (§5 baseline) *)

val algo_name : algo -> string

val algo_of_string : string -> (algo, string) Stdlib.result
(** The one CLI/wire spelling, [name] or [name:N], case-insensitive:
    ["cd"], ["ccd"], ["ensemble"] (alias ["opentuner"], ["ot"]),
    ["random"], ["annealing"], ["portfolio"], ["heft"].  [N] is CCD's
    rotation count (at least 2; default 5) or the evaluation cap of
    ["random"] (default {!Random_search.default_max_evals}) and
    ["annealing"] (default {!Annealing.default_max_evals}).
    {!Slice.algo_spec} prints the inverse. *)

type cfg = {
  algo : algo;
  runs : int;                  (** per-candidate measurement runs (§5: 7) *)
  noise_sigma : float option;  (** [None] = evaluator default *)
  iterations : int option;
  seed : int;
  budget : float option;       (** virtual-time cap *)
  max_trials : int option;     (** total evaluated-trial cap *)
  batch : bool;
  min_batch : int;
  surrogate : bool;
  surrogate_skim : int option;
  symmetry : bool;   (** orbit canonicalization + seen-set skipping *)
  dominance : bool;  (** dominance-pruned choice lists *)
  heft_seed : bool;
  final_top : int;
  final_runs : int;
}
(** Everything that determines a search's decision stream (plus the
    decision-neutral batching knobs); {!Slice.cfg} is this type. *)

val default_cfg : cfg
(** CCD(5), 7 runs, seed 0, no caps, gated batching with
    {!Descent.default_min_batch}, surrogate, symmetry and dominance on,
    final protocol 5 × 30 runs. *)

type result = {
  algo : algo;
  db : Profiles_db.t;           (** every measurement of the search *)
  best : Mapping.t;            (** winner of the final re-evaluation *)
  perf : float;                (** its final average per-iteration time *)
  final_stats : Stats.summary; (** statistics of the winner's final runs *)
  search_perf : float;         (** best average seen during the search *)
  trace : (float * float) list;(** (virtual time, best-so-far) — Figure 9 *)
  virtual_search_time : float;
  eval_time_fraction : float;  (** useful fraction of search time (§5.3) *)
  suggested : int;
  evaluated : int;
  cache_hits : int;
  invalid : int;
  oom : int;
  engine_steps : int;          (** {!Engine} strategy steps taken *)
  checkpoints_written : int;
  symmetry_skips : int;        (** symmetric duplicates never re-evaluated *)
  surrogate_trained : int;     (** SGD observations absorbed (0 without model) *)
  surrogate_reranks : int;     (** batches reordered by the model *)
  surrogate_skips : int;       (** candidates never simulated (skim mode) *)
  spearman : float;            (** rank correlation, recent window; nan early *)
}

val make_strategy :
  seed:int ->
  ?budget:float ->
  batch:bool ->
  ?min_batch:int ->
  ?surrogate:Surrogate.t ->
  algo ->
  Evaluator.t ->
  Engine.strategy
(** A fresh strategy for [algo], exactly as {!session} builds one:
    [seed] derives the stochastic algorithms' seeds, [budget] becomes
    the portfolio's member shares, [batch]/[min_batch]/[surrogate]
    configure CD/CCD proposal batching (gated — see
    {!Descent.next_gated} — and ranked).  Exposed for callers that
    drive {!Engine.run} themselves. *)

val decode_strategy :
  ?batch:bool ->
  ?min_batch:int ->
  ?surrogate:Surrogate.t ->
  Evaluator.t ->
  algo:string ->
  string list ->
  (Engine.strategy, string) Stdlib.result
(** Rebuild a checkpointed strategy from its [algo] name (as recorded in
    {!Engine.snapshot.s_algo}) and encoded state lines.  [batch]
    resumes CD/CCD in batch mode ([min_batch] gating sub-threshold
    rounds, default 1); [surrogate] resumes them with ranked batches
    (see {!run}). *)

val final_protocol :
  ?final_top:int ->
  ?final_runs:int ->
  Evaluator.t ->
  search_best:Mapping.t ->
  search_perf:float ->
  Mapping.t * float list
(** The paper's final measurement protocol: re-run the [final_top] (5)
    best mappings of the evaluator's profiles database [final_runs]
    (30) times each and return the fastest-on-average with its runs
    (falling back to [(search_best, [search_perf])] on an empty
    database).  {!conclude} applies it with a session's settings.
    Ties on search perf rank by canonical key ({!Profiles_db.top}), so
    a database rebuilt from a checkpoint picks the same candidates in
    the same order. *)

(** {2 Search sessions}

    {!run} and the serve daemon's slices ({!Slice}) take the same three
    steps: build a {!session}, {!search} it, then {!conclude} it (or
    pause it into a checkpoint). *)

type session = {
  cfg : cfg;
  ev : Evaluator.t;
  seen : Engine.seen option;   (** exactly when the space canonicalizes *)
  sg : Surrogate.t option;     (** the model the engine trains, if any *)
  strat : Engine.strategy;
  start : Mapping.t;           (** start point; the snapshot's best on resume *)
  carry : Engine.carry option; (** engine counters restored from a snapshot *)
}

val session :
  ?scratch:Exec.scratch ->
  ?objective:(Machine.t -> Exec.result -> float) ->
  ?extended:bool ->
  ?db:Profiles_db.t ->
  ?start:Mapping.t ->
  ?snapshot:Engine.snapshot ->
  cfg ->
  Machine.t ->
  Graph.t ->
  (session, string) Stdlib.result
(** A search's whole state, derived from [cfg].  Fresh: the evaluator
    runs over [scratch]'s compiled problem when given and warm-starts
    from [db]; the start is [start], else {!Heft.mapping} when
    [cfg.heft_seed] is set or the algorithm is [Heft], else
    {!Mapping.default_start}.  With [snapshot] the search resumes: the
    snapshot's profiles database, strategy, evaluator state, seen-set
    and surrogate (present exactly when the snapshot has one) replace
    [db], [cfg.algo]'s strategy and the fresh state.  Errors on a
    fingerprint mismatch or a section that does not restore; a fresh
    session never errors. *)

val budget : ?max_trials:int -> ?max_wall:float -> session -> Budget.t
(** The one budget rule: the given caps, plus [cfg.budget] as the
    virtual-time cap unless the portfolio is running — it spends the
    budget through its members' own deadlines. *)

val search :
  ?on_event:(Engine.event -> unit) ->
  ?checkpoint:Engine.checkpoint_cfg ->
  ?max_trials:int ->
  ?max_wall:float ->
  session ->
  Engine.outcome
(** {!Engine.run} under {!budget}.  Mutates the session: continue a
    search cut short through {!advance} or a checkpoint, never by
    searching the same session record again. *)

val advance : session -> Engine.outcome -> wall:float -> session
(** The session a search cut short at [outcome] continues as, in
    memory: the same evaluator, strategy, surrogate and seen-set, with
    [carry] and [start] set exactly as restoring a checkpoint of
    [outcome] (written with [wall] seconds) would set them.  Searching
    it continues decision-identically to the uncut search. *)

val conclude : session -> Engine.outcome -> Mapping.t * float list
(** {!final_protocol} with the session's [final_top] and [final_runs]. *)

val run :
  ?runs:int ->
  ?final_top:int ->
  ?final_runs:int ->
  ?noise_sigma:float ->
  ?iterations:int ->
  ?seed:int ->
  ?budget:float ->
  ?max_trials:int ->
  ?max_wall:float ->
  ?start:Mapping.t ->
  ?heft_seed:bool ->
  ?objective:(Machine.t -> Exec.result -> float) ->
  ?extended:bool ->
  ?batch:bool ->
  ?min_batch:int ->
  ?surrogate:bool ->
  ?surrogate_skim:int ->
  ?symmetry:bool ->
  ?dominance:bool ->
  ?db:Profiles_db.t ->
  ?on_event:(Engine.event -> unit) ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume_from:string ->
  algo ->
  Machine.t ->
  Graph.t ->
  result
(** [budget] caps virtual search time (seconds of simulated
    application execution); [max_trials] and [max_wall] cap evaluated
    proposals and real elapsed seconds — the three compose into one
    {!Budget.t} and the first exhausted axis stops the search.  The
    defaults follow §5: [runs] = 7,
    [final_top] = 5, [final_runs] = 30.  [objective] selects the
    metric the search minimizes (default: per-iteration time),
    [extended] opens the distribution-strategy dimension,
    [batch] (default false) has CD/CCD propose each task's neighbour
    set as one {!Engine.Propose_batch}, which the engine delivers one
    candidate at a time through its {!Engine.Propose} path (other
    algorithms ignore it), [min_batch] (default
    {!Descent.default_min_batch}) proposes smaller rounds one
    candidate at a time (pass 1 to always batch) and
    [db] warm-starts from a persisted profiles database (see
    {!Evaluator.create}).

    [surrogate] (default true) takes effect with [batch]: an online
    {!Surrogate} cost model trains on every exact evaluation and
    reranks CD/CCD candidate batches best-predicted-first (same
    candidates, same acceptance rule — the exact simulator still
    decides).  An unbatched search reads no model, so it runs none.
    [surrogate_skim] additionally simulates only the top-K
    predictions of each ranked batch (implies [batch]); skimming can
    change the search trajectory, so it is guarded by the never-worse
    bench gate rather than an identity proof.  Resume note: the
    checkpoint decides — a snapshot with a surrogate section restores
    it (skim config must match), one without runs surrogate-free; an
    unbatched run's checkpoints carry none for a later batched resume.

    [symmetry] (default true) quotients the search by the task-orbit
    symmetries {!Symmetry} certifies: random samples are canonicalized
    and an engine seen-set rejects symmetric duplicates of evaluated
    orbits without re-simulating ([symmetry_skips] counts them;
    checkpoints carry the seen-set so resume stays
    decision-identical).  [dominance] (default true) drops values {!Analysis.compute_dominance} proves
    dominated from the choice lists.  Both change the search
    trajectory, so they are part of the evaluator fingerprint — a
    checkpoint resumes only under the same flags.

    [heft_seed] starts the search from {!Heft.mapping} instead of
    {!Mapping.default_start} (ignored when [start] is given).

    [on_event] taps the engine's progress bus.  [checkpoint] names a
    file rewritten atomically every [checkpoint_every] (25) evaluated
    trials.  [resume_from] restores a checkpoint written by the same
    (machine, graph, evaluator-configuration) run — the snapshot's own
    strategy, evaluator state and profiles database replace [algo]'s
    fresh strategy and [db], and the search continues
    decision-identically from where it stopped.

    The arguments make a {!cfg} (defaults from {!default_cfg}, except
    [batch]), run as one {!session} — the path the serve daemon's
    slices take, so a sliced search returns the same answer.
    @raise Failure if the checkpoint is unreadable, fingerprint-
    mismatched, or names an unknown strategy. *)

val pp_result : Format.formatter -> result -> unit
