(** Mapping evaluation service (EvaluateMapping, Algorithm 1 line 21,
    and the driver/mapper interaction of Figure 4).

    Each *evaluation* executes the application (our simulator) [runs]
    times with distinct noise seeds and averages the per-iteration
    times — the paper's protocol ("each mapping ran 7 times, and the
    average was used", §5).  Results are cached in the
    {!Profiles_db}: re-suggesting an already-measured mapping costs
    nothing, which is how CCD's 1941 suggestions collapse to ~460
    executions (§5.3).

    The evaluator also keeps the bookkeeping the experiments report:

    - [suggested] / [evaluated] / [cache_hits] / [invalid] / [oom]
      counters;
    - *virtual search time*: the simulated wall-clock the search would
      have spent — the sum of all executed runs' makespans plus a
      per-action overhead — used as the x-axis of Figure 9;
    - the best-so-far trace [(virtual time, best perf)].

    Invalid mappings (§4.2 constraint (1) violations, as a
    constraint-unaware tuner produces) are answered with [infinity]
    without executing.  OOM mappings cost one aborted run and are
    answered with [infinity] (the search "detects an out-of-memory
    error and moves on", §5.2).

    {!create} compiles the simulation problem once ({!Exec.compile})
    and every [evaluate] / [measure] / [profile_for] call reuses the
    compiled problem and one {!Exec.scratch} — candidate evaluation is
    the search's hot path.  A consequence: an evaluator must not be
    used by two domains at once; give each domain its own.  The
    [measure] functions fan their runs out across
    domains themselves: the calling domain binds each mapping on the
    evaluator's scratch ({!Exec.bind}), and every other domain runs on
    an {!Exec.runner} of its own, reading those binds.
    Between slices of a served search the evaluator holds no scratch
    at all ({!detach_scratch}); the next slice, on whichever domain,
    hands it one ({!attach_scratch}). *)

type t

val create :
  ?runs:int ->
  ?noise_sigma:float ->
  ?iterations:int ->
  ?seed:int ->
  ?objective:(Machine.t -> Exec.result -> float) ->
  ?extended:bool ->
  ?reference:bool ->
  ?domain_prune:bool ->
  ?symmetry:bool ->
  ?dominance:bool ->
  ?db:Profiles_db.t ->
  ?scratch:Exec.scratch ->
  Machine.t ->
  Graph.t ->
  t
(** Defaults: [runs] = 7, [noise_sigma] = 0.03, [seed] = 0.  Every
    executed evaluation charges 0.2 ms of virtual time on top of its
    runs (relaunch cost, scaled to the simulator's compressed time base
    so the §5.3 useful-time fractions keep their relative magnitudes).
    [iterations] overrides the graph's iteration count during search
    evaluations (searches often run a truncated workload).
    [objective] maps a simulated run to the scalar the search
    minimizes; the default is per-iteration execution time, and
    {!Energy.joules_per_iteration} makes the same search stack optimize
    power consumption (§3.3).  The [measure] functions may call it
    from several domains at once, so it must be pure (Energy's
    objectives are).  [extended] (default false) opens the
    distribution-strategy dimension (see {!Space.make}).
    [reference] (default false) switches off bound-pruning: a [?bound]
    never cuts a candidate (see {!evaluate}), so every candidate runs
    its full protocol.  Search decisions are identical either way —
    accept/reject sequence, best mapping and perf, the values of the
    improvement trace — while the work done differs: in
    reference mode nothing is cut, so more candidates complete, enter
    the profiles database and charge their full wall to the virtual
    clock.  The identity tests and benches compare the two modes.
    [domain_prune] (default true) restricts the space to the
    analyzer's feasible domains; [false] is the unpruned reference the
    analyzer's own tests compare against.
    [symmetry] (default false) activates orbit canonicalization on the
    evaluator's {!Space} (canonical random samples; the engine's
    seen-set uses {!Space.canonicalize} to skip symmetric duplicates,
    counted by {!symmetry_skips}).  [dominance] (default false)
    additionally prunes dominated values from the space's choice lists
    ({!Analysis.compute_dominance}); it requires [domain_prune].  Both flags are part of {!fingerprint}: unlike the
    surrogate, they change the decision stream, so a resume must use
    the same settings as the checkpointing run.

    Seeding uses common random numbers: run [k] of every evaluation
    draws seed [seed * 1_000_003 + k], so all candidates face the same
    [runs] noise streams (paired comparisons), and Exec's per-seed
    noise streams hit across the whole search.

    [scratch] supplies a pre-built {!Exec.scratch} instead of compiling
    a fresh one — the serve daemon compiles each problem once and
    builds a scratch per slice from it.  The scratch must come from
    [Exec.compile machine graph] for the same (machine, graph) pair. *)

val machine : t -> Machine.t
val graph : t -> Graph.t
val space : t -> Space.t
val db : t -> Profiles_db.t

val detach_scratch : t -> unit
(** Drop the evaluator's {!Exec.scratch}, keeping every decision state:
    profiles database, partials, clocks, counters ({!stats} keeps the
    dropped scratch's bind counters).  A scratch holds only performance
    state — bind cache, noise streams, event heaps — so a paused search
    costs its evaluator's own state, not a simulation's.  Until
    {!attach_scratch}, any call that simulates raises
    [Invalid_argument]. *)

val attach_scratch : t -> Exec.scratch -> unit
(** Run on [scratch] from now on (detaching the current one, if
    different).  As for {!create}'s [?scratch], it must come from
    [Exec.compile] of the evaluator's (machine, graph) pair; a fresh
    one gives bit-identical answers, since no decision reads what a
    scratch caches. *)

val evaluate : ?bound:float -> t -> Mapping.t -> float
(** Average objective value of the mapping (cached), or [infinity]
    for invalid/OOM mappings.

    A candidate the database does not hold runs the §5 protocol in one
    loop over its partial-evaluation record: a fresh candidate starts
    with no run done, and a candidate cut earlier keeps the runs and
    seeds it had.  A fresh candidate's placement is resolved before
    its first run, so an invalid or OOM mapping is answered without
    one.

    [?bound] is the caller's incumbent value: a candidate is useful to
    the caller only if its final mean objective is strictly below it.
    With pruning enabled and the default objective, run [k] of the §5
    protocol gets the clock cutoff
    [(runs * bound - sum_so_far - floor_k) * iterations]
    ({!Exec.simulate_quiet}), where [floor_k] certifies the runs after
    [k] from below ({!Exec.run_lower_bound}; zero when a cut candidate
    resumes): run times are nonnegative, so once the partial sum alone
    pushes the final mean to [bound] the remaining runs are aborted
    and [infinity] — a certified loser value — is returned.
    The same floors can certify a fresh candidate before its first run.
    This is *decision-exact*: the
    accept/reject sequence, the RNG stream (the per-candidate seed
    budget is consumed even when runs are skipped), the profiles
    database contents and the best-mapping trace are identical to the
    unpruned search, provided [bound] is at least the best perf this
    evaluator has seen (true for an incumbent/Metropolis threshold).
    A cut candidate is remembered as a partial evaluation: if it is
    ever re-suggested with a bound below its proven lower bound, the
    protocol resumes with the originally assigned seeds and reproduces
    the unpruned measurements bit-for-bit.  Without [?bound] (or in
    [reference] mode, with a non-default objective, or with an infinite
    bound) nothing is cut.

    The virtual clock is charged as runs happen: a cut candidate costs
    the simulated wall of the runs it ran (an aborted run up to its
    cut), and a completed protocol the walls of the runs its last call
    ran, summed in run order, plus the 0.2 ms overhead.  A candidate cut
    before its first run and later resumed is charged exactly what it
    would have cost fresh. *)

val eval_keyed : ?bound:float -> t -> string -> Mapping.t -> float
(** [eval_keyed ?bound t key m] is [evaluate ?bound t m] for a caller
    that already built [key = Mapping.canonical_key m] (the engine's
    seen-set does), so a proposal's key is built once. *)

val note_suggestion_overhead : t -> float -> unit
(** Charge extra virtual time attributed to the search algorithm
    itself (the ensemble tuner's proposal machinery, §5.3's
    13–45 %-useful-time observation). *)

val best : t -> (Mapping.t * float) option

val trace : t -> (float * float) list
(** Improvement trace: (virtual search time, new best perf), oldest
    first. *)

val virtual_time : t -> float
val suggested : t -> int
val evaluated : t -> int
val cache_hits : t -> int
val invalid_count : t -> int
val oom_count : t -> int

val cut_evals : t -> int
(** Evaluations answered by pruning (the candidate was certified a
    loser before completing its run protocol).  A later resume that
    completes the protocol additionally counts in [evaluated]. *)

val cut_runs : t -> int
(** Protocol runs the partials table owes: for every candidate cut
    and not resumed since, each run from its first incomplete one (the
    aborted run, or the first never started) to its last.  A resume
    pays them back, so the count returns to its value before the cut
    once the candidate completes. *)

val cut_sims : t -> int
(** Simulations aborted by the clock cutoff. *)

val noop_skips : t -> int
(** No-op neighbours the search skipped (see {!note_noop_neighbor}). *)

val dead_coord_skips : t -> int
(** Coordinate values the searches never suggested because the
    analyzer-computed domains exclude them (see
    {!note_dead_coords}). *)

val note_dead_coords : t -> int -> unit
(** Record that a search skipped [n] domain-excluded candidate
    values without suggesting them. *)

val note_noop_neighbor : t -> unit
(** Record that a search skipped a candidate identical to its
    incumbent without suggesting it. *)

val symmetry_skips : t -> int
(** Candidates the engine rejected from its canonical seen-set — a
    symmetric twin had already been evaluated and its recorded value
    certifies rejection — without evaluating
    (see {!note_symmetry_skip}). *)

val note_symmetry_skip : t -> unit
(** Record that the engine skipped a candidate whose orbit-canonical
    representative was already evaluated. *)

val note_warm_start : t -> unit
(** Does nothing.  Warm starts are counted by the server that serves
    them ([warm_starts] in its status); this name is kept only so
    existing callers still compile. *)

val attach_surrogate : t -> Surrogate.t -> unit
(** Register the search's surrogate model so {!stats} reports its
    counters (trained observations, reranks, skim skips, rank
    correlation).  Telemetry only: the evaluator never consults the
    model — training is the engine's, ranking the strategies'. *)

type stats = {
  s_suggested : int;
  s_evaluated : int;
  s_cache_hits : int;
  s_invalid : int;
  s_oom : int;
  s_cut_evals : int;
  s_cut_runs : int;
  s_cut_sims : int;
  s_noop_skips : int;
  s_dead_coord_skips : int;
  s_symmetry_skips : int;        (** {!symmetry_skips} *)
  s_delta_binds : int;
      (** {!Exec.delta_binds} summed over every scratch the evaluator
          ran on: its own and those detached between slices.  A
          [measure] call binds each of its mappings once, on the
          evaluator's own scratch, whatever its run count. *)
  s_full_binds : int;   (** {!Exec.full_binds}, summed likewise *)
  s_bind_hits : int;     (** {!Exec.bind_cache_hits}, summed likewise *)
  s_cone_replays : int;
      (** Always 0: the simulator has one event loop and replays
          nothing.  Kept, like {!note_warm_start}, only so existing
          readers still compile. *)
  s_full_replays : int;  (** Always 0, as [s_cone_replays]. *)
  s_surrogate_trained : int;  (** {!Surrogate.trained} (0 when none attached) *)
  s_surrogate_reranks : int;  (** {!Surrogate.reranks} *)
  s_surrogate_skips : int;    (** {!Surrogate.skips} *)
  s_spearman : float;  (** {!Surrogate.spearman} ([nan] when none attached) *)
}
(** One-shot snapshot of every counter, for benches and tests.  The
    evaluator counts only its own work: the serve daemon's compile and
    result caches report through [Server.status], not here. *)

val stats : t -> stats

val eval_time : t -> float
(** Virtual time spent actually executing candidates (for the
    useful-time fraction of §5.3). *)

val fingerprint : t -> string
(** One-line digest of the decision-relevant configuration (machine,
    graph, runs, noise, iterations, reference mode, CRN seed base,
    symmetry, dominance).  A checkpoint
    written by one evaluator may only be restored into an evaluator
    with an equal fingerprint — anything else would silently change the
    decision sequence.  Reference mode appears as its historical
    [pr<not reference>] field, so a default evaluator's fingerprint is
    unchanged from releases that had a separate prune flag; the
    fallback, penalty and overhead fields of releases that let them
    vary keep their constant values, so their checkpoints still
    resume.  Domain
    pruning is deliberately excluded: it is proven decision-neutral. *)

val save_state : t -> string list
(** Serialize the evaluator's mutable search state — counters, virtual
    and eval clocks, [measure] seed counter, best-so-far, improvement
    trace, and the partial-evaluation table — as text lines with
    hex-float ([%h]) exactness.  The profiles database is {e not}
    included; checkpoint it alongside with {!Profiles_db.save}.
    Restoring these lines (plus the database) into a fresh evaluator
    with the same {!fingerprint} makes every subsequent evaluation,
    budget test, and [measure] draw bit-identical to the uninterrupted
    run: cache answers come from the database, cut candidates resume
    from the partials table with their original seeds, and the virtual
    clock continues from the exact same value. *)

val restore_state : t -> string list -> (unit, string) result
(** Inverse of {!save_state}.  Overwrites the evaluator's mutable state;
    the caller is responsible for having checked {!fingerprint} equality
    and for loading the saved profiles database into [~db] at
    {!create} time.  Exec's per-seed noise streams and bind cache are
    rebuilt lazily — they are bit-exact performance state, not
    decisions. *)

val measure : t -> ?runs:int -> ?iterations:int -> Mapping.t -> float list
(** Per-iteration *times* of [runs] executions, newest first, outside
    the search bookkeeping — for baseline comparisons.  Run [k]
    (1-based) takes the [k]-th fresh seed of the [measure] window,
    which is disjoint from the search's common seeds and recorded by
    {!save_state}.  The mapping is bound once, on the calling domain.
    The runs stay on the calling domain unless their instance-runs
    ([runs * iterations] times the graph's shards per iteration) pay
    for more ({!Par.domains}); then they split across that many
    domains, each on an {!Exec.runner} reading that bind, spawned per
    call and joined before it returns.  No value depends on the
    split.
    @raise Failure on invalid/OOM mappings, before any run.
    @raise Invalid_argument if [runs < 1]. *)

val measure_objective : t -> ?runs:int -> Mapping.t -> float list
(** Like {!measure} but returns the evaluator's objective values —
    what the final top-5 × 30 re-evaluation ranks by. *)

val measure_objectives : t -> ?runs:int -> Mapping.t list -> float list list
(** {!measure_objective} of each mapping in turn, with the same seeds,
    as one job list whose instance-runs, all mappings together, set
    the domain count: the final protocol's form, which spawns its
    domains (if any) once.  Each mapping's bind is
    frozen ({!Exec.freeze}) before the next one is bound, so no bind
    changes while the runs read it. *)

val profile_for : t -> Mapping.t -> Profile.t
(** Noise-free per-task profile under a mapping (task ordering for
    CD/CCD); falls back to the uniform profile if the mapping cannot
    run.  A repeat call with the physically same mapping returns the
    previous answer without simulating. *)
