(** Discrete-event execution of a task graph under a mapping.

    This is the stand-in for running the application on the cluster
    (the paper's EvaluateMapping, Algorithm 1 line 21).  The simulator
    models:

    - one FIFO resource per processor; shards run where {!Placement}
      put them, for the duration given by {!Cost} (× measurement
      noise);
    - explicit data movement: for every dependence whose producer and
      consumer instances live in different memories, a copy is serialized
      on the connecting channel (host, cross-socket, PCIe, GPU-peer or
      network — §2's "a mapping may imply data movement not explicit in
      the task graph");
    - halo patterns: neighbour shards additionally receive their ghost
      fraction, crossing the network when the neighbour lives on
      another node;
    - iterative execution: the graph body repeats [iterations] times,
      each task shard serialized with its previous iteration, allowing
      cross-iteration pipelining as in Legion;
    - capacity failures surfaced from placement (§5.2).

    Runs are deterministic given the noise seed. *)

type result = {
  makespan : float;        (** seconds for all iterations *)
  per_iteration : float;   (** makespan / iterations *)
  task_times : float array;(** per-tid busy time, summed over shards/iterations *)
  proc_busy : float array; (** per-pid busy seconds (the energy model's input) *)
  bytes_moved : float;     (** total copied bytes *)
  channel_bytes : float array;
      (** bytes per channel class, indexed like {!channel_class_names} *)
  n_copies : int;
  demotions : int;         (** fallback demotions performed by placement *)
}

val channel_class_names : string array
(** ["host"; "xsocket"; "pcie"; "peer"; "net"] — index space of
    [channel_bytes]. *)

type error = Placement.error

(** {1 Compiled simulation}

    Mapping search evaluates thousands of candidates against the same
    (machine, graph) pair.  {!compile} derives every mapping-independent
    structure once — instance tables, the intra-iteration dependence
    CSR, per-slot indegree bases — into flat int/float arrays, and
    {!simulate} evaluates one mapping against the compiled problem,
    reusing a {!scratch} so the event loop allocates nothing but the
    small result arrays.

    Determinism invariant: for the same (noise_sigma, seed, fallback,
    iterations), [simulate] returns bit-identical results to
    the original single-pass interpreter, kept as the golden oracle in
    [test/oracle/] — the dependence traversal order, the RNG draw order
    (instance-ascending, before any event is processed) and the event
    queue's FIFO tie-breaking are all preserved exactly.
    [test/test_compile.ml] enforces this. *)

type compiled
(** Mapping-independent simulation structure for one (machine, graph)
    pair.  Immutable after {!compile}; safe to share across domains. *)

type scratch
(** Reusable simulation state tied to one {!compiled} problem: one
    {!Bind.binder} (the bound placement's planes, the bind it resolves
    a mapping into, and its bind cache), one {!runner}, and the
    per-seed noise streams a search reuses.  NOT thread-safe: each
    domain that resolves mappings needs its own scratch. *)

val compile : Machine.t -> Graph.t -> compiled

val scratch : compiled -> scratch
(** A fresh scratch; grows lazily to the largest [iterations] it has
    simulated. *)

val compiled_of_scratch : scratch -> compiled
val compiled_machine : compiled -> Machine.t
val compiled_graph : compiled -> Graph.t

val compiled_slots : compiled -> int
(** Instance slots per iteration (one per task shard): a run of
    [iterations] simulates [iterations * compiled_slots] instances. *)

val compiled_words : compiled -> int
(** Heap words reachable from the compiled problem — the weight the
    serve daemon's LRU compile cache charges an entry (multiply by
    [Sys.word_size / 8] for bytes). *)

val simulate :
  ?noise_sigma:float ->
  ?seed:int ->
  ?fallback:bool ->
  ?iterations:int ->
  ?trace:Trace.t ->
  scratch ->
  Mapping.t ->
  (result, error) Stdlib.result
(** Evaluate one mapping.  Parameters as {!run}.  The returned result
    arrays are freshly allocated (results from earlier calls stay
    valid); everything else is scratch-reused. *)

(** {1 Bounded simulation}

    The search only needs a candidate's exact runtime when it might
    beat the incumbent.  [simulate_bounded ~cutoff] aborts the event
    loop the moment the simulated clock reaches [cutoff]: event times
    pop in nondecreasing order and all remaining work is nonnegative,
    so the clock is a monotone lower bound on the final makespan and
    [Cut t] certifies makespan >= t without finishing the run.  With
    the default [cutoff = infinity] the behaviour — including every
    float and RNG draw — is identical to {!simulate}. *)

type outcome =
  | Finished of result
  | Cut of float
      (** The simulated clock reached the cutoff at this time; the true
          makespan is at least this value. *)

val simulate_bounded :
  ?noise_sigma:float ->
  ?seed:int ->
  ?fallback:bool ->
  ?iterations:int ->
  ?trace:Trace.t ->
  ?cutoff:float ->
  scratch ->
  Mapping.t ->
  (outcome, error) Stdlib.result

(** {1 Quiet (zero-allocation) interface}

    [simulate_quiet] is {!simulate_bounded} minus every allocation: the
    run's outputs are written into preallocated planes inside the
    scratch and the call returns a status code.  In the steady state —
    bind cached (the same mapping re-run under another noise seed) and
    noise stream cached — a run costs {e zero} minor-heap words (pinned
    by test/test_alloc.ml), which keeps the GC silent across millions
    of simulations.  Decisions, floats and RNG draws are bit-identical
    to {!simulate_bounded}; the two share one event loop. *)

val simulate_quiet :
  scratch ->
  Mapping.t ->
  noise_sigma:float ->
  seed:int ->
  fallback:bool ->
  iterations:int ->
  cutoff:float ->
  int
(** Returns {!st_finished}, {!st_cut} or {!st_error}.  The scalar
    accessors below are valid until the next simulation on the same
    scratch; {!quiet_result} materializes a full {!result} record (and
    allocates — use it off the hot path only). *)

val st_finished : int
val st_cut : int
val st_error : int

val quiet_makespan : scratch -> float
val quiet_per_iteration : scratch -> float

val quiet_cut_time : scratch -> float
(** Clock at which the run was cut; valid after {!st_cut} only. *)

val quiet_error : scratch -> error option
(** The placement/bind error of the last {!st_error} return. *)

val quiet_result : scratch -> result
(** Record view over the result planes of the last finished run.  The
    arrays are fresh copies (safe to retain). *)

(** {1 Binds and runners}

    A simulation reads what its mapping decides and writes what its run
    produces, and the two live apart.  A {!bind} holds the first: per
    instance slot a noise-free duration, a processor and a node, and per
    dependence a channel, a class, a copy cost and, when routed, its
    endpoints' nodes, plus the placement's demotions.  A {!runner}
    holds the second: ready times, indegrees and the noise buffer (three
    per-instance arrays), the resource clocks, the event queue, the
    route-walk buffers and the result planes.  Every simulation, on a
    scratch or not, is the same event loop over one (bind, runner)
    pair: a scratch's runs resolve and bind the mapping into the
    scratch's own bind and then run it on the scratch's own runner.

    That split lets the fresh-seed runs of a measurement spread over
    domains without copying a problem: the calling domain binds each
    mapping on its scratch, and each other domain builds only a
    runner, which reads those binds and allocates nothing per run but
    its noise generator. *)

type bind = Bind.t
(** A bound mapping, as the event loop reads it.  The bind a scratch
    answers ({!bind}) is the scratch's own: its next bind of another
    mapping rewrites it in place.  A {!freeze}d copy is never written,
    so any number of runners on any domains may read it at once. *)

type runner
(** What one run writes.  A runner serves any bind of its compiled
    problem, one run at a time; NOT thread-safe. *)

val bind : scratch -> fallback:bool -> Mapping.t -> (bind, error) Stdlib.result
(** Resolve and bind [mapping] on the scratch, through its bind cache
    (counted by {!delta_binds}, {!full_binds} or {!bind_cache_hits},
    like a simulation's bind), and answer the scratch's own bind: valid
    until the scratch binds another mapping.  Placement errors are
    {!simulate}'s.  A warm delta bind allocates nothing, this answer
    included. *)

val binder : scratch -> Bind.binder
(** The scratch's binder, whose planes and tables its binds write. *)

val freeze : bind -> bind
(** A private copy of the bind's tables (a few KB on a lassen preset),
    unaffected by later binds of the scratch it came from. *)

val runner : compiled -> runner
(** A fresh runner.  Its per-instance arrays are sized on its first run
    and grow to the largest [iterations] it has run. *)

val scratch_runner : scratch -> runner
(** The scratch's own runner, which its simulations write: a run on it
    overwrites the planes the [quiet_*] accessors read. *)

val run_fresh :
  runner -> bind -> noise_sigma:float -> seed:int -> iterations:int -> unit
(** Simulate the bound mapping once, to completion, under noise drawn
    privately from [Rng.create seed]: the values, floats and results of
    {!simulate} with the same parameters, bit for bit.  A warm runner
    allocates only its noise generator.
    @raise Invalid_argument if the bind and the runner come from
    different compiled problems, or if [iterations <= 0]. *)

val runner_per_iteration : runner -> float
(** Per-iteration time of the runner's last run. *)

val runner_result : runner -> result
(** Record view over the runner's last run, as {!quiet_result}; its
    [demotions] are those of the bind it ran. *)

val static_lower_bound :
  ?fallback:bool ->
  ?iterations:int ->
  scratch ->
  Mapping.t ->
  (float, error) Stdlib.result
(** The noise-independent part of {!run_lower_bound}: the busiest
    channel's total copy time, the busiest node's dispatch
    serialization, and the dependence-graph critical path of dispatch
    and copy costs under the bound placement (compute durations
    contribute nothing — noise multipliers can be arbitrarily small).
    Valid for *every* noise seed, and an order of magnitude cheaper
    than a per-run bound (no noise draws), so a caller can certify "no
    run of this mapping can beat [b]" once before paying for per-run
    bounds or simulations. *)

val run_lower_bound :
  ?noise_sigma:float ->
  ?seed:int ->
  ?fallback:bool ->
  ?iterations:int ->
  scratch ->
  Mapping.t ->
  (float, error) Stdlib.result
(** A certified lower bound on the makespan {!simulate_bounded} with
    the same parameters would return (or abort at), computed without
    running the event loop: the busiest processor's total noise-scaled
    work — replaying the exact per-instance noise draws of that seed —
    and the busiest node's dispatch serialization both bound the final
    clock from below.  Costs one noise pass (a fraction of a full
    simulation); placement/bind errors are surfaced exactly as
    {!simulate}'s, and the resolved binding is cached for a subsequent
    simulation of the same mapping. *)

(** {1 Shared noise streams and bind caching}

    Every run of one noise seed draws the same instance-ascending
    lognormal stream, whatever the mapping.  The scratch keeps one
    stream per seed and extends it on demand, so under the evaluator's
    common random numbers each seed's draws happen once per search and
    every later run (and {!run_lower_bound}) reads them back.  The
    values are bit-identical to a fresh [Rng.create seed].  Only
    {!simulate_quiet} and {!run_lower_bound} add a seed to the table;
    {!simulate} and {!simulate_bounded} read an existing stream and
    otherwise draw privately, as {!run_fresh} always does, so one-shot
    seeds take no slot.  Either way the draws are filled in bulk
    ({!Rng.fill_lognormal}), a block ahead of the event loop.

    Binding a mapping to the compiled problem is cached too: a re-run
    of the physically same mapping reuses the bind, and a near
    neighbour of the bound mapping is patched in place
    ({!Placement.patch} on the binder's planes plus a partial table
    rebind) instead of re-resolved.  The counters below report which
    path each bind took. *)

val delta_binds : scratch -> int
(** How many resolve+bind operations were served by patching the
    previously bound placement in place ({!Placement.patch} + a partial
    table rebind) instead of a full re-resolve.  Strict (non-fallback) mode
    only; the patched state is bit-identical to a full bind. *)

val full_binds : scratch -> int
(** How many resolve+bind operations ran the full path.  Physical-
    equality cache hits (re-running the same mapping with a new noise
    seed) are counted by neither counter — they show up in
    {!bind_cache_hits} instead. *)

val bind_cache_hits : scratch -> int
(** Physical-equality bind-cache hits — resolves served without
    touching placement or the bind tables. *)

val run :
  ?noise_sigma:float ->
  ?seed:int ->
  ?fallback:bool ->
  ?iterations:int ->
  ?trace:Trace.t ->
  Machine.t ->
  Graph.t ->
  Mapping.t ->
  (result, error) Stdlib.result
(** [noise_sigma] (default 0.03) is the per-instance lognormal noise;
    0 gives noise-free runs.  [seed] defaults to 0.  [iterations]
    overrides the graph's iteration count.  [fallback] enables §3.1's
    priority-list demotion instead of failing on OOM.  When [trace] is
    given, every task execution and copy is recorded in it.

    Compatibility wrapper: compiles and simulates once.  Hot callers
    should {!compile} once and reuse a {!scratch}. *)

val profile : Machine.t -> Graph.t -> Mapping.t -> (int * float) list
(** Noise-free per-task times under a mapping — the profiling run of
    §3.3 that seeds the search's task ordering.  Raises [Failure] if
    the mapping cannot be placed. *)

(** {1 Event queue}

    The simulator's event queue, exposed for its unit tests.  A
    monomorphic binary min-heap with float priority and int payload in
    three parallel flat arrays, plus a lane: an int ring buffer of the
    payloads pushed at the queue's clock, in push order.  The clock is
    the priority of the last heap pop made while the lane was empty
    (0.0 after [create] and [reset]); a push at the clock joins the
    lane, and the lane's front pops next unless the heap's top
    priority is at or below the clock.  Entries pop in (priority,
    insertion order), exactly like the test oracle's polymorphic heap,
    which is what keeps a compiled simulation bit-identical to the
    oracle: lane entries all sit at the clock in push order, a heap
    entry at the clock was pushed before the clock took that value (so
    it pops first), and the clock moves only while the lane is empty.
    Pushing and popping never allocate.  The inspection API is split
    ([top_prio] / [top] / [drop]) so the event loop touches no boxed
    value. *)

module Fheap : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 16) pre-sizes the heap and the lane; both
      grow by doubling. *)

  val is_empty : t -> bool

  val push : t -> float -> int -> unit
  (** [push h prio payload] inserts [payload] with priority [prio]. *)

  val top_prio : t -> float
  (** Priority of the minimum entry.  Undefined (reads stale storage)
      on an empty heap — guard with {!is_empty}. *)

  val top : t -> int
  (** Payload of the minimum entry.  Same caveat as {!top_prio}. *)

  val drop : t -> unit
  (** Removes the minimum entry.  No-op on an empty queue. *)

  val reset : t -> unit
  (** Empties the queue and rewinds the clock to 0.0 and the insertion
      sequence to 0, keeping the backing arrays — the per-simulation
      reset. *)
end
