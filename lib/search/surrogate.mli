(** Online surrogate cost model: a feature-hashed linear regressor on
    log-makespan, trained from every exact evaluation the engine
    performs and used to pre-rank candidate batches by predicted
    makespan (ROADMAP item 3, following the graph-representation-
    learning mapping line of arXiv 2204.11981).

    The model is pure OCaml with no dependencies and a reused sparse
    scratch on the prediction path: features are hashed (FNV-1a) into a fixed
    [dims]-sized weight vector, updates are SGD with per-feature
    adaptive (AdaGrad-style) learning rates, and predictions are plain
    sparse dot products.  Features are computable from the mapping and
    graph alone — per-coordinate (task-kind, proc-kind) and
    (collection-kind, mem-kind) choices weighted by work/size, the
    analyzer domain sizes of the chosen coordinates, and the
    diff-vs-incumbent coordinates — never from simulation, so ranking a
    candidate costs microseconds where simulating it costs
    milliseconds.

    The surrogate only ever {e orders} candidates; every verdict the
    search acts on still comes from the exact evaluator.  Reranking a
    batch is therefore a quality heuristic, not an approximation: see
    {!Descent.next_gated} and DESIGN.md §12 for the exact guarantees
    (ranked-batch ≡ ranked-sequential bit-equality, and the
    never-worse-final-best golden gate for skim mode). *)

type t

val create : ?dims:int -> ?eta:float -> ?window:int -> ?skim:int -> Space.t -> t
(** A fresh model for the space's (graph, machine) pair, weights all
    zero.  [dims] (default 512) is the hashed feature-vector width,
    [eta] (default 0.3) the base learning rate, [window] (default 64)
    the size of the (predicted, actual) ring buffer behind
    {!spearman}.  [skim] (default [None]) caps ranked batches to the
    top-[skim] predicted candidates ({!Descent}); it is carried here so
    checkpoints preserve the decision-relevant configuration.
    @raise Invalid_argument if [dims < 8], [window < 2] or
    [skim <= 0]. *)

val skim : t -> int option

val skim_active : t -> int option
(** [skim], gated by warmup: [None] until the model has absorbed at
    least [2 * window] observations.  Skimming on an untrained model
    discards candidates essentially at random and can converge descent
    prematurely; ranked-but-full batches cost nothing extra, so early
    batches go unskimmed.  Deterministic in [trained], which
    checkpoints carry — resume skims exactly where the uninterrupted
    run would. *)

val graph : t -> Graph.t

val observe : t -> Mapping.t -> float -> unit
(** One SGD step toward [log perf]; non-finite or non-positive [perf]
    (penalty values) is recorded nowhere and changes nothing.  The
    engine calls this for every [Eval] event, so bounded evaluations
    train on their certified loser value — a lower bound, biased but
    ordered correctly against the incumbent (DESIGN.md §12). *)

val note_incumbent : t -> Mapping.t -> unit
(** The search's current incumbent — the reference point for the
    diff-vs-incumbent features of every subsequent prediction. *)

val predict : t -> Mapping.t -> float
(** Predicted log-makespan.  Deterministic in the model state; never
    simulates. *)

val rank : t -> Mapping.t array -> int array
(** A permutation of [0 .. n-1] ordering the candidates by ascending
    predicted makespan, ties broken by original index (stable).  Arrays
    of length [<= 1] are returned identity without counting a rerank. *)

val note_skips : t -> int -> unit
(** Record [n] candidates dropped by skim-mode batch truncation. *)

val trained : t -> int
val reranks : t -> int
val skips : t -> int

val spearman : t -> float
(** Spearman rank correlation between predicted and actual
    log-makespan over the observation window ([nan] until at least 8
    observations) — the online estimate of how trustworthy the ranking
    is. *)

val features : t -> Mapping.t -> (int * float) list
(** The hashed sparse feature vector, ascending index — exposed for the
    property tests (totality, stability); not part of the search
    path. *)

val save : t -> string list
(** Checkpoint lines: configuration header (fingerprint-guarded),
    counters, reference incumbent, non-zero weight entries and the
    observation window, floats in hex ([%h]) for bit-exact restore. *)

val restore : t -> string list -> (unit, string) result
(** Inverse of {!save} into a freshly {!create}d model.  Fails if the
    header disagrees with the model's configuration ([dims], [eta],
    [window], [skim], graph or machine) — restoring weights into a
    different schema would silently change every subsequent rank. *)
