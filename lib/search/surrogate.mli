(** Online surrogate cost model: a feature-hashed linear regressor on
    log-makespan, trained from every exact evaluation the engine
    performs and used to pre-rank candidate rounds by predicted
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
    round is therefore a quality heuristic, not an approximation: see
    {!Descent.start} and DESIGN.md §12. *)

type t

val create : Space.t -> t
(** A fresh model for the space's (graph, machine) pair, weights all
    zero: 512 hashed features, base learning rate 0.3, and a 64-entry
    (predicted, actual) ring buffer behind {!spearman}. *)

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

val trained : t -> int
val reranks : t -> int

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
    observation window, floats in hex ([%h]) for bit-exact restore.
    The header's skim field is always [-] and the third counter always
    0: skim mode is gone, and the layout stays so that envelopes
    written before it went still restore. *)

val restore : t -> string list -> (unit, string) result
(** Inverse of {!save} into a freshly {!create}d model.  Fails if the
    header disagrees with the model's configuration or its graph or
    machine — restoring weights into a different schema would silently
    change every subsequent rank — and, saying that skim mode is gone,
    if the header carries a skim setting. *)
