(** Simulated annealing over valid mappings — an ablation baseline that
    *can* accept cost-increasing moves (unlike CD) but makes them one
    coordinate at a time (unlike CCD's coordinated co-location moves).
    §4.2 argues exactly this class of algorithm is unlikely to find
    solutions that require moving several overlapping collections
    together; the ablation bench quantifies that claim. *)

val default_max_evals : int
(** 2000: the evaluation cap of {!make} and of the CLI/wire name
    ["annealing"]. *)

val make : ?seed:int -> ?max_evals:int -> Evaluator.t -> Engine.strategy
(** Annealing as an engine strategy (name ["annealing"]), stopping after
    [max_evals] proposals.  Geometric cooling: the temperature starts
    at 0.3 (relative to the starting performance) and is multiplied by
    0.995 per step; a worse candidate with Δ relative regression is
    accepted with probability exp(−Δ/T).  The acceptance variate is
    drawn {e before} the evaluation and the Metropolis test is applied
    as the equivalent threshold [perf < current + p0·T·(−ln u)], which
    travels as the proposal's {!Engine.hint.bound}: an exact pruning
    bound for {!Evaluator.evaluate}.  Mutations are single-coordinate
    and constraint-repairing (a processor move re-maps newly
    inaccessible arguments to the fastest accessible kind). *)

val decode : Evaluator.t -> string list -> (Engine.strategy, string) result
(** Rebuild a checkpointed annealing strategy: RNG state, temperature,
    current point and evaluation count restored bit-exactly. *)
