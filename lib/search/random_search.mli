(** Pure random search over *valid* mappings — a sanity baseline for
    the ablation benchmarks (not in the paper's algorithm set, but the
    natural lower bar: it shares AutoMap's constraint knowledge yet
    makes no coordinated or local moves). *)

val default_max_evals : int
(** 1000: the evaluation cap of {!make} and of the CLI/wire name
    ["random"]. *)

val make : ?seed:int -> ?max_evals:int -> Evaluator.t -> Engine.strategy
(** Random search as an engine strategy (name ["random"]): samples
    valid mappings uniformly until [max_evals] proposals, each bounded
    by the engine's best-so-far. *)

val decode : Evaluator.t -> string list -> (Engine.strategy, string) result
