(** Coordinate-wise descent (§4.1).

    One pass of OptimizeTask over every task — equivalent to the final
    (fully pruned) rotation of CCD — starting from the §4.1 starting
    point: group tasks distributed, GPU-capable tasks on GPUs,
    collections in the fastest memory of the chosen kind.  Runtime is
    linear in tasks × collections. *)

val make : ?surrogate:Surrogate.t -> Evaluator.t -> Engine.strategy
(** CD as an engine strategy (name ["cd"]), one candidate per step
    against the incumbent's perf as the bound.  [surrogate] runs the
    sweep cursor in ranked mode: each task's candidates are proposed
    best-predicted-first — see {!Descent.start}.  Pass the same model
    to {!Engine.run} so it trains from the evaluations. *)

val decode :
  ?surrogate:Surrogate.t ->
  Evaluator.t ->
  string list ->
  (Engine.strategy, string) result
(** Rebuild a checkpointed CD strategy from its {!Engine.strategy.encode}
    lines; re-pins the restored incumbent.  Pass [surrogate] (restored
    from the checkpoint's surrogate section) to resume ranked mode
    decision-identically. *)
