(** Coordinate-wise descent (§4.1).

    One pass of OptimizeTask over every task — equivalent to the final
    (fully pruned) rotation of CCD — starting from the §4.1 starting
    point: group tasks distributed, GPU-capable tasks on GPUs,
    collections in the fastest memory of the chosen kind.  Runtime is
    linear in tasks × collections. *)

val make :
  ?batch:bool ->
  ?min_batch:int ->
  ?surrogate:Surrogate.t ->
  Evaluator.t ->
  Engine.strategy
(** CD as an engine strategy (name ["cd"]).  [batch] (default false)
    emits each task's whole neighbour set as one {!Engine.Propose_batch}
    (CD's acceptance test is exactly [perf < incumbent], the batch
    contract); the engine delivers it one candidate at a time and stops
    at the first improvement.  [min_batch] (default 1: always batch)
    gates each round through {!Descent.next_gated}: rounds below the
    threshold are proposed one candidate at a time.

    [surrogate] runs the sweep cursor in ranked mode: each task's batch
    is permuted best-predicted-first (and skimmed to the top-K when the
    model carries a skim setting) — see {!Descent.start}.  Pass the
    same model to {!Engine.run} so it trains from the evaluations. *)

val decode :
  ?batch:bool ->
  ?min_batch:int ->
  ?surrogate:Surrogate.t ->
  Evaluator.t ->
  string list ->
  (Engine.strategy, string) result
(** Rebuild a checkpointed CD strategy from its {!Engine.strategy.encode}
    lines; re-pins the restored incumbent.  Checkpoints carry no batch
    flag: pass [batch]/[min_batch] to resume in (gated) batch mode and
    [surrogate] (restored from the checkpoint's surrogate section) to
    resume ranked mode decision-identically. *)
