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
    — decision-identical to sequential proposals (CD's acceptance test
    is exactly [perf < incumbent], the batch contract) with the
    per-step engine work amortized over the set;
    {!Evaluator.evaluate_batch} skips candidates past the first
    improvement.  [min_batch]
    (default 1: always batch) gates each round through
    {!Descent.next_gated}: rounds below the threshold are proposed
    sequentially, past the amortization point as batches — still
    decision-identical for any value.

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
    flag (batching is decision-neutral, and so is the [min_batch]
    gate); pass [batch]/[min_batch] to resume in (gated) batch mode
    and [surrogate] (restored from the checkpoint's surrogate section)
    to resume ranked mode decision-identically. *)

val search :
  ?batch:bool ->
  ?min_batch:int ->
  ?surrogate:Surrogate.t ->
  ?start:Mapping.t ->
  ?budget:float ->
  Evaluator.t ->
  Mapping.t * float
(** Returns the best mapping found and its measured performance.
    [budget] bounds the evaluator's virtual search time (default
    unlimited).  Convenience wrapper over {!Engine.run} with {!make}. *)
