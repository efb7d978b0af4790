(** Constrained coordinate-wise descent — Algorithm 1, the paper's
    core contribution (§4.2).

    CCD runs [rotations] full coordinate-descent sweeps.  During a
    sweep, every candidate move is repaired by the co-location
    constraints of Algorithm 2 against the current overlap graph C, so
    overlapping collections move *together* — the coordinated moves
    that let CCD jump between basins (e.g., all shared collections
    from Frame-Buffer to Zero-Copy at once) that strictly-improving
    per-collection moves cannot reach.  After each rotation,
    ⌈E₀/(rotations−1)⌉ of the lightest remaining edges of C are pruned,
    so the data-movement constraint is progressively relaxed until the
    final rotation is an unconstrained CD.

    Each rotation starts from the best mapping of the previous one and
    re-profiles it to refresh the longest-running-first task order. *)

val make :
  ?batch:bool ->
  ?min_batch:int ->
  ?surrogate:Surrogate.t ->
  ?rotations:int ->
  Evaluator.t ->
  Engine.strategy
(** CCD as an engine strategy (name ["ccd"]); emits a
    {!Engine.Phase} marker at each rotation entry.  [batch] (default
    false) emits each task's whole neighbour set as one
    {!Engine.Propose_batch} (see {!Cd.make}).  [min_batch] (default 1)
    gates sub-threshold rounds back to single proposals (see
    {!Cd.make} and {!Descent.next_gated}).  [surrogate] ranks each batch
    best-predicted-first (see {!Cd.make} and {!Descent.start}) in
    every rotation.  [rotations] defaults to 5 (the paper's setting;
    fewer behaves like CD, more wastes search time — §5).
    @raise Invalid_argument if [rotations < 2]. *)

val decode :
  ?batch:bool ->
  ?min_batch:int ->
  ?surrogate:Surrogate.t ->
  Evaluator.t ->
  string list ->
  (Engine.strategy, string) result
(** Rebuild a checkpointed CCD strategy mid-rotation: the overlap graph
    is re-derived (pruning is deterministic), the sweep cursor and
    incumbent restored.  [batch], [min_batch] and [surrogate] as in
    {!Cd.decode}. *)
