(** The coordinate-descent sweep shared by CD and CCD — OptimizeTask
    over every task, longest-running first (Algorithm 1 lines 6,
    10–19) — expressed as a resumable cursor for {!Engine}.

    A cursor enumerates, task by task, the same candidate coordinates
    the legacy loops tested: first the distribution setting, then
    jointly the processor kind and, per collection argument in
    decreasing size order, the memory kind.  Each candidate is
    materialized against the caller's {e current} incumbent only when
    {!next} is called, so an accept in between changes subsequent
    candidates exactly as the in-place legacy loops did.  When an
    overlap graph is supplied (CCD), every candidate is repaired into
    co-location-satisfying form by Algorithm 2 before being returned;
    plain CD yields the raw candidate (Algorithm 1 "excluding
    line 17").

    The cursor also owns the sweep's bookkeeping side effects:
    analyzer-dead coordinates are counted ({!Evaluator.note_dead_coords})
    when a task is entered, and candidates equal to the incumbent after
    repair are counted ({!Evaluator.note_noop_neighbor}) and skipped
    rather than returned. *)

type t

val start :
  ?surrogate:Surrogate.t ->
  Evaluator.t ->
  overlap:Overlap.t option ->
  profile:Profile.t ->
  t
(** Fresh sweep: task order is fixed now from [profile]
    (runtime-descending), candidates are generated lazily.

    With [surrogate] the cursor runs in {e ranked mode}: a
    {!next_gated} batch is the whole current task's candidates permuted
    best-predicted-first by {!Surrogate.rank} (truncated to the top-K
    when the surrogate carries a skim setting, dropped candidates
    counted as surrogate skips), and the task's specs are consumed
    atomically at build time.  {!next} proposes the same ranked order
    one candidate at a time from an internal queue ({!abandon} drops it
    on an accept), so ranked-batched and ranked-sequential drives are
    bit-identical.
    The queue {e is} serialized by {!encode}: the permutation depends
    on the model weights as they stood before the batch trained on its
    own results, so it cannot be re-derived at decode time — carrying
    it makes resume exact even when the engine truncated a ranked
    batch at the trial budget. *)

val next : t -> incumbent:Mapping.t -> Mapping.t option
(** The next candidate to evaluate, built from [incumbent]; [None] when
    the sweep is complete.  Advancing may consume no-op specs (counted)
    and enter new tasks (dead-coordinate accounting). *)

val default_min_batch : int
(** Default minimum round size below which {!next_gated} prefers the
    sequential drive — BENCH_searchrate.json showed sub-this-size
    batches losing to sequential evaluation (geomean 0.981 at smoke
    sizes), so batching only engages past the amortization point. *)

val next_gated :
  t ->
  incumbent:Mapping.t ->
  min_batch:int ->
  [ `Done | `Batch of Mapping.t array | `Seq of Mapping.t ]
(** Size-gated proposal round: [`Batch] with the current task's
    remaining (non-no-op) candidates, all built against [incumbent],
    when it holds at least [min_batch] of them; [`Seq] with one
    candidate at a time (the same candidates in the same order) below
    the gate; [`Done] when the sweep is complete.  Leading no-ops and
    task-entry accounting are settled eagerly; the specs of a plain
    batch are consumed only as verdicts arrive, so candidates past the
    last delivered one are rebuilt by the next round against the
    then-current incumbent — exactly the state a sequential {!next}
    caller that stopped at the same point would be in.  In ranked mode
    (see {!start}) a resumed cursor holding an undelivered remainder of
    a truncated batch returns it verbatim, in its original model order.

    Every verdict — batched or sequential — is acknowledged with
    {!deliver_verdict}.  Decision-identical to the sequential drive for
    any [min_batch]: the gate only switches between two bit-identical
    representations, and it is re-decided each round from checkpointed
    cursor state, so resumed runs reproduce it.  [min_batch <= 1]
    always batches; [max_int] never does. *)

val deliver_verdict : t -> unit
(** Acknowledge one verdict after a {!next_gated} round.  A plain batch
    consumes the candidate's spec plus the gap no-ops before it
    (counted now — same totals as {!next}, which counts them on its way
    to the candidate); a ranked batch drains the queued candidate, so a
    budget-truncated batch leaves exactly the undelivered remainder in
    the (serialized) queue; a gated sequential round has nothing left
    to consume.
    @raise Invalid_argument with no outstanding batch candidate. *)

val abandon : t -> unit
(** Ranked mode, on an accept: drop the rest of the current ranked
    batch — those candidates were built against the replaced incumbent.
    No-op in plain mode and after batched delivery. *)

val encode : t -> string
(** Checkpoint line: task order + position.  Candidate specs are
    re-derived from the space on {!decode}, so the line stays small. *)

val decode :
  ?surrogate:Surrogate.t ->
  Evaluator.t ->
  overlap:Overlap.t option ->
  string ->
  (t, string) result
(** Rebuild a cursor mid-sweep.  Entry accounting for the current task
    is {e not} redone — the restored evaluator counters already include
    it.  [surrogate] resumes the cursor in ranked mode (the caller
    restores the model itself from the checkpoint's surrogate
    section). *)
