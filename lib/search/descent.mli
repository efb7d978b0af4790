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

    With [surrogate] the cursor runs in {e ranked mode}: a round is
    the whole current task's candidates, built against one incumbent
    and permuted best-predicted-first by {!Surrogate.rank}, and the
    task's specs are consumed at once.  {!next} proposes the round one
    candidate at a time from an internal queue, and {!abandon} drops
    the queue on an accept.  The queue {e is} serialized by {!encode}:
    the permutation depends on the model weights as they stood before
    the round trained on its own results, so it cannot be re-derived
    at decode time. *)

val next : t -> incumbent:Mapping.t -> Mapping.t option
(** The next candidate to evaluate, built from [incumbent]; [None] when
    the sweep is complete.  Advancing may consume no-op specs (counted)
    and enter new tasks (dead-coordinate accounting).  In ranked mode
    the candidate comes from the current ranked round, and a new round
    is built when it is empty. *)

val abandon : t -> unit
(** Ranked mode, on an accept: drop the rest of the current ranked
    round — those candidates were built against the replaced
    incumbent.  No-op in plain mode. *)

val default_min_batch : int
(** 24.  Nothing in lib reads it; it stays while the benchmark's traced
    rebuild of a serve map job passes it to {!Driver.make_strategy}. *)

val encode : t -> string
(** Checkpoint line: task order + position, and in ranked mode the
    queue's keys.  Candidate specs are re-derived from the space on
    {!decode}, so the line stays small. *)

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
    section).  A queue ending in the word [gated], which envelopes
    written while a ranked round could also be one batch may carry,
    decodes to the same cursor as the line without it. *)
