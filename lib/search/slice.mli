(** Time-sliced search execution for the serve daemon.

    A request's search runs as a chain of slices, each at most
    [slice_trials] evaluated proposals.  Each slice is a
    {!Driver.session} — built, budgeted and finished exactly as
    {!Driver.run} does it — so a sliced search returns the same answer
    as {!Driver.run} with the same configuration: same trials, same
    search best, same final mapping and perf.

    Between slices a search stays live ({!live}): its evaluator
    (profiles database, partials, clocks), strategy, surrogate and
    seen-set, with the engine's counters advanced past the slice
    ({!Driver.advance}) and no {!Exec.scratch}.  {!continue} runs the
    next slice on the scratch its caller builds for it, on whichever
    domain; only the immutable {!Exec.compiled} problem is shared.

    The checkpoint envelope ({!envelope}) is the durability and
    recovery format only: the server writes one after a paused slice
    when it has a state directory, and {!resume} continues from one,
    decision-identically.  {!start} and {!resume} are the envelope
    path end to end — every pause becomes an envelope — and stay the
    reference a live chain is checked against. *)

type cfg = Driver.cfg = {
  algo : Driver.algo;
  runs : int;                  (** per-candidate measurement runs (§5: 7) *)
  noise_sigma : float option;  (** [None] = evaluator default *)
  iterations : int option;
  seed : int;
  budget : float option;       (** request's virtual-time cap *)
  max_trials : int option;     (** request's total evaluated-trial cap *)
  batch : bool;
  min_batch : int;
  surrogate : bool;
  surrogate_skim : int option;
  symmetry : bool;   (** orbit canonicalization + seen-set skipping *)
  dominance : bool;  (** dominance-pruned choice lists *)
  heft_seed : bool;
  final_top : int;
  final_runs : int;
}
(** {!Driver.cfg} under its serve-side name.  The server derives cache
    keys from it and rebuilds identical slice drivers from it on
    restart. *)

val default_cfg : cfg
(** {!Driver.default_cfg} — the serve daemon's per-request defaults. *)

val algo_spec : Driver.algo -> string
(** Compact wire spelling of an algorithm, e.g. ["ccd:5"],
    ["random:1000"] — the inverse of the CLI/wire algo parsers. *)

val fingerprint : cfg -> string
(** Hex digest of the full search identity.  Together with the machine
    and graph fingerprints this keys the server's result memo: equal
    triples and the same warm start guarantee bit-equal answers. *)

type finished = {
  best : Mapping.t;       (** winner of the final protocol *)
  perf : float;           (** its final average *)
  best_runs : float list; (** the final protocol's runs for it *)
  search_best : Mapping.t;
  search_perf : float;
  trials : int;
}

type progress = {
  ckpt : string;        (** checkpoint envelope — feed to {!resume} *)
  p_trials : int;
  p_best_perf : float;
}

type status = Finished of finished | Paused of progress

(** {2 Live slices} *)

type live
(** A paused search held in memory: what its envelope would encode,
    as objects, and no scratch. *)

type live_status = Done of finished | Suspended of live

val start_live :
  ?scratch:Exec.scratch ->
  ?warm_start:Mapping.t ->
  slice_trials:int ->
  cfg ->
  Machine.t ->
  Graph.t ->
  live_status * Evaluator.t
(** {!start}, pausing live, over [scratch]'s compiled problem when
    given (the compile-cache path). *)

val resume_live :
  ?scratch:Exec.scratch ->
  slice_trials:int ->
  cfg ->
  Machine.t ->
  Graph.t ->
  ckpt:string ->
  (live_status * Evaluator.t, string) result
(** {!resume}, pausing live: how a server restarted from its state
    directory takes its jobs back. *)

val continue :
  scratch:Exec.scratch ->
  slice_trials:int ->
  live ->
  live_status * Evaluator.t
(** The next slice of a paused search, on [scratch] (from
    [Exec.compile] of the search's machine and graph; a fresh one is
    fine).  Decision-identical to resuming from the search's
    {!envelope}.  Consumes the [live]: continue the one it returns. *)

val envelope : live -> string
(** The checkpoint envelope of a paused search — what {!start} and
    {!resume} return in {!progress.ckpt}. *)

val live_trials : live -> int
(** Trials evaluated so far. *)

val live_best_perf : live -> float
(** Best search perf so far. *)

(** {2 The envelope path} *)

val start :
  ?warm_start:Mapping.t ->
  slice_trials:int ->
  cfg ->
  Machine.t ->
  Graph.t ->
  status * Evaluator.t
(** First slice: build the {!Driver.session} (with an empty profiles
    database) and run at most [slice_trials] trials.  [warm_start]
    seeds the search from a memoized incumbent instead of the
    default/HEFT start; warm-started searches explore a different —
    typically shorter — trajectory, which is exactly their point.  The returned evaluator
    carries the slice's stats and profiles database; after a pause it
    holds no scratch. *)

val resume :
  slice_trials:int ->
  cfg ->
  Machine.t ->
  Graph.t ->
  ckpt:string ->
  (status * Evaluator.t, string) result
(** Continue a paused search from its envelope, decision-identically:
    {!Driver.session} restores the profiles database, evaluator state,
    strategy cursor, seen-set and surrogate from [ckpt] ([cfg] must be
    the one the chain started with — the evaluator fingerprint check
    enforces the eval-identity part).  Errors on a corrupt or
    mismatched envelope. *)
