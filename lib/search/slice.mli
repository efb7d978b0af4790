(** Time-sliced search execution for the serve daemon.

    A request's search runs as a chain of slices: {!start} performs the
    first [slice_trials] evaluated proposals, {!resume} continues from
    the checkpoint envelope the previous slice produced.  Between
    slices the search exists only as that envelope — the server can
    persist it, re-enqueue it behind other requests, or hand it to a
    different worker domain (each slice builds a fresh evaluator, so
    only the immutable {!Exec.compiled} problem is shared).  Each slice
    is a {!Driver.session} — built, budgeted and finished exactly as
    {!Driver.run} does it — and pause/resume is the {!Engine}
    checkpoint codec, so a sliced search returns the same answer as
    {!Driver.run} with the same configuration: same trials, same search
    best, same final mapping and perf.  SIGTERM durability falls out of
    persisting the envelope after every slice. *)

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
    triples guarantee bit-equal answers. *)

val eval_fingerprint : cfg -> string
(** Digest of only the evaluator-identity fields (runs, noise,
    iterations, seed).  Profiles measured under one eval identity are
    meaningless under another, so the shared profiles pool is
    segmented by (machine, graph, this). *)

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

val start :
  ?scratch:Exec.scratch ->
  ?db:Profiles_db.t ->
  ?warm_start:Mapping.t ->
  ?on_event:(Engine.event -> unit) ->
  slice_trials:int ->
  cfg ->
  Machine.t ->
  Graph.t ->
  status * Evaluator.t
(** First slice: build the {!Driver.session} (over [scratch]'s compiled
    problem when given — the compile-cache path — with the profiles
    database seeded from [db], the shared pool) and run at most
    [slice_trials] trials.  [warm_start] seeds the search from a
    memoized incumbent instead of the default/HEFT start;
    warm-started searches explore a different — typically shorter —
    trajectory, which is exactly their point.  The returned evaluator
    carries the slice's stats and profiles database. *)

val resume :
  ?scratch:Exec.scratch ->
  ?on_event:(Engine.event -> unit) ->
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
