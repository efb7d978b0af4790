(** Time-sliced search execution for the serve daemon.

    A request's search runs as a chain of slices: {!start} performs the
    first [slice_trials] evaluated proposals, {!resume} continues from
    the checkpoint envelope the previous slice produced.  Between
    slices the search exists only as that envelope — the server can
    persist it, re-enqueue it behind other requests, or hand it to a
    different worker domain (each slice builds a fresh evaluator, so
    only the immutable {!Exec.compiled} problem is shared).  Because
    pause/resume is the {!Engine} checkpoint codec, the sliced search
    is decision-identical to the unsliced one; SIGTERM durability falls
    out of persisting the envelope after every slice. *)

type cfg = {
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
(** Everything that determines a search's decision stream (plus the
    decision-neutral batching knobs).  The server derives cache keys
    from it and rebuilds identical slice drivers from it on restart. *)

val default_cfg : cfg
(** CCD(5), 7 runs, seed 0, no caps, gated batching with
    {!Descent.default_min_batch}, surrogate on, symmetry and dominance
    reduction on — the serve daemon's per-request defaults. *)

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
(** First slice: build the evaluator (over [scratch]'s compiled problem
    when given — the compile-cache path), seed the profiles database
    from [db] (the shared pool), run at most [slice_trials] trials.
    [warm_start] seeds the search from a memoized incumbent instead of
    the default/HEFT start; warm-started searches explore a different — typically shorter —
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
    profiles database, evaluator state, strategy cursor and surrogate
    all restore from [ckpt] ([cfg] must be the one the chain started
    with — the evaluator fingerprint check enforces the eval-identity
    part).  Errors on a corrupt or mismatched envelope. *)
