(** Concrete placement: from kind-level mapping decisions to devices.

    This is the deterministic "runtime logic" half of §3.2's
    factorization.  Given a mapping, every shard of every group task is
    assigned a concrete processor — blocked across nodes (or all on the
    leader node when the distribution bit is off, §3.1), round-robin
    across the same-kind processors within a node — and every
    collection argument of that shard is materialized in the memory of
    the mapped kind closest to that processor.

    Placement also performs the capacity check of §3.1/§5.2: the bytes
    resident in each physical memory are accumulated, and a mapping
    that exceeds a capacity either fails with [Out_of_memory] (strict
    mode, the behaviour the search relies on) or, in fallback mode,
    demotes the argument along its memory priority list (§3.1's
    generalized mapping). *)

type t

type error =
  | Invalid_mapping of string    (** violates §4.2 constraint (1) *)
  | Out_of_memory of string      (** a memory capacity is exceeded *)

val resolve :
  ?fallback:bool -> Machine.t -> Graph.t -> Mapping.t -> (t, error) Stdlib.result
(** [fallback] defaults to false (strict). *)

(** {1 Plans and delta placement}

    A search resolves thousands of candidate mappings against the same
    (machine, graph) pair, and hill-climbing candidates differ from
    their incumbent in one or two coordinates.  A {!plan} captures the
    mapping-independent placement structure (the topological placement
    order and each collection's alias sources) once; {!resolve_with}
    resolves against it without re-deriving that structure, and
    {!patch} re-resolves only what a coordinate change can affect. *)

type plan
(** Mapping-independent placement structure for one (machine, graph)
    pair.  Immutable; safe to share across domains. *)

val plan : Machine.t -> Graph.t -> plan
val plan_machine : plan -> Machine.t
val plan_graph : plan -> Graph.t

val resolve_with : ?fallback:bool -> plan -> Mapping.t -> (t, error) Stdlib.result
(** Exactly {!resolve} against a precomputed plan (bit-identical
    result, including error messages). *)

val patch :
  plan -> t -> Mapping.t -> tids:int list -> cids:int list -> (t, error) Stdlib.result
(** [patch pl prev mapping ~tids ~cids] resolves [mapping] strictly
    (no fallback), reusing [prev] — a *strict* placement of a mapping
    that differs from [mapping] exactly at task coordinates [tids] and
    collection coordinates [cids] (as computed by {!Mapping.diff}).
    Shard processors are recomputed only for [tids]; memory arrays are
    recomputed only for collections in [cids] or owned by a task in
    [tids]; capacity charges are adjusted only where they can change
    (those collections plus their direct alias consumers).  Byte counts
    are integers, so the adjusted totals are exact, and a capacity
    violation defers to a full {!resolve_with} for the canonical
    verdict — the result (placements, usage, OOM or invalid-mapping
    errors and their messages) is identical to
    [resolve_with ~fallback:false pl mapping]. *)

val shards : t -> int -> int
(** Number of shards of task [tid] (its group size). *)

val processor : t -> tid:int -> shard:int -> Machine.processor

val arg_memory : t -> cid:int -> shard:int -> Machine.memory
(** The memory instance actually holding the argument for that shard
    (after any fallback demotion). *)

val effective_mem_kind : t -> cid:int -> shard:int -> Kinds.mem_kind

val demotions : t -> int
(** How many (argument, shard) placements fell back to a lower-priority
    memory kind (0 in strict mode). *)

val bytes_resident : t -> Machine.memory -> float
(** Bytes accounted to a concrete memory by this placement. *)

val error_to_string : error -> string
