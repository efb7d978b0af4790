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
    generalized mapping).

    A placement is held as int planes ({!planes}): a processor id per
    task shard, a memory id per collection shard and the bytes charged
    to each memory.  {!resolve_with} fills fresh planes and wraps them
    in an immutable {!t}; the simulator's bind owns one set of planes,
    which a full resolve ({!resolve_into}) rewrites and a delta
    ({!patch}) patches in place. *)

type error =
  | Invalid_mapping of string    (** violates §4.2 constraint (1) *)
  | Out_of_memory of string      (** a memory capacity is exceeded *)

val error_to_string : error -> string

(** {1 Plans} *)

type plan = private {
  pmachine : Machine.t;
  pgraph : Graph.t;
  task_off : int array;
      (** task [tid]'s shards are [task_off.(tid) .. task_off.(tid + 1) - 1];
          length [n_tasks + 1] *)
  col_off : int array;
      (** collection [cid]'s instances (one per shard of its owner) are
          [col_off.(cid) .. col_off.(cid + 1) - 1] *)
  col_owner : int array;
  col_bytes : float array;
  arg_off : int array;
  args : int array;
      (** task [tid]'s arguments, in {!Graph.task}'s order, are
          [args.(arg_off.(tid) .. arg_off.(tid + 1) - 1)] *)
  steps : int array;       (** collections in placement order *)
  step_of : int array;
  prod_off : int array;
  prod : int array;        (** each collection's alias sources, CSR *)
  dept_off : int array;
  dept : int array;        (** the reverse of [prod] *)
  closest : int array;
      (** [pid * 3 + Kinds.rank_mem k]: the memory of kind [k] closest
          to processor [pid], -1 where [k] is not addressable *)
}
(** Mapping-independent placement structure for one (machine, graph)
    pair, as flat arrays.  Immutable; safe to share across domains. *)

val plan : Machine.t -> Graph.t -> plan

(** {1 Planes} *)

type planes = private {
  proc : int array;     (** task shard -> processor id *)
  mem : int array;      (** collection shard -> memory id *)
  usage : float array;  (** memory id -> bytes charged *)
  mutable demotions : int;
  node_rank : int array;
}
(** A placement as int planes, indexed by the plan's shard numbering.
    Mutable: whoever owns a set rewrites it in place. *)

val planes : plan -> planes
(** Fresh planes, holding no placement yet. *)

val resolve_into :
  fallback:bool -> plan -> planes -> Mapping.t -> (unit, error) Stdlib.result
(** Resolve [mapping] into the planes: the work of {!resolve_with},
    allocating nothing when it succeeds.  On [Invalid_mapping] the
    planes are untouched; on [Out_of_memory] they hold a partial
    placement. *)

type workspace
(** {!patch}'s buffers: marks, work lists and the undo log, sized by the
    plan once. *)

val workspace : plan -> workspace

val patch :
  plan ->
  planes ->
  workspace ->
  old:Mapping.t ->
  Mapping.t ->
  tids:int array ->
  n_tids:int ->
  cids:int array ->
  n_cids:int ->
  bool
(** [patch pl p ws ~old mapping ~tids ~n_tids ~cids ~n_cids] turns
    planes holding [old]'s strict placement into [mapping]'s, where the
    two mappings differ exactly at the first [n_tids] task coordinates
    of [tids] and the first [n_cids] collection coordinates of [cids]
    (as {!Mapping.task_diff} and {!Mapping.collection_diff} write
    them).  Only the changed tasks' shards, the instances of the
    collections they and [cids] affect, and the charges of those
    collections and their direct alias consumers are rewritten.
    Answers true when the planes now equal
    [resolve_into ~fallback:false]'s for [mapping], allocating nothing.
    Answers false when [mapping] is invalid or overflows a capacity:
    the planes then hold [old]'s placement again, bit for bit (an undo
    log restores the moved usage; the moved instances are re-derived
    from [old]), and the verdict and its message are
    [resolve_with pl mapping]'s. *)

(** {1 Placements} *)

type t
(** A resolved placement: planes no one writes again. *)

val resolve :
  ?fallback:bool -> Machine.t -> Graph.t -> Mapping.t -> (t, error) Stdlib.result
(** [fallback] defaults to false (strict). *)

val resolve_with : ?fallback:bool -> plan -> Mapping.t -> (t, error) Stdlib.result
(** Exactly {!resolve} against a precomputed plan.  The errors and
    their messages are the canonical ones: the first invalid coordinate
    in task order, or the first instance in placement order that does
    not fit. *)

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
