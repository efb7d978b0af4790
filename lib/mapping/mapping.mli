(** A mapping f (§2, factored as in §3.2).

    After AutoMap's factorization, a mapping assigns to every group
    task a distribution bit (run on the leader node vs. blocked across
    all nodes, §3.1) and a processor *kind*, and to every collection
    argument a memory *kind*:

      f(t, c) = (d, k_p, k_m)

    The runtime logic (the simulator's mapper) later picks concrete
    devices: shards are placed blocked across nodes and round-robin
    across same-kind processors within a node, and each argument goes
    to the memory of the chosen kind closest to the chosen processor.

    Values are immutable; updates return new mappings (the search's
    TestMapping discipline relies on candidate mappings being
    independent values). *)

type t

(** How a distributed group task's shards are laid out across nodes —
    the paper fixes this to [Blocked] and flags searching it as future
    work (§3.2, and the §5 Circuit discussion of blocked vs.
    round-robin decomposition); the extended search space exposes it
    as a dimension. *)
type dist_strategy = Blocked | Cyclic

val strategy_to_string : dist_strategy -> string
val strategy_of_string : string -> dist_strategy option

val make :
  ?strategy:(Graph.task -> dist_strategy) ->
  Graph.t ->
  distribute:(Graph.task -> bool) ->
  proc:(Graph.task -> Kinds.proc_kind) ->
  mem:(Graph.collection -> Kinds.mem_kind) ->
  t
(** Build from per-task / per-argument choice functions; [strategy]
    defaults to [Blocked] for every task (the paper's fixed choice). *)

val default_start : Graph.t -> Machine.t -> t
(** The starting point of §4.1: group tasks distributed across all
    nodes, tasks with a GPU variant on GPUs (when the machine has
    GPUs), every collection in the fastest memory accessible from the
    chosen processor kind (Frame-Buffer for GPU tasks, System for CPU
    tasks). *)

val all_cpu : Graph.t -> Machine.t -> t
(** Everything on CPUs with collections in System memory. *)

(** {1 Accessors} *)

val distribute_of : t -> int -> bool
(** By tid. *)

val strategy_of : t -> int -> dist_strategy

val proc_of : t -> int -> Kinds.proc_kind
val mem_of : t -> int -> Kinds.mem_kind
(** By cid. *)

(** {1 Functional updates} *)

val set_distribute : t -> int -> bool -> t
val set_strategy : t -> int -> dist_strategy -> t
val set_proc : t -> int -> Kinds.proc_kind -> t
val set_mem : t -> int -> Kinds.mem_kind -> t

(** {1 Validity (§4.2 constraint (1))} *)

val validate : Graph.t -> Machine.t -> t -> (unit, string) result
(** Checks that every task's processor kind exists on the machine and
    the task has a variant for it, and that every collection argument's
    memory kind is accessible from its task's processor kind.  Returns
    a human-readable reason for the first failing check, in task
    order. *)

val is_valid : Graph.t -> Machine.t -> t -> bool
(** [Result.is_ok (validate g machine t)], without building a message:
    a valid mapping allocates nothing. *)

val memory_priority : t -> Graph.task -> int -> Kinds.mem_kind list
(** Priority list of memory kinds for an argument (§3.1's
    generalization): the mapped kind first, then the remaining kinds
    accessible from the task's processor kind.  The simulator's
    fallback mode walks this list when a memory is full. *)

(** {1 Identity} *)

val equal : t -> t -> bool

val diff : t -> t -> int list * int list
(** [diff a b] is [(tids, cids)]: the tasks whose distribution bit,
    strategy or processor kind differ between the two mappings, and the
    collections whose memory kind differs, both in ascending order.
    Search neighbors differ from their incumbent in one or two
    coordinates, which is what makes delta-aware placement
    ({!Placement.patch}) pay off.  Raises [Invalid_argument] when the
    mappings belong to graphs of different shape. *)

val task_diff : t -> t -> int array -> int
(** [task_diff a b buf] writes [diff a b]'s tids into [buf], in
    ascending order from index 0, and answers their count; it allocates
    nothing.  [buf] must hold one slot per task. *)

val collection_diff : t -> t -> int array -> int
(** {!task_diff} for the collections: [buf] must hold one slot per
    collection. *)

val canonical_key : t -> string
(** Stable, injective textual key (used by the profiles database to
    detect that a search algorithm re-suggested an already-evaluated
    mapping, §5.3). *)

val of_canonical_key : Graph.t -> string -> t option
(** Inverse of {!canonical_key} for the same graph; [None] when the key
    does not match the graph's task/argument counts or contains
    unknown codes.  Lets the profiles database be persisted and
    reloaded across search sessions. *)

val pp : Graph.t -> Format.formatter -> t -> unit
(** Multi-line human-readable rendering, one task per line. *)
