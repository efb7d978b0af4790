(** Binding a mapping to a compiled problem: what the event loop reads.

    A bind holds, per instance slot, a noise-free duration, a processor
    and a node, and per dependence a channel, a class, a copy cost and,
    when routed, its endpoints' nodes — all functions of the placement
    alone.  A {!binder} is the mutable state that produces one: the
    bound placement as {!Placement.planes}, the bind tables, the bound
    mapping, and the buffers a rebind works in.

    Rebinding a near neighbour of the bound mapping (the hill-climbing
    common case) diffs the two mappings into preallocated buffers,
    patches the planes in place ({!Placement.patch}, whose undo log
    restores them when the neighbour is invalid or overflows a memory)
    and rebinds only the table entries the changed coordinates can
    reach.  Such a delta bind allocates nothing; a full bind resolves
    into a second set of planes, which it swaps in when the mapping
    fits and leaves aside when it does not.  Costs are computed here,
    over tables built once per problem, bit for bit as
    {!Cost.task_duration} and {!Machine.copy_cost} compute them: a call
    into another module would return a boxed float. *)

val n_channel_classes : int
(** Kind-level channel classes: host, cross-socket, PCIe, GPU peer,
    network.  A kind-level channel's slot is
    [node * n_channel_classes + class]. *)

val link_slot_base : nodes:int -> int
(** First busy-until slot of a topology's links: link [l] uses
    [link_slot_base ~nodes + l]. *)

(** A routed dep's [dep_chan] is [-2 - code]: [route_direct] for the
    [Direct] family's one hop, else the [stage_src] / [stage_dst] bits
    of the ends that stage through PCIe. *)

val stage_src : int
val stage_dst : int
val route_direct : int

type layout
(** What binding reads of a compiled problem, plus its cost tables.
    Immutable; safe to share across domains. *)

val layout :
  Machine.t ->
  Graph.t ->
  Placement.plan ->
  slot_shard:int array ->
  dep_src_slot:int array ->
  dep_src_cid:int array ->
  dep_dst_cid:int array ->
  dep_dst_slot:int array ->
  dep_bytes:float array ->
  layout
(** Instance slots are the plan's task shards; the dep arrays are the
    compiled problem's dependence CSR, shared, not copied. *)

type t = private {
  lay : layout;
  slot_dur : float array;
  slot_pid : int array;
  slot_node : int array;
  dep_chan : int array;  (** -1 same memory | >= 0 channel slot | <= -2 routed *)
  dep_class : int array;
  dep_cost : float array;
  dep_src_node : int array;  (** routed deps only; empty without a topology *)
  dep_dst_node : int array;
  mutable demotions : int;   (** fallback demotions of the placement *)
}
(** Bind tables.  A binder's own are rewritten by its next rebind; a
    {!freeze}d copy is never written again, so runners on several
    domains can read it at once. *)

val freeze : t -> t
(** A private copy of the tables. *)

type binder
(** NOT thread-safe. *)

val binder : layout -> binder
(** A binder with nothing bound; every buffer it will use is allocated
    here. *)

val resolve : binder -> fallback:bool -> Mapping.t -> int
(** Bind [mapping]: {!hit} when it is physically the bound mapping
    (same [fallback]), {!rebound} after a delta or full bind, {!failed}
    when it is invalid or does not fit ({!error} tells which).  A
    failure leaves the bound mapping, its planes and tables as they
    were. *)

val hit : int
val rebound : int
val failed : int

val tables : binder -> t
val planes : binder -> Placement.planes
(** The bound planes.  A full bind swaps in another set, so read them
    again after each {!resolve}. *)

val ok : binder -> (t, Placement.error) result
(** [Ok (tables b)], allocated once. *)

val error : binder -> Placement.error
(** The error of the last {!failed} resolve: {!Placement.resolve_with}'s
    for the same mapping, message included. *)

val delta_binds : binder -> int
val full_binds : binder -> int
val hits : binder -> int
