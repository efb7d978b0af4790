(** Machine model M (§2): a graph of processors and memories.

    Nodes of the graph are processors (with a kind) and memories (with
    a kind and a byte capacity).  Edges are (a) addressability edges
    between a processor and the memories it can reach and (b)
    communication channels between memories.  We build the graph from a
    compact per-node description (sockets, cores, GPUs, capacities) and
    a performance table; the channel structure — intra-node PCIe /
    peer-to-peer / memcpy paths, the cross-socket System-memory hop the
    paper highlights in §5 ("Stencil"), and the inter-node network — is
    derived from the topology.

    All byte quantities are [float] (sizes reach tens of GB), all times
    are seconds, bandwidths bytes/second, compute rates FLOP/s. *)

type processor = private {
  pid : int;          (** globally unique id *)
  pnode : int;        (** owning node *)
  psocket : int;      (** socket within node (GPUs: socket they hang off) *)
  pkind : Kinds.proc_kind;
  plocal : int;       (** index among same-kind processors of the node *)
}

type memory = private {
  mid : int;          (** globally unique id *)
  mnode : int;
  msocket : int;      (** for System memories; -1 when not socket-bound *)
  mkind : Kinds.mem_kind;
  capacity : float;   (** bytes *)
  mlocal : int;       (** index among same-kind memories of the node *)
}

(** Static description of one node of the cluster. *)
type node_desc = {
  sockets : int;
  cores_per_socket : int;  (** cores usable by the application *)
  gpus : int;
  sysmem_per_socket : float;
  zc_capacity : float;     (** pinned zero-copy pool (one per node) *)
  fb_capacity : float;     (** frame-buffer capacity per GPU *)
}

(** Effective streaming bandwidth a task observes against each
    addressable memory kind.  The FB ≫ ZC gap for GPUs is the central
    asymmetry of the mapping problem (§1). *)
type exec_bandwidth = {
  cpu_sys : float;
  cpu_zc : float;
  gpu_fb : float;
  gpu_zc : float;
}

(** Compute-side performance of each processor kind. *)
type compute_perf = {
  cpu_flops : float;           (** per core *)
  gpu_flops : float;           (** per device *)
  cpu_launch_overhead : float; (** per task instance, seconds *)
  gpu_launch_overhead : float; (** kernel-launch + runtime overhead *)
  runtime_dispatch : float;
      (** per-instance dependence-analysis/dispatch cost serialized on
          each node's runtime utility processor, *independent of the
          mapping* — the fixed runtime floor that bounds how much a
          better mapping can help at tiny inputs *)
}

(** Channel performance for explicit data movement (copies inserted
    when a producer's and a consumer's memories differ, §2). *)
type copy_perf = {
  memcpy_bw : float;        (** same-socket host-side copies *)
  cross_socket_bw : float;  (** SYS(socket 0) ↔ SYS(socket 1) *)
  pcie_bw : float;          (** host ↔ FB transfers *)
  gpu_peer_bw : float;      (** FB ↔ FB within a node *)
  local_latency : float;    (** per-copy fixed cost, intra-node *)
  net_bandwidth : float;    (** inter-node *)
  net_latency : float;
}

type t = private {
  name : string;
  nodes : int;
  node : node_desc;
  exec_bw : exec_bandwidth;
  compute : compute_perf;
  copy : copy_perf;
  processors : processor array;
  memories : memory array;
  topology : Topology.t option;
      (** explicit interconnect; [None] = kind-level network channel
          (all pre-topology presets), preserving their exact costs *)
}

val make :
  name:string ->
  nodes:int ->
  node:node_desc ->
  exec_bw:exec_bandwidth ->
  compute:compute_perf ->
  copy:copy_perf ->
  ?topology:Topology.t ->
  unit ->
  t
(** Builds the explicit graph.  Raises [Invalid_argument] if any count
    or rate is non-positive, if [topology] disagrees with [nodes] on
    the node count, or if the machine would have more than
    {!Topology.max_gen_nodes} processor or memory slots. *)

(** {1 Graph queries} *)

val procs_of_kind_per_node : t -> Kinds.proc_kind -> int
(** How many processors of a kind each node offers (0 means the kind is
    absent and no task may be mapped to it). *)

val proc_kinds_available : t -> Kinds.proc_kind list

val proc : t -> node:int -> kind:Kinds.proc_kind -> local:int -> processor
(** The [local]-th processor of [kind] on [node]. *)

val addressable : t -> processor -> memory -> bool
(** Addressability edge: same node, kind-accessible, and — for System
    memory — same socket; for Frame-Buffer — the GPU's own device
    memory.  Zero-Copy is addressable by every processor of the node. *)

val closest_memory : t -> processor -> Kinds.mem_kind -> memory
(** The memory of the requested kind that is closest to the processor:
    its own FB for a GPU, its socket's System memory for a CPU, the
    node's ZC pool for either.  This is the deterministic runtime logic
    of §3.2 ("the mapper instantiates each collection in the memory of
    the desired kind that is closest to the selected processor").
    Raises [Invalid_argument] if the kind is not accessible from the
    processor's kind. *)

val mem_kind_capacity : t -> Kinds.mem_kind -> float
(** Capacity of one memory instance of the kind (used by search-side
    feasibility prechecks). *)

(** {1 Cost queries} *)

val launch_overhead : t -> Kinds.proc_kind -> float
val compute_rate : t -> Kinds.proc_kind -> float
val exec_bandwidth : t -> Kinds.proc_kind -> Kinds.mem_kind -> float

(** Classification of the channel a copy travels on.  The full
    classification table implemented by {!channel_between} (and pinned
    by the [machine] test suite):

    - same memory id → [Same_memory];
    - different nodes → [Network], whatever the endpoint kinds;
    - same node: FB↔FB → [Gpu_peer]; FB↔anything-else → [Pcie];
      SYS↔SYS → [Cross_socket] when the sockets differ, else
      [Host_local]; every pair involving ZC (ZC↔SYS either direction,
      ZC↔ZC) → [Host_local].

    Note [Cross_socket] is {e only} produced for SYS↔SYS pairs on
    different sockets: the Zero-Copy pool is node-wide
    ([msocket = -1]), so ZC-endpoint copies are socket-agnostic and
    always classify as [Host_local], never [Cross_socket]. *)
type channel =
  | Same_memory                 (** no copy needed *)
  | Host_local                  (** same-node host copy: same-socket
                                    SYS↔SYS, or any pair with a ZC
                                    endpoint (ZC is socket-agnostic) *)
  | Cross_socket                (** SYS↔SYS across sockets (only) *)
  | Pcie                        (** host ↔ FB *)
  | Gpu_peer                    (** FB ↔ FB same node *)
  | Network                     (** any cross-node pair *)

val channel_between : t -> memory -> memory -> channel

val copy_cost : t -> src:memory -> dst:memory -> bytes:float -> float
(** Seconds to move [bytes] from [src] to [dst]: 0 when [Same_memory],
    otherwise channel latency + bytes / channel bandwidth.  Network
    copies touching a Frame-Buffer additionally pay one PCIe staging
    hop per FB endpoint (no GPUDirect), which is what makes Zero-Copy
    placement attractive for cross-node-shared collections.  On a
    machine with a routed topology (other than the degenerate
    [Direct] family), a Network copy instead pays the sum of per-link
    latency + serialization along its deterministic route, plus the
    same PCIe staging — the uncontended total the simulator's
    link-FIFO model reduces to when no copies queue. *)

val routed_copy_cost :
  t -> Topology.t -> src:memory -> dst:memory -> bytes:float -> int array -> int -> float
(** [routed_copy_cost t topo ~src ~dst ~bytes ids n] is {!copy_cost}
    of a Network pair that [topo] (not [Direct]) routes, given the
    route's [n] link ids in [ids] as {!Topology.route_links} wrote
    them: the same float expression, bit for bit, without routing
    again.  Allocates nothing but its result. *)

val channel_bandwidth : t -> channel -> float
(** Bandwidth of a channel class ([Same_memory] is [infinity]). *)

val pp : Format.formatter -> t -> unit
(** One-line summary (name, nodes, per-node inventory). *)
