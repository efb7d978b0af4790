(** Explicit interconnect topology: typed links between nodes (and,
    for indirect networks, internal switch vertices), with per-link
    bandwidth/latency and deterministic shortest-path routing.

    The kind-level machine model collapses the inter-node network to a
    single per-source-node channel; the targets the roadmap cares
    about — 2D-mesh manycores and multi-rack fat-trees at 10^2–10^4
    processors — have locality structure that only an explicit link
    graph can express.  A [t] attached to a {!Machine.t} makes every
    cross-node copy travel its routed link path; the simulator charges
    each link along the path with FIFO contention (see Exec).

    Routing is deterministic and mapping-independent: the generated
    families ([grid]/[torus]/[fattree]/[direct]) route arithmetically
    in O(1) per hop with no stored tables (dimension-order X-then-Y on
    meshes, shorter-ring-direction with an eastward tie-break on tori,
    up/down through the least common ancestor on fat-trees), so a
    10^4-node machine costs O(links) memory, not O(nodes^2).  [custom]
    topologies get a BFS next-hop table (smallest-link-id tie-break),
    intended for small test/lint machines.

    Vertices [0, n_nodes) are the machine's compute nodes; vertices
    [n_nodes, n_vertices) are switches (fat-tree levels, the [direct]
    family's shared ether vertex). *)

type family =
  | Grid of { w : int; h : int; wrap : bool }  (** mesh; torus when [wrap] *)
  | Fattree of { levels : int; arity : int }
  | Direct
      (** degenerate one-NIC-link-per-node family: every cross-node
          copy is a single hop on the source node's link, charged the
          exact kind-level Network cost — bit-identical to the
          un-routed model (see DESIGN.md §15) *)
  | Custom

type link = private {
  lid : int;    (** dense id, [0, n_links) *)
  lsrc : int;   (** source vertex *)
  ldst : int;   (** destination vertex (links are directed) *)
  lbw : float;  (** bytes/second; the analyzer lints non-positive values *)
  llat : float; (** seconds *)
}

type t

(** {1 Construction} *)

val max_gen_nodes : int
(** 10^6: the most nodes a generated family may have, the most entries
    a custom topology's route table may hold, and the most processor
    (and memory) slots {!Machine.make} allocates.  Oversized requests
    raise [Invalid_argument] before allocating. *)

val grid :
  w:int -> h:int -> ?wrap:bool -> link_bw:float -> link_latency:float -> unit -> t
(** [w*h] nodes, bidirectional mesh links (two directed links per
    edge).  [wrap] adds the torus wrap-around rings; tori require
    [w >= 2] and [h >= 2].  Raises [Invalid_argument] on bad shapes. *)

val fattree : levels:int -> arity:int -> link_bw:float -> link_latency:float -> t
(** [arity^levels] leaf nodes under a single-rooted fat-tree with
    [levels] switch levels.  Level-[j] links carry
    [link_bw * arity^(j-1)]: capacity fattens toward the root, the
    classic full-bisection profile. *)

val direct : nodes:int -> link_bw:float -> link_latency:float -> t

val custom :
  name:string ->
  n_nodes:int ->
  ?n_vertices:int ->
  links:(int * int * float * float) list ->
  unit ->
  t
(** Arbitrary directed link list [(src, dst, bw, latency)].  Route
    tables are built by per-destination BFS (hop-count shortest paths,
    smallest-link-id tie-break), so routes are deterministic; they hold
    [n_vertices * n_nodes] entries, at most {!max_gen_nodes}.
    Disconnected node pairs are permitted at construction — the
    feasibility analyzer flags them; copies between them fall back to
    the kind-level network channel. *)

val with_contention : t -> bool -> t
(** Same topology with link FIFO contention switched on/off.  An
    uncontended topology still charges every copy its full routed path
    cost, but links never queue — the counterfactual model the
    congestion tests compare against. *)

(** {1 Structure queries} *)

val family : t -> family
val name : t -> string
val n_nodes : t -> int
val n_vertices : t -> int
val n_links : t -> int
val links : t -> link array
val contended : t -> bool

val diameter : t -> int
(** Max routing distance over connected node pairs (hops). *)

val bisection_bw : t -> float
(** Total bandwidth of the links crossing the canonical bisection cut
    (mid-column / mid-row for meshes and tori, the top-level subtree
    split for fat-trees).  0 when the family has no meaningful cut
    ([Direct], [Custom], single-node grids) — callers must then skip
    bisection-based bounds. *)

val side : t -> int -> int
(** Which side (0/1) of the canonical bisection cut a node lies on. *)

(** {1 Routing} *)

val distance : t -> src:int -> dst:int -> int
(** Hops on the deterministic route between two nodes; 0 when
    [src = dst], -1 when unreachable. *)

val route_links : t -> src:int -> dst:int -> int array -> int
(** [route_links t ~src ~dst buf] writes the link ids of the
    deterministic route into [buf], in path order from index 0, and
    returns their count: {!distance} of them, so at most {!diameter}
    (0 when [src = dst]).  Allocates nothing; the buffer is the
    caller's, so a simulator scratch that owns one can walk routes on
    its own domain.  Raises [Invalid_argument] on an unreachable pair
    (callers check {!distance} first) or a buffer shorter than the
    route.  {!route_iter} and {!route} are built on it. *)

val route_iter : t -> src:int -> dst:int -> f:(link -> unit) -> unit
(** Iterate the links of the deterministic route in path order. *)

val route : t -> src:int -> dst:int -> link list

(** {1 Lint queries} *)

val unreachable_pairs : t -> int
(** Ordered node pairs with no route (always 0 for generated
    families). *)

val zero_bw_links : t -> int list
(** Ids of links with non-positive bandwidth. *)

(** {1 Spec codec} *)

val to_spec : t -> string option
(** Canonical parseable spec of a generated family —
    ["grid:8x8"], ["torus:4x4"], ["fattree:3:4"], ["direct:4"], with
    a [":free"] suffix when uncontended.  [None] for [Custom]
    (serialized link-by-link by {!Machine_codec}). *)

val of_spec : string -> link_bw:float -> link_latency:float -> (t, string) result
(** Parse a spec produced by {!to_spec} (case-insensitive).  Route
    structure is regenerated, never deserialized. *)

val equal_structure : t -> t -> bool
(** Same family, node/vertex counts, link array (ids, endpoints,
    rates) and contention flag — the structural equality the codec
    round-trip tests pin. *)
