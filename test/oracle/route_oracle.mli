(** Deterministic routes, walked the way the simulator routed before
    {!Topology.route_links} existed: the generated families hop by hop
    through their link-id layouts, re-deciding the ring direction at
    every torus hop, and a custom topology from its own per-destination
    BFS rather than the topology's next-hop table.

    Over the public interface only, so it shares no code with the
    router it checks. *)

val route : Topology.t -> src:int -> dst:int -> int list
(** Link ids of the route from node [src] to node [dst], in path
    order; [] when [src = dst].  Raises [Invalid_argument] on an
    unreachable pair. *)
