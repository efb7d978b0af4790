(** Machine presets for the clusters used in the paper's evaluation
    (§5, "Experimental Setup") plus a tiny testbed for unit tests.

    Rates are engineering estimates for the published hardware — the
    search only observes the *relative* costs these induce (GPU
    launch overhead vs. throughput, FB vs. ZC bandwidth, PCIe vs.
    NVLink, cross-socket System traffic), which is what shapes the
    paper's results.

    In the cluster presets a CPU "processor" is one socket-wide OpenMP
    group — the granularity at which Legion CPU task variants usually
    run — so its FLOP rate and streaming bandwidth are socket
    aggregates and each node exposes two schedulable CPU processors. *)

val shepard : nodes:int -> Machine.t
(** Stanford Shepard: per node 2× Xeon Platinum 8276 (28 cores; 8
    reserved for the runtime as in §5, leaving 24/socket for the
    application), 196 GB RAM, one NVIDIA P100 with 16 GB Frame-Buffer,
    60 GB pinned Zero-Copy pool, PCIe 3.0 host links. *)

val lassen : nodes:int -> Machine.t
(** LLNL Lassen: per node 2× Power9 (20 usable cores; 8 reserved for
    the runtime, leaving 16/socket), 256 GB RAM, four V100 GPUs with
    16 GB Frame-Buffer each and NVLink 2.0 host links (fast ZC access
    and GPU peer transfers), 60 GB Zero-Copy pool. *)

val testbed : nodes:int -> Machine.t
(** Small synthetic machine (1 socket × 2 cores + 1 GPU per node, tiny
    capacities) for fast, readable unit tests. *)

val cpu_only : nodes:int -> Machine.t
(** Degenerate machine with no GPUs — exercises the "kind absent"
    paths of the search (tasks may only map to CPU). *)

val headless : nodes:int -> Machine.t
(** Deliberately broken preset: one GPU per node and {e no} CPU cores,
    leaving the socket's System memory unreachable from every present
    processor kind.  Constructible (so codecs and tests can exercise
    it) but {!Analysis.analyze} reports an error-level
    [unreachable-memory] diagnostic for it. *)

val of_topology : Topology.t -> Machine.t
(** A machine built around an explicit interconnect, with per-family
    node flavors: grids/tori get a manycore-style CPU tile (one
    schedulable core, small memories) so [grid:32x32] reaches 10^3
    processors cheaply; fat-trees get a testbed-like GPU leaf node;
    [direct:N] gets the Shepard node and rates, making it the
    degenerate routed twin of [shepard ~nodes:N] (decision- and
    bit-identical searches — the toporate bench gate). *)

val of_spec : string -> nodes:int -> (Machine.t, string) result
(** Resolve a machine spec: one of the legacy preset names ([shepard],
    [lassen], [testbed], [cpu_only]/[cpu-only], [headless], scaled by
    [nodes]) or a topology spec ([grid:WxH], [torus:WxH],
    [fattree:LEVELS:ARITY], [direct:N], each optionally suffixed
    [:free] for the contention-free counterfactual).  Topology specs
    fix their own node count: [nodes] must be 1 (the CLI default,
    meaning "let the spec decide") or match it exactly.  Never raises:
    a bad node count or a machine past {!Topology.max_gen_nodes} slots
    is an [Error].  The error of a spec that takes none of these forms
    lists them; no other error does. *)
