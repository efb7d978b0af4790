let gb = 1e9

(* A CPU "processor" in these presets is one socket-wide OpenMP group
   (Legion's common CPU-variant granularity), so its compute rate and
   streaming bandwidth are socket aggregates.  cores_per_socket = 1
   therefore means "one schedulable CPU processor per socket". *)

let shepard ~nodes =
  Machine.make ~name:"Shepard" ~nodes
    ~node:
      {
        sockets = 2;
        cores_per_socket = 1;
        gpus = 1;
        sysmem_per_socket = 98.0 *. gb;
        zc_capacity = 60.0 *. gb;
        fb_capacity = 16.0 *. gb;
      }
    ~exec_bw:
      {
        (* 24 application cores/socket on the Xeon 8276 *)
        cpu_sys = 80.0 *. gb;
        cpu_zc = 55.0 *. gb;
        gpu_fb = 500.0 *. gb;
        gpu_zc = 10.0 *. gb;
      }
    ~compute:
      {
        cpu_flops = 720e9;
        gpu_flops = 4000e9;
        cpu_launch_overhead = 10e-6;
        gpu_launch_overhead = 30e-6;
        runtime_dispatch = 12e-6;
      }
    ~copy:
      {
        memcpy_bw = 20.0 *. gb;
        cross_socket_bw = 10.0 *. gb;
        pcie_bw = 12.0 *. gb;
        gpu_peer_bw = 12.0 *. gb;
        local_latency = 5e-6;
        net_bandwidth = 10.0 *. gb;
        net_latency = 3e-6;
      }
    ()

let lassen ~nodes =
  Machine.make ~name:"Lassen" ~nodes
    ~node:
      {
        sockets = 2;
        cores_per_socket = 1;
        gpus = 4;
        sysmem_per_socket = 128.0 *. gb;
        zc_capacity = 60.0 *. gb;
        fb_capacity = 16.0 *. gb;
      }
    ~exec_bw:
      {
        (* 16 application cores/socket on the Power9 *)
        cpu_sys = 70.0 *. gb;
        cpu_zc = 50.0 *. gb;
        gpu_fb = 700.0 *. gb;
        gpu_zc = 50.0 *. gb;  (* NVLink 2.0 host link *)
      }
    ~compute:
      {
        cpu_flops = 400e9;
        gpu_flops = 7000e9;
        cpu_launch_overhead = 10e-6;
        gpu_launch_overhead = 30e-6;
        runtime_dispatch = 12e-6;
      }
    ~copy:
      {
        memcpy_bw = 25.0 *. gb;
        cross_socket_bw = 12.0 *. gb;
        pcie_bw = 50.0 *. gb;
        gpu_peer_bw = 150.0 *. gb;
        local_latency = 5e-6;
        net_bandwidth = 12.0 *. gb;
        net_latency = 2e-6;
      }
    ()

let testbed ~nodes =
  Machine.make ~name:"Testbed" ~nodes
    ~node:
      {
        sockets = 1;
        cores_per_socket = 2;
        gpus = 1;
        sysmem_per_socket = 8.0 *. gb;
        zc_capacity = 2.0 *. gb;
        fb_capacity = 1.0 *. gb;
      }
    ~exec_bw:
      {
        cpu_sys = 8.0 *. gb;
        cpu_zc = 6.0 *. gb;
        gpu_fb = 500.0 *. gb;
        gpu_zc = 10.0 *. gb;
      }
    ~compute:
      {
        cpu_flops = 30e9;
        gpu_flops = 4000e9;
        cpu_launch_overhead = 5e-6;
        gpu_launch_overhead = 30e-6;
        runtime_dispatch = 5e-6;
      }
    ~copy:
      {
        memcpy_bw = 20.0 *. gb;
        cross_socket_bw = 10.0 *. gb;
        pcie_bw = 12.0 *. gb;
        gpu_peer_bw = 12.0 *. gb;
        local_latency = 5e-6;
        net_bandwidth = 10.0 *. gb;
        net_latency = 3e-6;
      }
    ()

let cpu_only ~nodes =
  Machine.make ~name:"CpuOnly" ~nodes
    ~node:
      {
        sockets = 2;
        cores_per_socket = 4;
        gpus = 0;
        sysmem_per_socket = 16.0 *. gb;
        zc_capacity = 4.0 *. gb;
        fb_capacity = 0.0;
      }
    ~exec_bw:
      {
        cpu_sys = 8.0 *. gb;
        cpu_zc = 6.0 *. gb;
        gpu_fb = 0.0;
        gpu_zc = 0.0;
      }
    ~compute:
      {
        cpu_flops = 30e9;
        gpu_flops = 0.0;
        cpu_launch_overhead = 5e-6;
        gpu_launch_overhead = 0.0;
        runtime_dispatch = 5e-6;
      }
    ~copy:
      {
        memcpy_bw = 20.0 *. gb;
        cross_socket_bw = 10.0 *. gb;
        pcie_bw = 0.0;
        gpu_peer_bw = 0.0;
        local_latency = 5e-6;
        net_bandwidth = 10.0 *. gb;
        net_latency = 3e-6;
      }
    ()

(* A deliberately broken machine: GPUs without any host CPU.  Its
   per-socket System memory exists but no present processor kind can
   address it, so the feasibility analyzer must flag the preset with an
   error-level unreachable-memory diagnostic (§4.2 constraint 1).
   Constructible on purpose — Machine.make validates only local
   positivity, reachability is the analyzer's job. *)
let headless ~nodes =
  Machine.make ~name:"Headless" ~nodes
    ~node:
      {
        sockets = 1;
        cores_per_socket = 0;
        gpus = 1;
        sysmem_per_socket = 8.0 *. gb;
        zc_capacity = 2.0 *. gb;
        fb_capacity = 1.0 *. gb;
      }
    ~exec_bw:
      {
        cpu_sys = 0.0;
        cpu_zc = 0.0;
        gpu_fb = 500.0 *. gb;
        gpu_zc = 10.0 *. gb;
      }
    ~compute:
      {
        cpu_flops = 0.0;
        gpu_flops = 4000e9;
        cpu_launch_overhead = 0.0;
        gpu_launch_overhead = 30e-6;
        runtime_dispatch = 5e-6;
      }
    ~copy:
      {
        memcpy_bw = 20.0 *. gb;
        cross_socket_bw = 10.0 *. gb;
        pcie_bw = 12.0 *. gb;
        gpu_peer_bw = 12.0 *. gb;
        local_latency = 5e-6;
        net_bandwidth = 10.0 *. gb;
        net_latency = 3e-6;
      }
    ()

(* ------------------------------------------------------------------ *)
(* Topology preset families                                            *)
(* ------------------------------------------------------------------ *)

(* Mesh/torus tile: a manycore-style CPU node (one schedulable core,
   small memories, no GPU) so that grid:32x32 reaches 10^3 processors
   while staying cheap to simulate.  Link bandwidth is deliberately
   modest relative to per-node injection so that link contention is
   load-bearing in searches. *)
let mesh_tile topo =
  let nodes = Topology.n_nodes topo in
  Machine.make
    ~name:(Option.value (Topology.to_spec topo) ~default:(Topology.name topo))
    ~nodes
    ~node:
      {
        sockets = 1;
        cores_per_socket = 1;
        gpus = 0;
        sysmem_per_socket = 4.0 *. gb;
        zc_capacity = 1.0 *. gb;
        fb_capacity = 0.0;
      }
    ~exec_bw:{ cpu_sys = 8.0 *. gb; cpu_zc = 6.0 *. gb; gpu_fb = 0.0; gpu_zc = 0.0 }
    ~compute:
      {
        cpu_flops = 100e9;
        gpu_flops = 0.0;
        cpu_launch_overhead = 2e-6;
        gpu_launch_overhead = 0.0;
        runtime_dispatch = 2e-6;
      }
    ~copy:
      {
        memcpy_bw = 8.0 *. gb;
        cross_socket_bw = 8.0 *. gb;
        pcie_bw = 0.0;
        gpu_peer_bw = 0.0;
        local_latency = 2e-6;
        net_bandwidth = 4.0 *. gb;
        net_latency = 2e-6;
      }
    ~topology:topo ()

(* Fat-tree leaf: a testbed-like GPU node — multi-rack cluster shape. *)
let fattree_leaf topo =
  let nodes = Topology.n_nodes topo in
  Machine.make
    ~name:(Option.value (Topology.to_spec topo) ~default:(Topology.name topo))
    ~nodes
    ~node:
      {
        sockets = 1;
        cores_per_socket = 2;
        gpus = 1;
        sysmem_per_socket = 8.0 *. gb;
        zc_capacity = 2.0 *. gb;
        fb_capacity = 1.0 *. gb;
      }
    ~exec_bw:
      { cpu_sys = 8.0 *. gb; cpu_zc = 6.0 *. gb; gpu_fb = 500.0 *. gb; gpu_zc = 10.0 *. gb }
    ~compute:
      {
        cpu_flops = 30e9;
        gpu_flops = 4000e9;
        cpu_launch_overhead = 5e-6;
        gpu_launch_overhead = 30e-6;
        runtime_dispatch = 5e-6;
      }
    ~copy:
      {
        memcpy_bw = 20.0 *. gb;
        cross_socket_bw = 10.0 *. gb;
        pcie_bw = 12.0 *. gb;
        gpu_peer_bw = 12.0 *. gb;
        local_latency = 5e-6;
        net_bandwidth = 12.0 *. gb;
        net_latency = 2e-6;
      }
    ~topology:topo ()

(* Degenerate routed Shepard: same node and rates as [shepard], one
   NIC link per node into a shared ether vertex.  The routed DES folds
   the whole kind-level Network cost into that single hop, so searches
   on [direct:N] are decision-identical (and per-candidate bit-identical)
   to [shepard ~nodes:N] — the bench gate's degenerate baseline. *)
let direct_shepard topo =
  let nodes = Topology.n_nodes topo in
  Machine.make
    ~name:(Option.value (Topology.to_spec topo) ~default:(Topology.name topo))
    ~nodes
    ~node:
      {
        sockets = 2;
        cores_per_socket = 1;
        gpus = 1;
        sysmem_per_socket = 98.0 *. gb;
        zc_capacity = 60.0 *. gb;
        fb_capacity = 16.0 *. gb;
      }
    ~exec_bw:
      { cpu_sys = 80.0 *. gb; cpu_zc = 55.0 *. gb; gpu_fb = 500.0 *. gb; gpu_zc = 10.0 *. gb }
    ~compute:
      {
        cpu_flops = 720e9;
        gpu_flops = 4000e9;
        cpu_launch_overhead = 10e-6;
        gpu_launch_overhead = 30e-6;
        runtime_dispatch = 12e-6;
      }
    ~copy:
      {
        memcpy_bw = 20.0 *. gb;
        cross_socket_bw = 10.0 *. gb;
        pcie_bw = 12.0 *. gb;
        gpu_peer_bw = 12.0 *. gb;
        local_latency = 5e-6;
        net_bandwidth = 10.0 *. gb;
        net_latency = 3e-6;
      }
    ~topology:topo ()

let topo_link_rates spec =
  let starts p = String.length spec >= String.length p && String.sub spec 0 (String.length p) = p in
  if starts "fattree" then (12.0 *. gb, 2e-6)
  else if starts "direct" then (10.0 *. gb, 3e-6)
  else (4.0 *. gb, 2e-6)

let of_topology topo =
  match Topology.family topo with
  | Topology.Grid _ -> mesh_tile topo
  | Topology.Fattree _ -> fattree_leaf topo
  | Topology.Direct -> direct_shepard topo
  | Topology.Custom -> mesh_tile topo

(* The forms a spec may take, listed in the error of one that takes
   none of them. *)
let spec_forms =
  "presets: shepard|lassen|testbed|cpu_only|headless, topologies: grid:WxH, torus:WxH, \
   fattree:LEVELS:ARITY, direct:N, each with an optional :free suffix"

let of_spec spec ~nodes =
  let lower = String.lowercase_ascii (String.trim spec) in
  (* a bad node count or an oversized machine is an [Error] too *)
  try
    match lower with
    | "shepard" -> Ok (shepard ~nodes)
    | "lassen" -> Ok (lassen ~nodes)
    | "testbed" -> Ok (testbed ~nodes)
    | "cpu_only" | "cpu-only" -> Ok (cpu_only ~nodes)
    | "headless" -> Ok (headless ~nodes)
    | _ -> (
        let link_bw, link_latency = topo_link_rates lower in
        match Topology.of_spec lower ~link_bw ~link_latency with
        | Error e when String.starts_with ~prefix:"bad topology spec" e ->
            (* Topology's answer to a spec it cannot parse; its other
               errors are about the values of a well-formed one *)
            Error (Printf.sprintf "%s (%s)" e spec_forms)
        | Error e -> Error e
        | Ok topo ->
            let tn = Topology.n_nodes topo in
            if nodes <> 1 && nodes <> tn then
              Error
                (Printf.sprintf
                   "topology preset %s fixes the node count at %d (got -n %d)" lower tn
                   nodes)
            else Ok (of_topology topo))
  with Invalid_argument e -> Error e
