type processor = {
  pid : int;
  pnode : int;
  psocket : int;
  pkind : Kinds.proc_kind;
  plocal : int;
}

type memory = {
  mid : int;
  mnode : int;
  msocket : int;
  mkind : Kinds.mem_kind;
  capacity : float;
  mlocal : int;
}

type node_desc = {
  sockets : int;
  cores_per_socket : int;
  gpus : int;
  sysmem_per_socket : float;
  zc_capacity : float;
  fb_capacity : float;
}

type exec_bandwidth = {
  cpu_sys : float;
  cpu_zc : float;
  gpu_fb : float;
  gpu_zc : float;
}

type compute_perf = {
  cpu_flops : float;
  gpu_flops : float;
  cpu_launch_overhead : float;
  gpu_launch_overhead : float;
  runtime_dispatch : float;
}

type copy_perf = {
  memcpy_bw : float;
  cross_socket_bw : float;
  pcie_bw : float;
  gpu_peer_bw : float;
  local_latency : float;
  net_bandwidth : float;
  net_latency : float;
}

type t = {
  name : string;
  nodes : int;
  node : node_desc;
  exec_bw : exec_bandwidth;
  compute : compute_perf;
  copy : copy_perf;
  processors : processor array;
  memories : memory array;
  topology : Topology.t option;
}

let check_positive name v =
  if v <= 0.0 then invalid_arg (Printf.sprintf "Machine.make: %s must be positive" name)

let check_positive_int name v =
  if v <= 0 then invalid_arg (Printf.sprintf "Machine.make: %s must be positive" name)

(* GPUs are assigned to sockets round-robin, as on real multi-socket
   servers where devices hang off alternating PCIe root complexes. *)
let gpu_socket node gpu_index = gpu_index mod node.sockets

let build_processors ~nodes ~node =
  let per_node = (node.sockets * node.cores_per_socket) + node.gpus in
  let a =
    Array.make (nodes * per_node)
      { pid = 0; pnode = 0; psocket = 0; pkind = Kinds.Cpu; plocal = 0 }
  in
  let i = ref 0 in
  for n = 0 to nodes - 1 do
    for s = 0 to node.sockets - 1 do
      for c = 0 to node.cores_per_socket - 1 do
        a.(!i) <-
          {
            pid = !i;
            pnode = n;
            psocket = s;
            pkind = Kinds.Cpu;
            plocal = (s * node.cores_per_socket) + c;
          };
        incr i
      done
    done;
    for g = 0 to node.gpus - 1 do
      a.(!i) <-
        { pid = !i; pnode = n; psocket = gpu_socket node g; pkind = Kinds.Gpu; plocal = g };
      incr i
    done
  done;
  a

let build_memories ~nodes ~node =
  let per_node = node.sockets + 1 + node.gpus in
  let a =
    Array.make (nodes * per_node)
      { mid = 0; mnode = 0; msocket = 0; mkind = Kinds.System; capacity = 0.0; mlocal = 0 }
  in
  let i = ref 0 in
  for n = 0 to nodes - 1 do
    for s = 0 to node.sockets - 1 do
      a.(!i) <-
        {
          mid = !i;
          mnode = n;
          msocket = s;
          mkind = Kinds.System;
          capacity = node.sysmem_per_socket;
          mlocal = s;
        };
      incr i
    done;
    a.(!i) <-
      {
        mid = !i;
        mnode = n;
        msocket = -1;
        mkind = Kinds.Zero_copy;
        capacity = node.zc_capacity;
        mlocal = 0;
      };
    incr i;
    for g = 0 to node.gpus - 1 do
      a.(!i) <-
        {
          mid = !i;
          mnode = n;
          msocket = gpu_socket node g;
          mkind = Kinds.Frame_buffer;
          capacity = node.fb_capacity;
          mlocal = g;
        };
      incr i
    done
  done;
  a

let make ~name ~nodes ~node ~exec_bw ~compute ~copy ?topology () =
  check_positive_int "nodes" nodes;
  (match topology with
  | Some topo when Topology.n_nodes topo <> nodes ->
      invalid_arg
        (Printf.sprintf "Machine.make: topology has %d nodes, machine has %d"
           (Topology.n_nodes topo) nodes)
  | _ -> ());
  check_positive_int "sockets" node.sockets;
  (* cores_per_socket = 0 describes a headless (GPU-only) node: legal
     to construct — the feasibility analyzer is what flags its
     unreachable System memory — but only if GPUs remain *)
  if node.cores_per_socket < 0 then
    invalid_arg "Machine.make: cores_per_socket must be non-negative";
  if node.gpus < 0 then invalid_arg "Machine.make: gpus must be non-negative";
  if node.cores_per_socket = 0 && node.gpus = 0 then
    invalid_arg "Machine.make: node needs at least one processor";
  (* the slot arrays are sized by untrusted counts: bound each factor
     first, so the products below cannot overflow *)
  let cap = Topology.max_gen_nodes in
  if
    nodes > cap || node.sockets > cap || node.cores_per_socket > cap || node.gpus > cap
    || nodes * ((node.sockets * node.cores_per_socket) + node.gpus) > cap
    || nodes * (node.sockets + 1 + node.gpus) > cap
  then
    invalid_arg
      (Printf.sprintf "Machine.make: more than %d processor or memory slots" cap);
  check_positive "sysmem_per_socket" node.sysmem_per_socket;
  check_positive "zc_capacity" node.zc_capacity;
  if node.gpus > 0 then check_positive "fb_capacity" node.fb_capacity;
  List.iter
    (fun (n, v) -> check_positive n v)
    [
      ("memcpy_bw", copy.memcpy_bw);
      ("cross_socket_bw", copy.cross_socket_bw);
      ("net_bandwidth", copy.net_bandwidth);
    ];
  if node.cores_per_socket > 0 then
    List.iter
      (fun (n, v) -> check_positive n v)
      [
        ("cpu_sys bandwidth", exec_bw.cpu_sys);
        ("cpu_zc bandwidth", exec_bw.cpu_zc);
        ("cpu_flops", compute.cpu_flops);
        ("cpu_launch_overhead", compute.cpu_launch_overhead);
      ];
  if node.gpus > 0 then
    List.iter
      (fun (n, v) -> check_positive n v)
      [
        ("gpu_fb bandwidth", exec_bw.gpu_fb);
        ("gpu_zc bandwidth", exec_bw.gpu_zc);
        ("gpu_flops", compute.gpu_flops);
        ("gpu_launch_overhead", compute.gpu_launch_overhead);
        ("pcie_bw", copy.pcie_bw);
        ("gpu_peer_bw", copy.gpu_peer_bw);
      ];
  {
    name;
    nodes;
    node;
    exec_bw;
    compute;
    copy;
    processors = build_processors ~nodes ~node;
    memories = build_memories ~nodes ~node;
    topology;
  }

let procs_of_kind_per_node t = function
  | Kinds.Cpu -> t.node.sockets * t.node.cores_per_socket
  | Kinds.Gpu -> t.node.gpus

let proc_kinds_available t =
  List.filter (fun k -> procs_of_kind_per_node t k > 0) Kinds.all_proc_kinds

let procs_per_node t = (t.node.sockets * t.node.cores_per_socket) + t.node.gpus
let mems_per_node t = t.node.sockets + 1 + t.node.gpus

let proc t ~node ~kind ~local =
  let per_kind = procs_of_kind_per_node t kind in
  if node < 0 || node >= t.nodes then invalid_arg "Machine.proc: bad node";
  if local < 0 || local >= per_kind then invalid_arg "Machine.proc: bad local index";
  let base = node * procs_per_node t in
  let offset =
    match kind with
    | Kinds.Cpu -> local
    | Kinds.Gpu -> (t.node.sockets * t.node.cores_per_socket) + local
  in
  t.processors.(base + offset)

let memory t ~node ~kind ~local =
  let base = node * mems_per_node t in
  let offset =
    match kind with
    | Kinds.System -> local
    | Kinds.Zero_copy -> t.node.sockets
    | Kinds.Frame_buffer -> t.node.sockets + 1 + local
  in
  t.memories.(base + offset)

let addressable _t p m =
  p.pnode = m.mnode
  && Kinds.accessible p.pkind m.mkind
  &&
  match m.mkind with
  | Kinds.Zero_copy -> true
  | Kinds.System -> p.psocket = m.msocket
  | Kinds.Frame_buffer -> (
      match p.pkind with Kinds.Gpu -> p.plocal = m.mlocal | Kinds.Cpu -> false)

let closest_memory t p kind =
  if not (Kinds.accessible p.pkind kind) then
    invalid_arg
      (Printf.sprintf "Machine.closest_memory: %s cannot address %s"
         (Kinds.proc_kind_to_string p.pkind)
         (Kinds.mem_kind_to_string kind));
  match kind with
  | Kinds.Zero_copy -> memory t ~node:p.pnode ~kind ~local:0
  | Kinds.System -> memory t ~node:p.pnode ~kind ~local:p.psocket
  | Kinds.Frame_buffer -> memory t ~node:p.pnode ~kind ~local:p.plocal

let mem_kind_capacity t = function
  | Kinds.System -> t.node.sysmem_per_socket
  | Kinds.Zero_copy -> t.node.zc_capacity
  | Kinds.Frame_buffer -> t.node.fb_capacity

let launch_overhead t = function
  | Kinds.Cpu -> t.compute.cpu_launch_overhead
  | Kinds.Gpu -> t.compute.gpu_launch_overhead

let compute_rate t = function
  | Kinds.Cpu -> t.compute.cpu_flops
  | Kinds.Gpu -> t.compute.gpu_flops

let exec_bandwidth t p m =
  match (p, m) with
  | Kinds.Cpu, Kinds.System -> t.exec_bw.cpu_sys
  | Kinds.Cpu, Kinds.Zero_copy -> t.exec_bw.cpu_zc
  | Kinds.Gpu, Kinds.Frame_buffer -> t.exec_bw.gpu_fb
  | Kinds.Gpu, Kinds.Zero_copy -> t.exec_bw.gpu_zc
  | (Kinds.Cpu, Kinds.Frame_buffer | Kinds.Gpu, Kinds.System) ->
      invalid_arg "Machine.exec_bandwidth: memory kind not addressable"

type channel =
  | Same_memory
  | Host_local
  | Cross_socket
  | Pcie
  | Gpu_peer
  | Network

let channel_between _t a b =
  if a.mid = b.mid then Same_memory
  else if a.mnode <> b.mnode then Network
  else
    match (a.mkind, b.mkind) with
    | Kinds.Frame_buffer, Kinds.Frame_buffer -> Gpu_peer
    | Kinds.Frame_buffer, _ | _, Kinds.Frame_buffer -> Pcie
    | Kinds.System, Kinds.System ->
        if a.msocket <> b.msocket then Cross_socket else Host_local
    | Kinds.System, Kinds.Zero_copy | Kinds.Zero_copy, Kinds.System -> Host_local
    | Kinds.Zero_copy, Kinds.Zero_copy -> Host_local

let channel_bandwidth t = function
  | Same_memory -> infinity
  | Host_local -> t.copy.memcpy_bw
  | Cross_socket -> t.copy.cross_socket_bw
  | Pcie -> t.copy.pcie_bw
  | Gpu_peer -> t.copy.gpu_peer_bw
  | Network -> t.copy.net_bandwidth

let channel_latency t = function
  | Same_memory -> 0.0
  | Network -> t.copy.net_latency
  | Host_local | Cross_socket | Pcie | Gpu_peer -> t.copy.local_latency

(* Cross-node transfers whose endpoint is a Frame-Buffer stage through
   the host over PCIe (no GPUDirect), one extra hop per FB endpoint —
   this is why Zero-Copy placement pays off for halo-exchanged
   collections. *)
let fb_hops src dst =
  (if src.mkind = Kinds.Frame_buffer then 1 else 0)
  + if dst.mkind = Kinds.Frame_buffer then 1 else 0

(* Routed: the same PCIe staging (guarded so FB-free machines with
   pcie_bw = 0 stay finite), then per-link serialization along the
   route, in path order.  The one copy of this sum: the simulator's bind
   calls it on the route it already walked into its own buffer. *)
let routed_copy_cost t topo ~src ~dst ~bytes ids n =
  let h = fb_hops src dst in
  let acc =
    ref
      (if h = 0 then 0.0
       else float_of_int h *. (t.copy.local_latency +. (bytes /. t.copy.pcie_bw)))
  in
  let links = Topology.links topo in
  for i = 0 to n - 1 do
    let l = links.(ids.(i)) in
    acc := !acc +. (l.Topology.llat +. (bytes /. l.Topology.lbw))
  done;
  !acc

let copy_cost t ~src ~dst ~bytes =
  let ch = channel_between t src dst in
  match ch with
  | Same_memory -> 0.0
  | Network -> (
      match t.topology with
      | Some topo
        when Topology.family topo <> Topology.Direct
             && Topology.distance topo ~src:src.mnode ~dst:dst.mnode >= 0 ->
          (* The Direct family (and unreachable pairs on a Custom
             topology) fall through to the kind-level expression below,
             which Direct reproduces hop-for-hop — the bit-identity hinge
             of DESIGN.md §15.  No word allocated here grows with the
             route. *)
          let ids = Array.make (Topology.diameter topo) 0 in
          routed_copy_cost t topo ~src ~dst ~bytes ids
            (Topology.route_links topo ~src:src.mnode ~dst:dst.mnode ids)
      | _ ->
          channel_latency t ch
          +. (bytes /. channel_bandwidth t ch)
          +. (float_of_int (fb_hops src dst)
             *. (t.copy.local_latency +. (bytes /. t.copy.pcie_bw))))
  | Host_local | Cross_socket | Pcie | Gpu_peer ->
      channel_latency t ch +. (bytes /. channel_bandwidth t ch)

let pp ppf t =
  Format.fprintf ppf
    "%s: %d node(s) x (%d sockets x %d cores, %d GPU(s); SYS %.0fGB/socket, ZC %.0fGB, FB %.0fGB/GPU)"
    t.name t.nodes t.node.sockets t.node.cores_per_socket t.node.gpus
    (t.node.sysmem_per_socket /. 1e9)
    (t.node.zc_capacity /. 1e9)
    (t.node.fb_capacity /. 1e9)
