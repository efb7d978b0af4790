let n_channel_classes = 5
let network_class = 4

let channel_class_index = function
  | Machine.Host_local -> 0
  | Machine.Cross_socket -> 1
  | Machine.Pcie -> 2
  | Machine.Gpu_peer -> 3
  | Machine.Network -> network_class
  | Machine.Same_memory -> invalid_arg "channel_class_index: Same_memory"

let channel_slot node ch = (node * n_channel_classes) + channel_class_index ch

let link_slot_base ~nodes = nodes * n_channel_classes
let stage_src = 1
let stage_dst = 2
let route_direct = 4

type layout = {
  lmachine : Machine.t;
  lgraph : Graph.t;
  lplan : Placement.plan;
  slot_shard : int array;
  dep_src_slot : int array;
  dep_src_cid : int array;
  dep_dst_cid : int array;
  dep_dst_slot : int array;
  dep_bytes : float array;
  cid_dep_off : int array;
  cid_dep_idx : int array;
  launch : float array;
  compute : float array;
  exec_bw : float array;
  chan_lat : float array;
  chan_bw : float array;
}

let layout machine g lplan ~slot_shard ~dep_src_slot ~dep_src_cid ~dep_dst_cid
    ~dep_dst_slot ~dep_bytes =
  let n_deps = Array.length dep_bytes and nc = Graph.n_collections g in
  (* collection -> touching deps, CSR (each dep touches its source and
     destination collection; counted once when they coincide) *)
  let touch f =
    for k = 0 to n_deps - 1 do
      f dep_src_cid.(k) k;
      if dep_dst_cid.(k) <> dep_src_cid.(k) then f dep_dst_cid.(k) k
    done
  in
  let cid_dep_off = Array.make (nc + 1) 0 in
  touch (fun cid _ -> cid_dep_off.(cid + 1) <- cid_dep_off.(cid + 1) + 1);
  for cid = 0 to nc - 1 do
    cid_dep_off.(cid + 1) <- cid_dep_off.(cid + 1) + cid_dep_off.(cid)
  done;
  let cid_dep_idx = Array.make cid_dep_off.(nc) 0 in
  let fill = Array.make nc 0 in
  touch (fun cid k ->
      cid_dep_idx.(cid_dep_off.(cid) + fill.(cid)) <- k;
      fill.(cid) <- fill.(cid) + 1);
  let kinds = Kinds.all_proc_kinds in
  let launch = Array.make 2 0.0 and compute = Array.make (2 * Graph.n_tasks g) 0.0 in
  let exec_bw = Array.make 6 nan in
  List.iter
    (fun k ->
      let r = Kinds.rank_proc k in
      launch.(r) <- Machine.launch_overhead machine k;
      List.iter
        (fun mk -> exec_bw.((r * 3) + Kinds.rank_mem mk) <- Machine.exec_bandwidth machine k mk)
        (Kinds.accessible_mem_kinds k);
      for tid = 0 to Graph.n_tasks g - 1 do
        let t = Graph.task g tid in
        (* Cost.task_duration's compute term *)
        let rate = Machine.compute_rate machine k *. Cost.efficiency t k in
        compute.((tid * 2) + r) <- (if t.Graph.flops = 0.0 then 0.0 else t.Graph.flops /. rate)
      done)
    kinds;
  let copy = machine.Machine.copy in
  let classes =
    [| Machine.Host_local; Machine.Cross_socket; Machine.Pcie; Machine.Gpu_peer; Machine.Network |]
  in
  {
    lmachine = machine;
    lgraph = g;
    lplan;
    slot_shard;
    dep_src_slot;
    dep_src_cid;
    dep_dst_cid;
    dep_dst_slot;
    dep_bytes;
    cid_dep_off;
    cid_dep_idx;
    launch;
    compute;
    exec_bw;
    chan_lat =
      Array.map
        (fun ch ->
          if ch = Machine.Network then copy.Machine.net_latency else copy.Machine.local_latency)
        classes;
    chan_bw = Array.map (Machine.channel_bandwidth machine) classes;
  }

type t = {
  lay : layout;
  slot_dur : float array;
  slot_pid : int array;
  slot_node : int array;
  dep_chan : int array;
  dep_class : int array;
  dep_cost : float array;
  dep_src_node : int array;
  dep_dst_node : int array;
  mutable demotions : int;
}

let make_tables lay =
  let spi = Array.length lay.slot_shard and n_deps = Array.length lay.dep_bytes in
  let n_routed = if Option.is_none lay.lmachine.Machine.topology then 0 else n_deps in
  {
    lay;
    slot_dur = Array.make (max spi 1) 0.0;
    slot_pid = Array.make (max spi 1) 0;
    slot_node = Array.make (max spi 1) 0;
    dep_chan = Array.make (max n_deps 1) 0;
    dep_class = Array.make (max n_deps 1) 0;
    dep_cost = Array.make (max n_deps 1) 0.0;
    dep_src_node = Array.make n_routed 0;
    dep_dst_node = Array.make n_routed 0;
    demotions = 0;
  }

let freeze b =
  {
    b with
    slot_dur = Array.copy b.slot_dur;
    slot_pid = Array.copy b.slot_pid;
    slot_node = Array.copy b.slot_node;
    dep_chan = Array.copy b.dep_chan;
    dep_class = Array.copy b.dep_class;
    dep_cost = Array.copy b.dep_cost;
    dep_src_node = Array.copy b.dep_src_node;
    dep_dst_node = Array.copy b.dep_dst_node;
  }

type binder = {
  tables : t;
  planes : Placement.planes;
  ws : Placement.workspace;
  ok : (t, Placement.error) result;
  dtids : int array;
  dcids : int array;
  task_gen : int array;
  col_gen : int array;
  mutable gen : int;
  walk : int array;
  mutable bound : Mapping.t;
  mutable has_bound : bool;
  mutable bound_fallback : bool;
  mutable delta_binds : int;
  mutable full_binds : int;
  mutable hits : int;
  mutable error : Placement.error option;
}

let binder lay =
  let pl = lay.lplan and g = lay.lgraph and machine = lay.lmachine in
  let b = make_tables lay in
  let nt = Graph.n_tasks g and nc = Graph.n_collections g in
  {
    tables = b;
    planes = Placement.planes pl;
    ws = Placement.workspace pl;
    ok = Ok b;
    dtids = Array.make nt 0;
    dcids = Array.make nc 0;
    task_gen = Array.make nt 0;
    col_gen = Array.make nc 0;
    gen = 0;
    walk = Array.make (Option.fold ~none:0 ~some:Topology.diameter machine.Machine.topology) 0;
    (* a placeholder until [has_bound] *)
    bound = Mapping.all_cpu g machine;
    has_bound = false;
    bound_fallback = false;
    delta_binds = 0;
    full_binds = 0;
    hits = 0;
    error = None;
  }

(* Task [tid]'s noise-free duration on the slot [slot] of its shard
   [shard]: {!Cost.task_duration}, bit for bit, over the layout's
   tables — a call into Cost or Machine would hand back a boxed float.
   A strict placement serves every argument its mapped kind; a demoted
   one, the kind of the memory that holds the shard's instance.  Its
   max needs no NaN or signed-zero case: both terms are sums of
   nonnegative quotients. *)
let set_duration bd mapping tid kind slot shard =
  let lay = bd.tables.lay in
  let pl = lay.lplan and p = bd.planes in
  let memories = lay.lmachine.Machine.memories in
  let memory = ref 0.0 in
  for j = pl.Placement.arg_off.(tid) to pl.Placement.arg_off.(tid + 1) - 1 do
    let cid = pl.Placement.args.(j) in
    let mk =
      if p.Placement.demotions = 0 then Mapping.mem_of mapping cid
      else memories.(p.Placement.mem.(pl.Placement.col_off.(cid) + shard)).Machine.mkind
    in
    memory :=
      !memory +. (pl.Placement.col_bytes.(cid) /. lay.exec_bw.((kind * 3) + Kinds.rank_mem mk))
  done;
  let compute = lay.compute.((tid * 2) + kind) in
  bd.tables.slot_dur.(slot) <-
    lay.launch.(kind) +. if !memory > compute then !memory else compute

(* A task's slots: processor, node and duration.  With no demotion the
   duration is shard-invariant, so a group costs one duration. *)
let bind_task bd mapping tid =
  let lay = bd.tables.lay and b = bd.tables and p = bd.planes in
  let processors = lay.lmachine.Machine.processors in
  let kind = Kinds.rank_proc (Mapping.proc_of mapping tid) in
  let lo = lay.lplan.Placement.task_off.(tid)
  and hi = lay.lplan.Placement.task_off.(tid + 1) - 1 in
  let demoted = p.Placement.demotions > 0 in
  for slot = lo to hi do
    let pid = p.Placement.proc.(slot) in
    b.slot_pid.(slot) <- pid;
    b.slot_node.(slot) <- processors.(pid).Machine.pnode;
    if demoted || slot = lo then set_duration bd mapping tid kind slot (slot - lo)
    else b.slot_dur.(slot) <- b.slot_dur.(lo)
  done

let fb_hops (src : Machine.memory) (dst : Machine.memory) =
  (if src.Machine.mkind = Kinds.Frame_buffer then 1 else 0)
  + if dst.Machine.mkind = Kinds.Frame_buffer then 1 else 0

(* {!Machine.copy_cost} of a copy on the kind-level channel of class
   [cls], bit for bit *)
let set_channel_cost b k (src : Machine.memory) (dst : Machine.memory) cls =
  let lay = b.lay in
  let bytes = lay.dep_bytes.(k) in
  let copy = lay.lmachine.Machine.copy in
  b.dep_cost.(k) <-
    (if cls = network_class then
       lay.chan_lat.(cls)
       +. (bytes /. lay.chan_bw.(cls))
       +. (float_of_int (fb_hops src dst)
          *. (copy.Machine.local_latency +. (bytes /. copy.Machine.pcie_bw)))
     else lay.chan_lat.(cls) +. (bytes /. lay.chan_bw.(cls)))

(* {!Machine.routed_copy_cost}, bit for bit: PCIe staging, then each
   link of the route, routed once into the binder's walk buffer *)
let set_routed_cost bd topo k (src : Machine.memory) (dst : Machine.memory) =
  let b = bd.tables in
  let bytes = b.lay.dep_bytes.(k) in
  let copy = b.lay.lmachine.Machine.copy in
  let h = fb_hops src dst in
  let acc =
    ref
      (if h = 0 then 0.0
       else float_of_int h *. (copy.Machine.local_latency +. (bytes /. copy.Machine.pcie_bw)))
  in
  let links = Topology.links topo and walk = bd.walk in
  for i = 0 to Topology.route_links topo ~src:src.Machine.mnode ~dst:dst.Machine.mnode walk - 1 do
    let l = links.(walk.(i)) in
    acc := !acc +. (l.Topology.llat +. (bytes /. l.Topology.lbw))
  done;
  b.dep_cost.(k) <- !acc

let staged (m : Machine.memory) bit = if m.Machine.mkind = Kinds.Frame_buffer then bit else 0

(* Dep [k]'s channel, class and cost between the instances its
   producer and consumer shards hold.  A routed dep keeps what its
   route depends on — the endpoints' nodes and a route code — and
   every copy walks the route afresh; the kind-level channel keeps its
   slot. *)
let bind_dep bd k =
  let b = bd.tables in
  let lay = b.lay in
  let pl = lay.lplan and mem = bd.planes.Placement.mem in
  let machine = lay.lmachine in
  let src_mid =
    mem.(pl.Placement.col_off.(lay.dep_src_cid.(k)) + lay.slot_shard.(lay.dep_src_slot.(k)))
  in
  let dst_mid =
    mem.(pl.Placement.col_off.(lay.dep_dst_cid.(k)) + lay.slot_shard.(lay.dep_dst_slot.(k)))
  in
  if src_mid = dst_mid then b.dep_chan.(k) <- -1
  else begin
    let sm = machine.Machine.memories.(src_mid) and dm = machine.Machine.memories.(dst_mid) in
    let ch = Machine.channel_between machine sm dm in
    let cls = channel_class_index ch in
    let src = sm.Machine.mnode and dst = dm.Machine.mnode in
    b.dep_class.(k) <- cls;
    match machine.Machine.topology with
    | Some topo when ch = Machine.Network && Topology.family topo = Topology.Direct ->
        b.dep_chan.(k) <- -2 - route_direct;
        b.dep_src_node.(k) <- src;
        b.dep_dst_node.(k) <- dst;
        set_channel_cost b k sm dm cls
    | Some topo when ch = Machine.Network && Topology.distance topo ~src ~dst >= 0 ->
        b.dep_chan.(k) <- -2 - (staged sm stage_src lor staged dm stage_dst);
        b.dep_src_node.(k) <- src;
        b.dep_dst_node.(k) <- dst;
        set_routed_cost bd topo k sm dm
    | _ ->
        b.dep_chan.(k) <- channel_slot src ch;
        set_channel_cost b k sm dm cls
  end

let bind_all bd mapping =
  let lay = bd.tables.lay in
  for tid = 0 to Graph.n_tasks lay.lgraph - 1 do
    bind_task bd mapping tid
  done;
  for k = 0 to Array.length lay.dep_bytes - 1 do
    bind_dep bd k
  done

(* The deps touching collection [cid], once per generation *)
let bind_col_deps bd cid =
  if bd.col_gen.(cid) <> bd.gen then begin
    bd.col_gen.(cid) <- bd.gen;
    let lay = bd.tables.lay in
    for j = lay.cid_dep_off.(cid) to lay.cid_dep_off.(cid + 1) - 1 do
      bind_dep bd lay.cid_dep_idx.(j)
    done
  end

(* Re-bind only the entries a coordinate change can invalidate: the
   slots of changed tasks and of tasks owning a changed collection
   (their durations read the collection's kind), and the deps touching
   any collection whose instances {!Placement.patch} moved — the
   changed collections and the arguments of changed tasks.  Every other
   entry's inputs are unchanged, so it is already bit-correct. *)
let bind_delta bd mapping ~n_tids ~n_cids =
  let pl = bd.tables.lay.lplan in
  bd.gen <- bd.gen + 1;
  let gen = bd.gen in
  for i = 0 to n_tids - 1 do
    let tid = bd.dtids.(i) in
    bd.task_gen.(tid) <- gen;
    bind_task bd mapping tid
  done;
  for i = 0 to n_cids - 1 do
    let o = pl.Placement.col_owner.(bd.dcids.(i)) in
    if bd.task_gen.(o) <> gen then begin
      bd.task_gen.(o) <- gen;
      bind_task bd mapping o
    end
  done;
  for i = 0 to n_cids - 1 do
    bind_col_deps bd bd.dcids.(i)
  done;
  for i = 0 to n_tids - 1 do
    let tid = bd.dtids.(i) in
    for j = pl.Placement.arg_off.(tid) to pl.Placement.arg_off.(tid + 1) - 1 do
      bind_col_deps bd pl.Placement.args.(j)
    done
  done

let hit = 0
let rebound = 1
let failed = 2

let bound bd ~fallback mapping =
  bd.bound <- mapping;
  bd.has_bound <- true;
  bd.bound_fallback <- fallback;
  bd.tables.demotions <- bd.planes.Placement.demotions;
  rebound

let full bd ~fallback mapping =
  let pl = bd.tables.lay.lplan in
  match Placement.resolve_into ~fallback pl bd.planes mapping with
  | Ok () ->
      bd.full_binds <- bd.full_binds + 1;
      bind_all bd mapping;
      bound bd ~fallback mapping
  | Error e ->
      (match e with
      | Placement.Out_of_memory _ when bd.has_bound ->
          (* the failed resolve overwrote the planes: put the bound
             mapping's back, so the next candidate can still patch
             them *)
          ignore
            (Placement.resolve_into ~fallback:bd.bound_fallback pl bd.planes bd.bound
              : (unit, Placement.error) result)
      | _ -> ());
      bd.error <- Some e;
      failed

(* Patching scales with the affected collections while a full resolve
   walks the whole graph, so only give up when most coordinates moved
   at once (e.g. a restart from a random mapping). *)
let patch_coord_limit = 32

let resolve bd ~fallback mapping =
  if bd.has_bound && bd.bound == mapping && bd.bound_fallback = fallback then begin
    bd.hits <- bd.hits + 1;
    hit
  end
  else if not (bd.has_bound && (not fallback) && not bd.bound_fallback) then
    (* a fallback placement's demotions couple distant coordinates
       through shared capacities, so only strict placements patch *)
    full bd ~fallback mapping
  else begin
    let n_tids = Mapping.task_diff bd.bound mapping bd.dtids in
    let n_cids = Mapping.collection_diff bd.bound mapping bd.dcids in
    if n_tids + n_cids > patch_coord_limit then full bd ~fallback mapping
    else
      let pl = bd.tables.lay.lplan in
      if
        Placement.patch pl bd.planes bd.ws ~old:bd.bound mapping ~tids:bd.dtids ~n_tids
          ~cids:bd.dcids ~n_cids
      then begin
        bd.delta_binds <- bd.delta_binds + 1;
        bind_delta bd mapping ~n_tids ~n_cids;
        bound bd ~fallback mapping
      end
      else
        (* the patch put the planes back; the verdict is the full
           resolve's, and so is its message *)
        match Placement.resolve_with pl mapping with
        | Error e ->
            bd.error <- Some e;
            failed
        | Ok _ -> full bd ~fallback mapping
  end

let tables bd = bd.tables
let planes bd = bd.planes
let ok bd = bd.ok
let error bd = match bd.error with Some e -> e | None -> invalid_arg "Bind.error: no failed bind"
let delta_binds bd = bd.delta_binds
let full_binds bd = bd.full_binds
let hits bd = bd.hits
