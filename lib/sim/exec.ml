type result = {
  makespan : float;
  per_iteration : float;
  task_times : float array;
  proc_busy : float array;
  bytes_moved : float;
  channel_bytes : float array;
  n_copies : int;
  demotions : int;
}

let channel_class_names = [| "host"; "xsocket"; "pcie"; "peer"; "net" |]

type error = Placement.error

let n_channel_classes = Bind.n_channel_classes

(* Routed copies (machines with an explicit topology): a dep's
   [dep_chan] is -1 for the same memory (no copy), >= 0 for the
   pre-topology kind-level channel slot, kept byte-identical for every
   machine without a topology, and <= -2 when routed, with route code
   (-2 - dep_chan) ({!Bind.route_direct}, or the staging bits).
   Per-link busy-until clocks live after the kind-level plane of
   [chan_free]: slot = nodes * n_channel_classes + link id. *)
let n_chan_slots machine =
  (machine.Machine.nodes * n_channel_classes)
  +
  match machine.Machine.topology with
  | Some topo -> Topology.n_links topo
  | None -> 0

(* Does the machine serialize copies on busy-until clocks?  True for
   every machine without a topology (kind-level channel FIFOs) and for
   contended topologies; false only for the [:free] counterfactual,
   where every copy costs its full path time but never queues. *)
let clocks_contended machine =
  match machine.Machine.topology with
  | Some topo -> Topology.contended topo
  | None -> true

let proc_resource_name (p : Machine.processor) =
  Printf.sprintf "node%d/%s%d" p.Machine.pnode
    (Kinds.proc_kind_to_string p.Machine.pkind)
    p.Machine.plocal

(* ------------------------------------------------------------------ *)
(* The event queue: a monomorphic binary min-heap with float priority *)
(* and int payload in three parallel flat arrays, plus a lane: an int *)
(* ring of the payloads pushed at the queue's clock, in push order.   *)
(* The clock is the priority of the last heap pop made while the lane *)
(* was empty (0.0 after [create] and [reset]).  A push at the clock   *)
(* joins the lane, any other goes on the heap, and the lane's front   *)
(* pops next unless the heap's top priority is <= the clock.  Pops    *)
(* keep the oracle heap's (priority, insertion sequence) order: lane  *)
(* entries all sit at the clock, in push order; a heap entry at the   *)
(* clock was pushed before the clock took that value (later ones join *)
(* the lane), so it pops first; and the clock moves only while the    *)
(* lane is empty.  Events due at the clock just popped (about 40% of  *)
(* a run's) so skip a sift up and down.  Nothing allocates: the clock *)
(* is a float-array slot, as a mutable float field would box.         *)
(* The queue lives here rather than in its own module because dune's  *)
(* dev profile compiles with -opaque, which stops cross-module        *)
(* inlining: a [push] or [top_prio] called from another unit boxes    *)
(* its float on every event (DESIGN.md §11).                          *)
(* ------------------------------------------------------------------ *)

module Fheap = struct
  type t = {
    mutable prio : float array;
    mutable seq : int array;
    mutable payload : int array;
    mutable size : int;
    mutable next_seq : int;
    mutable lane : int array;   (* ring buffer of payloads due at the clock *)
    mutable lane_head : int;
    mutable lane_len : int;
    clock : float array;        (* one slot *)
  }

  let create ?(capacity = 16) () =
    let capacity = max capacity 1 in
    {
      prio = Array.make capacity 0.0;
      seq = Array.make capacity 0;
      payload = Array.make capacity 0;
      size = 0;
      next_seq = 0;
      lane = Array.make capacity 0;
      lane_head = 0;
      lane_len = 0;
      clock = [| 0.0 |];
    }

  let[@inline] is_empty h = h.size = 0 && h.lane_len = 0

  (* Does the next pop come from the lane? *)
  let[@inline] lane_next h =
    h.lane_len > 0 && (h.size = 0 || Array.unsafe_get h.prio 0 > Array.unsafe_get h.clock 0)

  (* strict ordering: priority, then insertion sequence (FIFO on ties).
     The sift loops move the displaced element as a hole (read once,
     shift the path, write once) rather than swapping at every level —
     half the array traffic on the event loop's hottest inner loops. *)

  let grow h =
    let cap = Array.length h.prio in
    if h.size = cap then begin
      let ncap = 2 * cap in
      let np = Array.make ncap 0.0 and ns = Array.make ncap 0 and nv = Array.make ncap 0 in
      Array.blit h.prio 0 np 0 h.size;
      Array.blit h.seq 0 ns 0 h.size;
      Array.blit h.payload 0 nv 0 h.size;
      h.prio <- np;
      h.seq <- ns;
      h.payload <- nv
    end

  (* Doubles a full lane, unrolling the ring to start at index 0. *)
  let lane_grow h =
    let cap = Array.length h.lane in
    let nl = Array.make (2 * cap) 0 in
    Array.blit h.lane h.lane_head nl 0 (cap - h.lane_head);
    Array.blit h.lane 0 nl (cap - h.lane_head) h.lane_head;
    h.lane <- nl;
    h.lane_head <- 0

  (* Unsafe indexing below: every index is either [start] (< size, by
     the callers) or a parent/child index derived from one, and the
     three arrays always share one capacity >= size. *)
  let sift_up h start =
    let prio = h.prio and seq = h.seq and payload = h.payload in
    let p = Array.unsafe_get prio start
    and s = Array.unsafe_get seq start
    and v = Array.unsafe_get payload start in
    let i = ref start in
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      let pp = Array.unsafe_get prio parent in
      if p < pp || (p = pp && s < Array.unsafe_get seq parent) then begin
        Array.unsafe_set prio !i pp;
        Array.unsafe_set seq !i (Array.unsafe_get seq parent);
        Array.unsafe_set payload !i (Array.unsafe_get payload parent);
        i := parent
      end
      else continue := false
    done;
    Array.unsafe_set prio !i p;
    Array.unsafe_set seq !i s;
    Array.unsafe_set payload !i v

  let[@inline] push h prio payload =
    if prio = Array.unsafe_get h.clock 0 then begin
      if h.lane_len = Array.length h.lane then lane_grow h;
      let j = h.lane_head + h.lane_len in
      let cap = Array.length h.lane in
      h.lane.(if j >= cap then j - cap else j) <- payload;
      h.lane_len <- h.lane_len + 1
    end
    else begin
      grow h;
      let i = h.size in
      h.prio.(i) <- prio;
      h.seq.(i) <- h.next_seq;
      h.payload.(i) <- payload;
      h.next_seq <- h.next_seq + 1;
      h.size <- h.size + 1;
      sift_up h i
    end

  let[@inline] top_prio h = if lane_next h then h.clock.(0) else h.prio.(0)
  let[@inline] top h = if lane_next h then h.lane.(h.lane_head) else h.payload.(0)

  let drop h =
    if lane_next h then begin
      let hd = h.lane_head + 1 in
      h.lane_head <- (if hd = Array.length h.lane then 0 else hd);
      h.lane_len <- h.lane_len - 1
    end
    else if h.size > 0 then begin
      if h.lane_len = 0 then h.clock.(0) <- h.prio.(0);
      h.size <- h.size - 1;
      let n = h.size in
      if n > 0 then begin
        let prio = h.prio and seq = h.seq and payload = h.payload in
        let p = Array.unsafe_get prio n
        and s = Array.unsafe_get seq n
        and v = Array.unsafe_get payload n in
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 in
          if l >= n then continue := false
          else begin
            let r = l + 1 in
            let pl = Array.unsafe_get prio l in
            let c =
              if
                r < n
                && (let pr = Array.unsafe_get prio r in
                    pr < pl
                    || (pr = pl && Array.unsafe_get seq r < Array.unsafe_get seq l))
              then r
              else l
            in
            let pc = Array.unsafe_get prio c in
            if pc < p || (pc = p && Array.unsafe_get seq c < s) then begin
              Array.unsafe_set prio !i pc;
              Array.unsafe_set seq !i (Array.unsafe_get seq c);
              Array.unsafe_set payload !i (Array.unsafe_get payload c);
              i := c
            end
            else continue := false
          end
        done;
        Array.unsafe_set prio !i p;
        Array.unsafe_set seq !i s;
        Array.unsafe_set payload !i v
      end
    end

  let reset h =
    h.size <- 0;
    h.next_seq <- 0;
    h.lane_head <- 0;
    h.lane_len <- 0;
    h.clock.(0) <- 0.0
end

(* ------------------------------------------------------------------ *)
(* Compiled fast path.                                                *)
(*                                                                    *)
(* [compile] derives every mapping-independent structure once, as     *)
(* flat CSR-style int/float arrays; [simulate] binds a mapping to the *)
(* compiled problem and runs the event loop against a reusable        *)
(* [scratch], allocating only the (small) per-task/per-proc result    *)
(* arrays.  The event order — and therefore every float — is          *)
(* identical to the golden interpreter (test/oracle): same traversal *)
(* order, same RNG draw order, same FIFO event-queue tie-breaking.    *)
(* ------------------------------------------------------------------ *)

type compiled = {
  cmachine : Machine.t;
  cgraph : Graph.t;
  blay : Bind.layout;          (* what a bind reads *)
  spi : int;                   (* shards (instance slots) per iteration *)
  slot_tid : int array;        (* slot -> owning task *)
  slot_shard : int array;      (* slot -> shard index within the group *)
  indeg_base : int array;      (* per-slot within-iteration indegree *)
  indeg_carried : int array;   (* extra indegree from loop-carried edges *)
  (* CSR over producer slots: deps of slot s live in
     dep_*[dep_off.(s) .. dep_off.(s+1) - 1], in the exact order the
     reference interpreter visits them. *)
  dep_off : int array;
  dep_src_slot : int array;    (* producer's slot (inverse of dep_off ranges) *)
  dep_src_cid : int array;
  dep_dst_cid : int array;
  dep_dst_slot : int array;    (* consumer's slot within its iteration *)
  dep_bytes : float array;
  dep_carried : bool array;
  (* slots in task-topological order (producers of every non-carried
     dep before its consumers) — slot numbering itself is task-id
     order, NOT topological, so the static critical-path floor must
     relax along this permutation *)
  topo_slots : int array;
  dispatch_cost : float;
  (* an event names its instance as (index lsl slot_bits) lor slot,
     so the event loop reads its index into the per-instance arrays
     and its slot with a shift and a mask: no division, and no
     per-instance slot table *)
  slot_bits : int;
  slot_mask : int;
  (* false only for [:free] (uncontended) topologies: copies still pay
     full path cost but never serialize on the busy-until clocks *)
  contended : bool;
}

(* Shared per-seed noise stream.  Draws are strictly sequential and
   instance-ascending for every run of a seed regardless of mapping, so
   the values can be drawn once and reused by every candidate (and by
   {!run_lower_bound}).  [nrng] is positioned after [nfilled] draws;
   extending the buffer continues the exact stream a fresh
   [Rng.create seed] would produce. *)
type noise_cache = {
  mutable nbuf : float array;
  mutable nfilled : int;
  nrng : Rng.t;
  nsigma : float;
}

(* Indices into the [r_acc] accumulator plane.  Scalar float outputs of
   a simulation live in one preallocated float array rather than in
   [ref] cells: a [float ref] write from an unboxed local re-boxes the
   float, a float-array store never does. *)
let acc_makespan = 0
let acc_bytes = 1
let acc_cut = 2
let acc_per_iter = 3
let acc_sfloor = 4
let n_acc = 5

(* The noise table is keyed by seed; the evaluator's common-random-
   numbers protocol draws every run's seed from a fixed window of
   [runs] values, so a small cap never evicts in practice and merely
   bounds memory for unusual callers.  (64 leaves room for a whole
   portfolio of members sharing one scratch — 8 members x 8 CRN
   seeds.) *)
let seed_table_cap = 64

(* What a bound mapping decides and the event loop reads ({!Bind}).
   A scratch's binder rewrites its own tables in place on every
   (re-)bind; a frozen copy ({!freeze}) is never written again, so
   runners on several domains can read it at once. *)
type bind = Bind.t

(* What one simulation writes.  Nothing in a runner outlives a run
   except its capacity, so one runner serves any bind of its problem,
   and a domain that only runs needs nothing else. *)
type runner = {
  rprob : compiled;
  (* per-instance state, grown on demand when [iterations] increases *)
  mutable cap_instances : int;
  mutable ready_time : float array;
  mutable indeg : int array;
  mutable noise : float array;
  (* per-resource state, fixed size *)
  proc_free : float array;
  chan_free : float array;
  dispatch_free : float array;
  (* one copy's walk ({!route_hops}): the route's link ids, then its
     hops as (busy-until slot, seconds) pairs.  Sized by the
     topology's diameter, so a runner's routed state is O(1) whatever
     routes its binds hold. *)
  walk_links : int array;
  walk_slot : int array;
  walk_cost : float array;
  events : Fheap.t;
  (* ---- result planes (struct-of-arrays): [event_loop] writes every
     run's outputs here; the record-returning wrappers copy them out,
     so the zero-allocation quiet path and the compat API share one
     event loop ---- *)
  r_task_times : float array;
  r_proc_busy : float array;
  r_channel_bytes : float array;
  r_acc : float array;
  mutable r_n_copies : int;
  mutable r_demotions : int;
  (* ---- per-call event-loop state.  Runner-resident so the event
     helpers ([dep_arrived] / [do_ready] / [do_done]) are plain
     top-level functions: no closures means no per-call environment
     allocation, and [@inline] call sites keep every float unboxed
     between them. ---- *)
  mutable sim_ninst : int;           (* the run's instance count *)
  mutable sim_noise : float array;   (* active noise buffer *)
  mutable sim_nfilled : int;
  mutable sim_fill : int;            (* 0 prefilled | 1 shared cache | 2 private rng *)
  mutable sim_ncache : noise_cache;  (* valid when sim_fill = 1 *)
  mutable sim_nrng : Rng.t;          (* valid when sim_fill = 2 *)
  mutable sim_sigma : float;
  mutable sim_trace : Trace.t option;
}

(* A scratch is one binder and one runner, plus what a search reuses
   across runs (the per-seed noise streams and the static-floor memo).
   The binder caches its last successful bind: the evaluator's §5
   protocol simulates the same mapping [runs] times in a row with
   different noise seeds, and placement + binding are
   noise-independent.  Mappings are immutable values, so physical
   equality is a sound cache key. *)
type scratch = {
  prob : compiled;
  binder : Bind.binder;
  run : runner;
  cp : float array;            (* static_floors' critical-path accumulator *)
  (* flat per-seed noise table (struct-of-arrays).  A search touches a
     handful of CRN seeds, so a linear scan beats hashing — and unlike
     [Hashtbl.find_opt], which boxes its [Some], a scan allocates
     nothing on the per-candidate path. *)
  nz_seed : int array;                           (* length seed_table_cap *)
  mutable nzs : noise_cache array;               (* first n_nzs live *)
  mutable n_nzs : int;
  mutable r_error : Placement.error option;
  (* static-floor memo: {!static_floors} is pure in the bind tables and
     [iterations], so its value survives until the next re-bind *)
  mutable sfloor_valid : bool;
  mutable sfloor_iters : int;
}

let compile machine (g : Graph.t) =
  let nt = Graph.n_tasks g in
  let plan = Placement.plan machine g in
  (* slots are the plan's task shards *)
  let offset = plan.Placement.task_off in
  let spi = offset.(nt) in
  let slot_tid = Array.make spi 0 in
  let slot_shard = Array.make spi 0 in
  for tid = 0 to nt - 1 do
    for s = 0 to (Graph.task g tid).group_size - 1 do
      slot_tid.(offset.(tid) + s) <- tid;
      slot_shard.(offset.(tid) + s) <- s
    done
  done;
  (* Enumerate the dependences in the reference interpreter's
     generation order: [f producer_slot edge consumer_slot bytes]. *)
  let owner cid = (Graph.collection g cid).owner in
  let iter_deps f =
    List.iter
      (fun (e : Graph.edge) ->
        let ts = owner e.src and td = owner e.dst in
        let ss = (Graph.task g ts).group_size and sd = (Graph.task g td).group_size in
        for s = 0 to sd - 1 do
          let main = if ss = sd then s else s * ss / sd in
          let add src_shard bytes =
            if src_shard >= 0 && src_shard < ss && bytes > 0.0 then
              f (offset.(ts) + src_shard) e (offset.(td) + s) bytes
          in
          add main e.bytes;
          match e.pattern with
          | Pattern.Same_shard -> ()
          | Pattern.Halo { frac } ->
              add (main - 1) (e.bytes *. frac);
              add (main + 1) (e.bytes *. frac)
        done)
      g.edges
  in
  (* Two counting passes build the CSR.  Pass 1 sizes each producer
     slot's range and counts consumer indegrees. *)
  let indeg_base = Array.make spi 0 in
  let indeg_carried = Array.make spi 0 in
  let dep_off = Array.make (spi + 1) 0 in
  iter_deps (fun slot (e : Graph.edge) dst_slot _ ->
      dep_off.(slot + 1) <- dep_off.(slot + 1) + 1;
      let counter = if e.carried then indeg_carried else indeg_base in
      counter.(dst_slot) <- counter.(dst_slot) + 1);
  for slot = 0 to spi - 1 do
    dep_off.(slot + 1) <- dep_off.(slot + 1) + dep_off.(slot)
  done;
  let n_deps = dep_off.(spi) in
  let dep_src_slot = Array.make n_deps 0 in
  let dep_src_cid = Array.make n_deps 0 in
  let dep_dst_cid = Array.make n_deps 0 in
  let dep_dst_slot = Array.make n_deps 0 in
  let dep_bytes = Array.make n_deps 0.0 in
  let dep_carried = Array.make n_deps false in
  (* Pass 2 fills each range back to front: the reference interpreter
     prepends to per-slot lists, so it visits a slot's deps newest
     first. *)
  let cursor = Array.sub dep_off 1 spi in
  iter_deps (fun slot (e : Graph.edge) dst_slot bytes ->
      let k = cursor.(slot) - 1 in
      cursor.(slot) <- k;
      dep_src_slot.(k) <- slot;
      dep_src_cid.(k) <- e.src;
      dep_dst_cid.(k) <- e.dst;
      dep_dst_slot.(k) <- dst_slot;
      dep_bytes.(k) <- bytes;
      dep_carried.(k) <- e.carried);
  let slot_bits =
    let b = ref 0 in
    while 1 lsl !b < spi do incr b done;
    !b
  in
  let topo_slots = Array.make spi 0 in
  (let i = ref 0 in
   List.iter
     (fun (task : Graph.task) ->
       for s = 0 to task.group_size - 1 do
         topo_slots.(!i) <- offset.(task.tid) + s;
         incr i
       done)
     (Graph.topological_order g));
  {
    cmachine = machine;
    cgraph = g;
    blay =
      Bind.layout machine g plan ~slot_shard ~dep_src_slot ~dep_src_cid ~dep_dst_cid
        ~dep_dst_slot ~dep_bytes;
    spi;
    slot_tid;
    slot_shard;
    indeg_base;
    indeg_carried;
    dep_off;
    dep_src_slot;
    dep_src_cid;
    dep_dst_cid;
    dep_dst_slot;
    dep_bytes;
    dep_carried;
    topo_slots;
    dispatch_cost = machine.Machine.compute.Machine.runtime_dispatch;
    slot_bits;
    slot_mask = (1 lsl slot_bits) - 1;
    contended = clocks_contended machine;
  }

let freeze = Bind.freeze

let runner prob =
  let machine = prob.cmachine in
  let diameter = Option.fold ~none:0 ~some:Topology.diameter machine.Machine.topology in
  let dummy = { nbuf = [||]; nfilled = 0; nrng = Rng.create 0; nsigma = 0.0 } in
  {
    rprob = prob;
    cap_instances = 0;
    ready_time = [||];
    indeg = [||];
    noise = [||];
    proc_free = Array.make (Array.length machine.Machine.processors) 0.0;
    chan_free = Array.make (n_chan_slots machine) 0.0;
    dispatch_free = Array.make machine.Machine.nodes 0.0;
    walk_links = Array.make diameter 0;
    walk_slot = Array.make (diameter + 2) 0;
    walk_cost = Array.make (diameter + 2) 0.0;
    (* a run's first events are its roots, up to a slot each, all
       due at time 0 in the lane: sized for them, the queue of a
       fresh runner does not grow through a string of doublings *)
    events = Fheap.create ~capacity:prob.spi ();
    r_task_times = Array.make (max (Graph.n_tasks prob.cgraph) 1) 0.0;
    r_proc_busy = Array.make (Array.length machine.Machine.processors) 0.0;
    r_channel_bytes = Array.make n_channel_classes 0.0;
    r_acc = Array.make n_acc 0.0;
    r_n_copies = 0;
    r_demotions = 0;
    sim_ninst = 0;
    sim_noise = [||];
    sim_nfilled = 0;
    sim_fill = 0;
    sim_ncache = dummy;
    sim_nrng = dummy.nrng;
    sim_sigma = 0.0;
    sim_trace = None;
  }

let scratch prob =
  {
    prob;
    binder = Bind.binder prob.blay;
    run = runner prob;
    cp = Array.make (max prob.spi 1) 0.0;
    nz_seed = Array.make seed_table_cap 0;
    nzs = [||];
    n_nzs = 0;
    r_error = None;
    sfloor_valid = false;
    sfloor_iters = 0;
  }

let compiled_of_scratch sc = sc.prob
let scratch_runner sc = sc.run
let compiled_machine prob = prob.cmachine
let compiled_graph prob = prob.cgraph
let compiled_slots prob = prob.spi
let compiled_words prob = Obj.reachable_words (Obj.repr prob)

let bind_cache_hits sc = Bind.hits sc.binder
let binder sc = sc.binder

let ensure_capacity r n =
  if n > r.cap_instances then begin
    (* every event payload, (n lsl slot_bits) lor slot lsl 1 at most,
       must fit an int *)
    if n > max_int lsr (r.rprob.slot_bits + 2) then
      invalid_arg "Exec: too many task instances";
    r.ready_time <- Array.make n 0.0;
    r.indeg <- Array.make n 0;
    r.noise <- Array.make n 1.0;
    r.cap_instances <- n
  end

(* ------------------------------------------------------------------ *)
(* Shared per-seed noise streams.                                      *)
(* ------------------------------------------------------------------ *)

(* Index of the noise cache for [seed], creating it when [add] is set
   and the table has room.  -1 = none usable (no stream and none added,
   sigma mismatch on an existing stream, or table full): the caller
   must fall back to a private Rng. *)
let noise_cache_idx sc ~seed ~sigma ~add =
  let n = sc.n_nzs in
  let found = ref (-2) in
  let i = ref 0 in
  while !found = -2 && !i < n do
    if sc.nz_seed.(!i) = seed then
      (* same seed under a different sigma: leave the stream alone *)
      found := (if sc.nzs.(!i).nsigma = sigma then !i else -1)
    else incr i
  done;
  if !found > -2 then !found
  else if (not add) || n >= seed_table_cap then -1
  else begin
    let c = { nbuf = [||]; nfilled = 0; nrng = Rng.create seed; nsigma = sigma } in
    sc.nz_seed.(n) <- seed;
    if Array.length sc.nzs > n then sc.nzs.(n) <- c
    else sc.nzs <- Array.append sc.nzs [| c |];
    sc.n_nzs <- n + 1;
    n
  end

let noise_reserve c n =
  if Array.length c.nbuf < n then begin
    let nb = Array.make (max n (2 * Array.length c.nbuf)) 1.0 in
    Array.blit c.nbuf 0 nb 0 c.nfilled;
    c.nbuf <- nb
  end

let noise_fill c upto =
  if upto > c.nfilled then begin
    Rng.fill_lognormal c.nrng ~sigma:c.nsigma c.nbuf ~pos:c.nfilled ~len:(upto - c.nfilled);
    c.nfilled <- upto
  end

let routed_topo prob =
  match prob.cmachine.Machine.topology with Some t -> t | None -> assert false

(* Routed dep [k]'s hops for one copy, written to the runner's walk
   buffers in path order and counted: PCIe staging at the source, each
   link of the route, staging at the destination.  A link hop costs
   [llat +. (bytes /. lbw)] and a staging hop [local_latency +.
   (bytes /. pcie_bw)] on the node's kind-level PCIe clock.  The Direct
   family's one hop, on the source node's link, costs the dep's whole
   [Machine.copy_cost] total: a bijection with the kind-level Network
   plane (DESIGN.md §15).  Allocates nothing. *)
let route_hops (b : bind) r k =
  let prob = r.rprob in
  let machine = prob.cmachine in
  let link_base = Bind.link_slot_base ~nodes:machine.Machine.nodes in
  let slots = r.walk_slot and costs = r.walk_cost in
  let src = b.dep_src_node.(k) and dst = b.dep_dst_node.(k) in
  let code = -2 - b.dep_chan.(k) in
  if code = Bind.route_direct then begin
    slots.(0) <- link_base + src;
    costs.(0) <- b.dep_cost.(k);
    1
  end
  else begin
    let topo = routed_topo prob in
    let copy = machine.Machine.copy and bytes = prob.dep_bytes.(k) in
    let n = ref 0 in
    if code land Bind.stage_src <> 0 then begin
      slots.(0) <- (src * n_channel_classes) + 2;
      costs.(0) <- copy.Machine.local_latency +. (bytes /. copy.Machine.pcie_bw);
      n := 1
    end;
    let ids = r.walk_links and links = Topology.links topo in
    for i = 0 to Topology.route_links topo ~src ~dst ids - 1 do
      let l = links.(ids.(i)) in
      slots.(!n) <- link_base + l.Topology.lid;
      costs.(!n) <- l.Topology.llat +. (bytes /. l.Topology.lbw);
      incr n
    done;
    if code land Bind.stage_dst <> 0 then begin
      slots.(!n) <- (dst * n_channel_classes) + 2;
      costs.(!n) <- copy.Machine.local_latency +. (bytes /. copy.Machine.pcie_bw);
      incr n
    end;
    !n
  end

(* Resolve + bind through the binder, which reuses its bind when the
   evaluator re-runs the same mapping with a fresh noise seed and
   patches it when the new mapping is a near neighbour of the bound one
   — the hill-climbing common case.  False on a placement error, which
   [r_error] then holds. *)
let resolve_bound sc ~fallback mapping =
  let st = Bind.resolve sc.binder ~fallback mapping in
  if st = Bind.rebound then sc.sfloor_valid <- false;
  if st = Bind.failed then begin
    sc.r_error <- Some (Bind.error sc.binder);
    false
  end
  else true

let bind sc ~fallback mapping =
  if resolve_bound sc ~fallback mapping then Bind.ok sc.binder
  else Error (Bind.error sc.binder)

let delta_binds sc = Bind.delta_binds sc.binder
let full_binds sc = Bind.full_binds sc.binder

type outcome = Finished of result | Cut of float

(* ------------------------------------------------------------------ *)
(* The event loop.                                                     *)
(*                                                                     *)
(* An event is (name lsl 1) lor tag, tag 0 = Ready, 1 = Done, where an *)
(* instance's name is (index lsl slot_bits) lor slot; push order       *)
(* matches the reference so FIFO tie-breaks agree.  The loop reads a   *)
(* bind and writes a runner, nothing else: a scratch's simulation is   *)
(* its resolve-and-bind followed by this loop over its own pair, and   *)
(* the fresh-seed runs of a measurement are this loop over a runner    *)
(* of their domain and a bind made on the calling one.  The helpers   *)
(* below are top-level [@inline] functions over runner-resident state  *)
(* rather than per-call closures, so a run allocates no environment,   *)
(* and inlining (helpers and {!Fheap} alike live in this unit) keeps   *)
(* every float in registers between them.  In the steady state        *)
(* (cached bind, cached noise stream) a simulation performs zero       *)
(* minor-heap allocation — pinned by test_alloc.                       *)
(* ------------------------------------------------------------------ *)

(* status codes of [event_loop] / [simulate_quiet] *)
let st_finished = 0
let st_cut = 1
let st_error = 2

(* Lazy noise refill, out of line: int-only signature, and in the
   steady state [sim_nfilled] already covers the run so it is never
   called.  It fills a block ahead of instance [i], capped at the run's
   instance count: the stream is sequential, so where a block ends
   changes no value, and a cut run draws at most one block it never
   reads. *)
let noise_block = 256

let fill_noise r i =
  let upto = min (i + noise_block) r.sim_ninst in
  match r.sim_fill with
  | 1 ->
      let c = r.sim_ncache in
      noise_fill c upto;
      r.sim_nfilled <- c.nfilled
  | 2 ->
      Rng.fill_lognormal r.sim_nrng ~sigma:r.sim_sigma r.sim_noise ~pos:r.sim_nfilled
        ~len:(upto - r.sim_nfilled);
      r.sim_nfilled <- upto
  | _ -> ()

(* Noise drawn by the run itself, from a fresh [Rng.create seed] (or
   none at sigma 0): the source of every run that reads no shared
   stream. *)
let private_noise r ~noise_sigma ~seed n_instances =
  r.sim_sigma <- noise_sigma;
  r.sim_noise <- r.noise;
  if noise_sigma > 0.0 then begin
    r.sim_fill <- 2;
    r.sim_nrng <- Rng.create seed;
    r.sim_nfilled <- 0
  end
  else begin
    Array.fill r.noise 0 n_instances 1.0;
    r.sim_fill <- 0;
    r.sim_nfilled <- n_instances
  end

(* Trace emission, out of line: a traced run is a one-off diagnostic,
   never the search's hot path.  Both events name their resources from
   the bind: a slot's processor, and a copy's source node (a
   kind-level channel slot is node * n_channel_classes + class). *)
let trace_exec_event (b : bind) r collector slot start d =
  let prob = r.rprob in
  let tid = prob.slot_tid.(slot) in
  Trace.add collector
    {
      Trace.label =
        Printf.sprintf "%s.%d" (Graph.task prob.cgraph tid).Graph.tname prob.slot_shard.(slot);
      kind = Trace.Task_exec;
      resource = proc_resource_name prob.cmachine.Machine.processors.(b.slot_pid.(slot));
      start_time = start;
      duration = d;
    }

let trace_copy_event (b : bind) r collector k start cost =
  let prob = r.rprob in
  let g = prob.cgraph in
  let chan = b.dep_chan.(k) in
  let src_node = if chan >= 0 then chan / n_channel_classes else b.dep_src_node.(k) in
  Trace.add collector
    {
      Trace.label =
        Printf.sprintf "%s -> %s"
          (Graph.collection g prob.dep_src_cid.(k)).Graph.cname
          (Graph.collection g prob.dep_dst_cid.(k)).Graph.cname;
      kind = Trace.Copy;
      resource = Printf.sprintf "node%d/%s" src_node channel_class_names.(b.dep_class.(k));
      start_time = start;
      duration = cost;
    }

(* [i] is the instance's index into the per-instance arrays, [name]
   its (i lsl slot_bits) lor slot *)
let[@inline] dep_arrived r i name t =
  let ready_time = r.ready_time in
  if t > ready_time.(i) then ready_time.(i) <- t;
  let indeg = r.indeg in
  let d = indeg.(i) - 1 in
  indeg.(i) <- d;
  if d = 0 then Fheap.push r.events ready_time.(i) (name lsl 1)

let[@inline] do_ready (b : bind) r name t =
  let prob = r.rprob in
  let slot = name land prob.slot_mask in
  let i = name lsr prob.slot_bits in
  let node = b.slot_node.(slot) in
  let free = r.dispatch_free.(node) in
  let dispatched = (if t > free then t else free) +. prob.dispatch_cost in
  r.dispatch_free.(node) <- dispatched;
  let pid = b.slot_pid.(slot) in
  let pfree = r.proc_free.(pid) in
  let start = if dispatched > pfree then dispatched else pfree in
  if i >= r.sim_nfilled then fill_noise r i;
  let d = b.slot_dur.(slot) *. r.sim_noise.(i) in
  let t_done = start +. d in
  r.proc_free.(pid) <- t_done;
  r.r_proc_busy.(pid) <- r.r_proc_busy.(pid) +. d;
  let tid = prob.slot_tid.(slot) in
  r.r_task_times.(tid) <- r.r_task_times.(tid) +. d;
  (match r.sim_trace with
  | Some collector -> trace_exec_event b r collector slot start d
  | None -> ());
  Fheap.push r.events t_done ((name lsl 1) lor 1)

let[@inline] do_done (b : bind) r name t_done =
  let prob = r.rprob in
  let spi = prob.spi and bits = prob.slot_bits and n = r.sim_ninst in
  let i = name lsr bits in
  let slot = name land prob.slot_mask in
  (* the first index of this instance's iteration: the same slot one
     iteration on is [i + spi], and a consumer slot [dst] of this
     iteration (or of the next, over a carried dep) is [base + dst]
     (or [base + spi + dst]), which exists while it is below [n] *)
  let base = i - slot in
  let acc = r.r_acc in
  if t_done > acc.(acc_makespan) then acc.(acc_makespan) <- t_done;
  (* next-iteration self dependence *)
  if i + spi < n then dep_arrived r (i + spi) (name + (spi lsl bits)) t_done;
  (* feed consumers *)
  for k = prob.dep_off.(slot) to prob.dep_off.(slot + 1) - 1 do
    let dst = prob.dep_dst_slot.(k) in
    let ci = (if prob.dep_carried.(k) then base + spi else base) + dst in
    if ci < n then begin
      let cname = (ci lsl bits) lor dst in
      let chan = b.dep_chan.(k) in
      if chan = -1 then dep_arrived r ci cname t_done
      else if chan >= 0 then begin
        let cost = b.dep_cost.(k) in
        let start =
          if prob.contended then begin
            let cfree = r.chan_free.(chan) in
            if t_done > cfree then t_done else cfree
          end
          else t_done
        in
        let arrival = start +. cost in
        if prob.contended then r.chan_free.(chan) <- arrival;
        let bytes = prob.dep_bytes.(k) in
        acc.(acc_bytes) <- acc.(acc_bytes) +. bytes;
        let cls = b.dep_class.(k) in
        r.r_channel_bytes.(cls) <- r.r_channel_bytes.(cls) +. bytes;
        r.r_n_copies <- r.r_n_copies + 1;
        (match r.sim_trace with
        | Some collector -> trace_copy_event b r collector k start cost
        | None -> ());
        dep_arrived r ci cname arrival
      end
      else begin
        (* routed copy: walk the route, charging each busy-until
           clock in path order (store-and-forward).  The uncontended
           model pays the same total without queueing. *)
        let arrival =
          if not prob.contended then t_done +. b.dep_cost.(k)
          else begin
            let nh = route_hops b r k in
            (* a local float ref stays unboxed; a float field of the
               runner record would box on every hop *)
            let t = ref t_done in
            for h = 0 to nh - 1 do
              let hslot = r.walk_slot.(h) in
              let cost = r.walk_cost.(h) in
              let free = r.chan_free.(hslot) in
              let start = if !t > free then !t else free in
              let arr = start +. cost in
              r.chan_free.(hslot) <- arr;
              t := arr
            done;
            !t
          end
        in
        let bytes = prob.dep_bytes.(k) in
        acc.(acc_bytes) <- acc.(acc_bytes) +. bytes;
        let cls = b.dep_class.(k) in
        r.r_channel_bytes.(cls) <- r.r_channel_bytes.(cls) +. bytes;
        r.r_n_copies <- r.r_n_copies + 1;
        (match r.sim_trace with
        | Some collector -> trace_copy_event b r collector k t_done (arrival -. t_done)
        | None -> ());
        dep_arrived r ci cname arrival
      end
    end
  done

(* The one event loop: a full simulation of bind [b] into runner [r]'s
   result planes, its noise source already chosen and its per-instance
   arrays already sized for [iterations].  Returns [st_finished] or
   [st_cut] instead of a constructor so the call frame carries no
   allocation; the wrappers below rebuild the [result] / [outcome]
   views for record-API callers. *)
let event_loop (b : bind) r ~iterations ~trace ~cutoff =
  let prob = r.rprob in
  let spi = prob.spi and bits = prob.slot_bits in
  let n_instances = iterations * spi in
  (* O(n) reset; no allocation *)
  Array.fill r.proc_free 0 (Array.length r.proc_free) 0.0;
  Array.fill r.chan_free 0 (Array.length r.chan_free) 0.0;
  Array.fill r.dispatch_free 0 (Array.length r.dispatch_free) 0.0;
  let indeg = r.indeg in
  Array.fill r.ready_time 0 n_instances 0.0;
  let indeg_base = prob.indeg_base and indeg_carried = prob.indeg_carried in
  for iter = 0 to iterations - 1 do
    let base = iter * spi in
    for slot = 0 to spi - 1 do
      indeg.(base + slot) <-
        (indeg_base.(slot) + if iter > 0 then 1 + indeg_carried.(slot) else 0)
    done
  done;
  let events = r.events in
  Fheap.reset events;
  (* result planes *)
  Array.fill r.r_task_times 0 (Array.length r.r_task_times) 0.0;
  Array.fill r.r_proc_busy 0 (Array.length r.r_proc_busy) 0.0;
  Array.fill r.r_channel_bytes 0 n_channel_classes 0.0;
  r.r_acc.(acc_makespan) <- 0.0;
  r.r_acc.(acc_bytes) <- 0.0;
  r.r_acc.(acc_cut) <- 0.0;
  r.r_n_copies <- 0;
  r.r_demotions <- b.demotions;
  r.sim_ninst <- n_instances;
  r.sim_trace <- trace;
  for iter = 0 to iterations - 1 do
    let base = iter * spi in
    for slot = 0 to spi - 1 do
      let i = base + slot in
      if indeg.(i) = 0 then Fheap.push events 0.0 (((i lsl bits) lor slot) lsl 1)
    done
  done;
  let cut = ref false in
  while (not !cut) && not (Fheap.is_empty events) do
    let t = Fheap.top_prio events in
    if t >= cutoff then begin
      (* events pop in nondecreasing time order and every pending
         instance still has nonnegative work left, so the final
         makespan is >= t: the caller's bound is unreachable *)
      cut := true;
      r.r_acc.(acc_cut) <- t
    end
    else begin
      let payload = Fheap.top events in
      Fheap.drop events;
      let name = payload lsr 1 in
      if payload land 1 = 0 then do_ready b r name t else do_done b r name t
    end
  done;
  if !cut then st_cut
  else begin
    r.r_acc.(acc_per_iter) <- r.r_acc.(acc_makespan) /. float_of_int iterations;
    st_finished
  end

(* A scratch's simulation: resolve and bind the mapping (through the
   bind cache), pick the noise source, and run the event loop over the
   scratch's own bind and runner. *)
let sim_core sc mapping ~noise_sigma ~seed ~add_seed ~fallback ~iterations ~trace ~cutoff =
  if not (resolve_bound sc ~fallback mapping) then st_error
  else begin
    if iterations <= 0 then invalid_arg "Exec.simulate: iterations must be positive";
    let r = sc.run in
    let n_instances = iterations * sc.prob.spi in
    ensure_capacity r n_instances;
    (* Noise draws are strictly sequential (instance-ascending, like
       the reference's upfront pass), but filled lazily as the event
       loop first touches an instance: a cutoff-aborted run then skips
       the (Box–Muller) draws for instances it never reached, while a
       full run performs the identical draw sequence.  When a per-seed
       cache is available the stream is shared across runs: continuing
       [nrng] after [nfilled] draws produces exactly the values a
       fresh [Rng.create seed] would, so reuse is bit-identical and
       each seed's draws happen once per search.  [add_seed] is false
       for the record API, whose one noisy caller in the search draws a
       fresh seed per run: such a stream would never be read again. *)
    let ci =
      if noise_sigma > 0.0 then noise_cache_idx sc ~seed ~sigma:noise_sigma ~add:add_seed
      else -1
    in
    if ci >= 0 then begin
      let c = sc.nzs.(ci) in
      noise_reserve c n_instances;
      r.sim_fill <- 1;
      r.sim_ncache <- c;
      r.sim_noise <- c.nbuf;
      r.sim_nfilled <- c.nfilled
    end
    else private_noise r ~noise_sigma ~seed n_instances;
    event_loop (Bind.tables sc.binder) r ~iterations ~trace ~cutoff
  end

let run_fresh r b ~noise_sigma ~seed ~iterations =
  if b.Bind.lay != r.rprob.blay then invalid_arg "Exec.run_fresh: bind and runner of different problems";
  if iterations <= 0 then invalid_arg "Exec.run_fresh: iterations must be positive";
  let n_instances = iterations * r.rprob.spi in
  ensure_capacity r n_instances;
  private_noise r ~noise_sigma ~seed n_instances;
  ignore (event_loop b r ~iterations ~trace:None ~cutoff:infinity : int)

(* Record view over the result planes.  The returned arrays are fresh
   copies, so they stay valid across subsequent simulations — the one
   thing the record API allocates. *)
let runner_result r =
  {
    makespan = r.r_acc.(acc_makespan);
    per_iteration = r.r_acc.(acc_per_iter);
    task_times = Array.copy r.r_task_times;
    proc_busy = Array.copy r.r_proc_busy;
    bytes_moved = r.r_acc.(acc_bytes);
    channel_bytes = Array.copy r.r_channel_bytes;
    n_copies = r.r_n_copies;
    demotions = r.r_demotions;
  }

let[@inline] runner_per_iteration r = r.r_acc.(acc_per_iter)

let simulate_bounded ?(noise_sigma = 0.03) ?(seed = 0) ?(fallback = false) ?iterations
    ?trace ?(cutoff = infinity) sc mapping =
  let iterations = Option.value iterations ~default:sc.prob.cgraph.Graph.iterations in
  let st =
    sim_core sc mapping ~noise_sigma ~seed ~add_seed:false ~fallback ~iterations ~trace
      ~cutoff
  in
  if st = st_error then Error (match sc.r_error with Some e -> e | None -> assert false)
  else if st = st_cut then Ok (Cut sc.run.r_acc.(acc_cut))
  else Ok (Finished (runner_result sc.run))

let simulate ?noise_sigma ?seed ?fallback ?iterations ?trace sc mapping =
  match simulate_bounded ?noise_sigma ?seed ?fallback ?iterations ?trace sc mapping with
  | Ok (Finished r) -> Ok r
  | Ok (Cut _) -> assert false (* unreachable without a cutoff *)
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Quiet API: the evaluator's batch loop reads scalar outputs straight *)
(* from the planes, so a steady-state candidate costs zero minor-heap  *)
(* words end to end.                                                   *)
(* ------------------------------------------------------------------ *)

let simulate_quiet sc mapping ~noise_sigma ~seed ~fallback ~iterations ~cutoff =
  sim_core sc mapping ~noise_sigma ~seed ~add_seed:true ~fallback ~iterations ~trace:None
    ~cutoff

let[@inline] quiet_makespan sc = sc.run.r_acc.(acc_makespan)
let[@inline] quiet_per_iteration sc = sc.run.r_acc.(acc_per_iter)
let[@inline] quiet_cut_time sc = sc.run.r_acc.(acc_cut)
let quiet_error sc = sc.r_error
let quiet_result sc = runner_result sc.run

(* Noise-independent makespan floors, shared by {!static_lower_bound}
   and {!run_lower_bound}.  Assumes the mapping is already bound.
   Memoized on the bind tables: the evaluator probes the same bound
   mapping once per run plus once per lower-bound check, and the
   floors only depend on the bind tables and [iterations], so the
   scans below run once per (re-)bind instead of once per probe.
   {!resolve_bound} clears [sfloor_valid] whenever it rebinds. *)
let static_floors sc iterations =
  if sc.sfloor_valid && sc.sfloor_iters = iterations then sc.run.r_acc.(acc_sfloor)
  else begin
  let prob = sc.prob and b = Bind.tables sc.binder and r = sc.run in
  let spi = prob.spi in
  let iters_f = float_of_int iterations in
  let lb = ref 0.0 in
  (* Copies are noise-free and serialized per channel, and a dep with
     a channel performs one copy per target iteration (carried deps
     skip the first), so each channel's total copy time bounds the
     makespan from below: the last copy's arrival feeds an instance
     whose completion the makespan dominates.  This floor is what
     makes the bound tight for communication-dominated mappings on
     multi-node machines. *)
  let chan_busy = r.chan_free in
  Array.fill chan_busy 0 (Array.length chan_busy) 0.0;
  let cross_bytes = ref 0.0 in
  if prob.contended then
    for slot = 0 to spi - 1 do
      for k = prob.dep_off.(slot) to prob.dep_off.(slot + 1) - 1 do
        let chan = b.dep_chan.(k) in
        if chan >= 0 then begin
          let times = if prob.dep_carried.(k) then iterations - 1 else iterations in
          chan_busy.(chan) <- chan_busy.(chan) +. (b.dep_cost.(k) *. float_of_int times)
        end
        else if chan < -1 then begin
          (* routed: each hop serializes on its own link/staging clock *)
          let times = if prob.dep_carried.(k) then iterations - 1 else iterations in
          let tf = float_of_int times in
          let nh = route_hops b r k in
          for h = 0 to nh - 1 do
            let hslot = r.walk_slot.(h) in
            chan_busy.(hslot) <- chan_busy.(hslot) +. (r.walk_cost.(h) *. tf)
          done;
          let topo = routed_topo prob in
          if Topology.side topo b.dep_src_node.(k) <> Topology.side topo b.dep_dst_node.(k)
          then cross_bytes := !cross_bytes +. (prob.dep_bytes.(k) *. tf)
        end
      done
    done;
  for i = 0 to Array.length chan_busy - 1 do
    if chan_busy.(i) > !lb then lb := chan_busy.(i)
  done;
  (* Bisection floor: every byte crossing the canonical cut transits
     some cut link, so total cross traffic over total cut bandwidth
     bounds the busiest cut link's serial time (weighted mean <= max). *)
  (match prob.cmachine.Machine.topology with
  | Some topo when prob.contended && Topology.bisection_bw topo > 0.0 ->
      let floor = !cross_bytes /. Topology.bisection_bw topo in
      if floor > !lb then lb := floor
  | _ -> ());
  (* A node's runtime issues its instances one dispatch_cost apart, so
     the last instance dispatched on the busiest node cannot finish
     before count * dispatch_cost — a noise-free second floor that
     dominates for dispatch-bound mappings. *)
  if prob.dispatch_cost > 0.0 then begin
    let disp = r.dispatch_free in
    Array.fill disp 0 (Array.length disp) 0.0;
    for slot = 0 to spi - 1 do
      let n = b.slot_node.(slot) in
      disp.(n) <- disp.(n) +. prob.dispatch_cost
    done;
    for i = 0 to Array.length disp - 1 do
      let d = disp.(i) *. iters_f in
      if d > !lb then lb := d
    done
  end;
  (* Critical-path floor over the bound dependence structure: every
     instance completes no earlier than ready + dispatch_cost (the
     event loop's do_ready adds dispatch_cost before any start, and
     durations are nonnegative), and a consumer of a channel-bound dep
     becomes ready no earlier than the producer's completion plus the
     copy's cost (do_done's arrival is >= t_done + cost).  Compute
     noise multipliers can be arbitrarily small, so compute durations
     contribute nothing — only dispatch and copy costs chain, which
     keeps the floor valid for every seed.  Relaxation runs over
     [topo_slots] (slot ids are task-id-ordered, not topological) and
     only intra-iteration deps; the per-slot cross-iteration
     serialization (dep_arrived (i + spi)) then adds dispatch_cost per
     extra iteration on top of the deepest first-iteration path. *)
  if prob.dispatch_cost > 0.0 || Array.length prob.dep_bytes > 0 then begin
    let cp = sc.cp in
    Array.fill cp 0 spi 0.0;
    let cp_max = ref 0.0 in
    for i = 0 to spi - 1 do
        let slot = prob.topo_slots.(i) in
        let done_floor = cp.(slot) +. prob.dispatch_cost in
        if done_floor > !cp_max then cp_max := done_floor;
        for k = prob.dep_off.(slot) to prob.dep_off.(slot + 1) - 1 do
          if not prob.dep_carried.(k) then begin
            let arrival =
              (* any copy (kind-level or routed) delays its consumer by
                 at least its full noise-free cost *)
              if b.dep_chan.(k) <> -1 then done_floor +. b.dep_cost.(k)
              else done_floor
            in
            let dst = prob.dep_dst_slot.(k) in
            if arrival > cp.(dst) then cp.(dst) <- arrival
          end
        done
    done;
    let floor = !cp_max +. (float_of_int (iterations - 1) *. prob.dispatch_cost) in
    if floor > !lb then lb := floor
  end;
  r.r_acc.(acc_sfloor) <- !lb;
  sc.sfloor_iters <- iterations;
  sc.sfloor_valid <- true;
  !lb
  end

let static_lower_bound ?(fallback = false) ?iterations sc mapping =
  if not (resolve_bound sc ~fallback mapping) then Error (Bind.error sc.binder)
  else
      let iterations =
        Option.value iterations ~default:sc.prob.cgraph.Graph.iterations
      in
      if iterations <= 0 then
        invalid_arg "Exec.static_lower_bound: iterations must be positive";
      Ok (static_floors sc iterations)

let run_lower_bound ?(noise_sigma = 0.03) ?(seed = 0) ?(fallback = false) ?iterations sc
    mapping =
  let prob = sc.prob and b = Bind.tables sc.binder and r = sc.run in
  if not (resolve_bound sc ~fallback mapping) then Error (Bind.error sc.binder)
  else
      let iterations = Option.value iterations ~default:prob.cgraph.Graph.iterations in
      if iterations <= 0 then
        invalid_arg "Exec.run_lower_bound: iterations must be positive";
      let spi = prob.spi in
      let iters_f = float_of_int iterations in
      (* Every processor executes its instances serially, so the
         busiest processor's total noise-scaled work bounds the final
         makespan from below.  The draws replay the exact instance-
         ascending noise sequence [simulate] performs for this seed
         (both start from a fresh [Rng.create seed]), so the bound is
         certified for the run the caller would otherwise simulate.
         [proc_free]/[dispatch_free] serve as accumulators; any
         subsequent simulation resets them first. *)
      let busy = r.proc_free in
      Array.fill busy 0 (Array.length busy) 0.0;
      if noise_sigma > 0.0 then begin
        (* The loop nest visits instances in ascending order (iteration-
           major, slot within), which is exactly the draw order, so the
           per-seed cache substitutes values without changing a single
           float operation — and turns the per-candidate Box–Muller cost
           into a once-per-seed cost across the whole search. *)
        let ci = noise_cache_idx sc ~seed ~sigma:noise_sigma ~add:true in
        let n = iterations * spi in
        let nbuf =
          if ci >= 0 then begin
            let c = sc.nzs.(ci) in
            noise_reserve c n;
            noise_fill c n;
            c.nbuf
          end
          else begin
            ensure_capacity r n;
            Rng.fill_lognormal (Rng.create seed) ~sigma:noise_sigma r.noise ~pos:0 ~len:n;
            r.noise
          end
        in
        for iter = 0 to iterations - 1 do
          let base = iter * spi in
          for slot = 0 to spi - 1 do
            let x = nbuf.(base + slot) in
            let pid = b.slot_pid.(slot) in
            busy.(pid) <- busy.(pid) +. (b.slot_dur.(slot) *. x)
          done
        done
      end
      else
        for slot = 0 to spi - 1 do
          let pid = b.slot_pid.(slot) in
          busy.(pid) <- busy.(pid) +. (b.slot_dur.(slot) *. iters_f)
        done;
      let lb = ref 0.0 in
      for i = 0 to Array.length busy - 1 do
        if busy.(i) > !lb then lb := busy.(i)
      done;
      let s = static_floors sc iterations in
      if s > !lb then lb := s;
      Ok !lb

(* Compatibility wrapper: compile-and-run once.  Callers that evaluate
   many mappings on the same (machine, graph) should compile once and
   keep a scratch (as {!Evaluator} does). *)
let run ?noise_sigma ?seed ?fallback ?iterations ?trace machine g mapping =
  simulate ?noise_sigma ?seed ?fallback ?iterations ?trace
    (scratch (compile machine g))
    mapping

let profile machine g mapping =
  match run ~noise_sigma:0.0 machine g mapping with
  | Ok r -> Array.to_list (Array.mapi (fun tid t -> (tid, t)) r.task_times)
  | Error e -> failwith ("Exec.profile: " ^ Placement.error_to_string e)
