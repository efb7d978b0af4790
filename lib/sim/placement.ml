type error = Invalid_mapping of string | Out_of_memory of string

let error_to_string = function
  | Invalid_mapping s -> "invalid mapping: " ^ s
  | Out_of_memory s -> "out of memory: " ^ s

(* Distribution of [shards] across [nodes] (§3.1): blocked puts shard s
   on node s·nodes/shards (neighbouring shards share a node — good for
   halo locality); cyclic deals shards round-robin (better load spread,
   more neighbour traffic).  The paper fixes blocked; cyclic is part of
   the extended search space. *)
let node_of_shard ~distribute ~strategy ~nodes ~shards s =
  if not distribute then 0
  else
    match (strategy : Mapping.dist_strategy) with
    | Mapping.Cyclic -> s mod nodes
    | Mapping.Blocked -> if shards >= nodes then s * nodes / shards else s

(* Round-robin across the same-kind processors of the node (§3.2 and
   the Circuit discussion in §5: AutoMap uses a round-robin strategy
   within the selected kind). *)
let local_of_shard ~per_node_rank ~nprocs = per_node_rank mod nprocs

let n_mem_kinds = 3

exception Oom of string

(* Mapping-independent placement structure, flat.  Shards are numbered
   densely: task [tid]'s shards are [task_off.(tid) ..
   task_off.(tid + 1) - 1] and collection [cid]'s are [col_off.(cid) ..
   col_off.(cid + 1) - 1] (a collection has one instance per shard of
   its owner).  Steps run in a fixed topological order, one per
   collection, since every collection is an argument of exactly one
   task; its index makes the "already placed" half of the alias
   predicate a static order test, which is what lets {!patch}
   recompute alias flags out of step order.

   Alias detection: an argument colocated with another instance of the
   same logical data references that physical instance and costs no
   extra capacity.  Two arguments refer to the same data when an edge
   connects them (producer/consumer) or when they fully overlap
   (|c1∩c2| equals the smaller argument — e.g. two readers of the same
   input region).  Halo consumers additionally hold a small ghost
   region we do not charge. *)
type plan = {
  pmachine : Machine.t;
  pgraph : Graph.t;
  task_off : int array;
  col_off : int array;
  col_owner : int array;
  col_bytes : float array;
  arg_off : int array;
  args : int array;
  steps : int array;
  step_of : int array;
  prod_off : int array;
  prod : int array;
  dept_off : int array;
  dept : int array;
  closest : int array;
}

(* CSR of an int-list array, each list in its own order *)
let csr lists =
  let n = Array.length lists in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun i l -> off.(i + 1) <- off.(i) + List.length l) lists;
  let flat = Array.make off.(n) 0 in
  Array.iteri (fun i l -> List.iteri (fun j x -> flat.(off.(i) + j) <- x) l) lists;
  (off, flat)

let plan machine (g : Graph.t) =
  let nt = Graph.n_tasks g and nc = Graph.n_collections g in
  let task_off = Array.make (nt + 1) 0 in
  for tid = 0 to nt - 1 do
    task_off.(tid + 1) <- task_off.(tid) + (Graph.task g tid).group_size
  done;
  let col_owner = Array.init nc (fun cid -> (Graph.collection g cid).owner) in
  let col_bytes = Array.init nc (fun cid -> (Graph.collection g cid).Graph.bytes) in
  let col_off = Array.make (nc + 1) 0 in
  for cid = 0 to nc - 1 do
    col_off.(cid + 1) <- col_off.(cid) + (Graph.task g col_owner.(cid)).group_size
  done;
  let arg_off, args =
    csr
      (Array.init nt (fun tid ->
           List.map (fun (c : Graph.collection) -> c.cid) (Graph.task g tid).args))
  in
  let producers = Array.make nc [] in
  List.iter
    (fun (e : Graph.edge) -> producers.(e.dst) <- e.src :: producers.(e.dst))
    g.edges;
  List.iter
    (fun (c1, c2, w) ->
      if w >= 0.999 *. Float.min col_bytes.(c1) col_bytes.(c2) then begin
        producers.(c1) <- c2 :: producers.(c1);
        producers.(c2) <- c1 :: producers.(c2)
      end)
    g.overlaps;
  let dependents = Array.make nc [] in
  Array.iteri
    (fun cid srcs ->
      List.iter (fun src -> dependents.(src) <- cid :: dependents.(src)) srcs)
    producers;
  let prod_off, prod = csr producers and dept_off, dept = csr dependents in
  let steps =
    Graph.topological_order g
    |> List.concat_map (fun (task : Graph.task) ->
           List.map (fun (c : Graph.collection) -> c.cid) task.args)
    |> Array.of_list
  in
  let step_of = Array.make nc 0 in
  Array.iteri (fun i cid -> step_of.(cid) <- i) steps;
  (* (processor, memory kind) -> the closest memory of that kind, -1
     where the kind is not addressable *)
  let closest = Array.make (Array.length machine.Machine.processors * n_mem_kinds) (-1) in
  Array.iter
    (fun (p : Machine.processor) ->
      List.iter
        (fun k ->
          closest.((p.Machine.pid * n_mem_kinds) + Kinds.rank_mem k) <-
            (Machine.closest_memory machine p k).Machine.mid)
        (Kinds.accessible_mem_kinds p.Machine.pkind))
    machine.Machine.processors;
  { pmachine = machine; pgraph = g; task_off; col_off; col_owner; col_bytes; arg_off;
    args; steps; step_of; prod_off; prod; dept_off; dept; closest }

type planes = {
  proc : int array;
  mem : int array;
  usage : float array;
  mutable demotions : int;
  node_rank : int array;  (* {!place_task}'s per-node shard counters *)
}

let planes pl =
  let machine = pl.pmachine in
  {
    proc = Array.make pl.task_off.(Array.length pl.task_off - 1) 0;
    mem = Array.make pl.col_off.(Array.length pl.col_off - 1) 0;
    usage = Array.make (Array.length machine.Machine.memories) 0.0;
    demotions = 0;
    node_rank = Array.make machine.Machine.nodes 0;
  }

(* Writes task [tid]'s shard processors under [mapping]: blocked or
   cyclic across nodes, round-robin within a node. *)
let place_task pl mapping p tid =
  let machine = pl.pmachine in
  let kind = Mapping.proc_of mapping tid in
  let distribute = Mapping.distribute_of mapping tid in
  let strategy = Mapping.strategy_of mapping tid in
  let nodes = machine.Machine.nodes in
  let nprocs = Machine.procs_of_kind_per_node machine kind in
  let lo = pl.task_off.(tid) in
  let shards = pl.task_off.(tid + 1) - lo in
  let node_rank = p.node_rank in
  Array.fill node_rank 0 nodes 0;
  for s = 0 to shards - 1 do
    let node = node_of_shard ~distribute ~strategy ~nodes ~shards s in
    let rank = node_rank.(node) in
    node_rank.(node) <- rank + 1;
    p.proc.(lo + s) <-
      (Machine.proc machine ~node ~kind ~local:(local_of_shard ~per_node_rank:rank ~nprocs))
        .Machine.pid
  done

(* Writes collection [cid]'s instances: each in the memory of its
   mapped kind closest to its shard's processor (§3.2). *)
let place_collection pl mapping p cid =
  let k = Kinds.rank_mem (Mapping.mem_of mapping cid) in
  let tlo = pl.task_off.(pl.col_owner.(cid)) and lo = pl.col_off.(cid) in
  for s = 0 to pl.col_off.(cid + 1) - lo - 1 do
    p.mem.(lo + s) <- pl.closest.((p.proc.(tlo + s) * n_mem_kinds) + k)
  done

(* Does instance [s] of [cid], in memory [mid], reuse an alias source's
   instance?  A source aliases only when its step precedes [cid]'s: in
   a replay in step order those are exactly the sources already
   placed. *)
let aliased pl mem cid s mid =
  let step_c = pl.step_of.(cid) in
  let shards = pl.col_off.(cid + 1) - pl.col_off.(cid) in
  let hit = ref false and j = ref pl.prod_off.(cid) in
  while (not !hit) && !j < pl.prod_off.(cid + 1) do
    let src = pl.prod.(!j) in
    if pl.step_of.(src) < step_c then begin
      let src_shards = pl.col_off.(src + 1) - pl.col_off.(src) in
      let src_shard = if src_shards = shards then s else s * src_shards / shards in
      if mem.(pl.col_off.(src) + src_shard) = mid then hit := true
    end;
    incr j
  done;
  !hit

(* Fallback (§3.1): walk the argument's priority list for a kind whose
   closest memory has room. *)
let demote pl mapping p cid s =
  let machine = pl.pmachine in
  let owner = pl.col_owner.(cid) in
  let task = Graph.task pl.pgraph owner in
  let pid = p.proc.(pl.task_off.(owner) + s) in
  let bytes = pl.col_bytes.(cid) in
  let rec try_kinds = function
    | [] ->
        let c = Graph.collection pl.pgraph cid in
        raise
          (Oom
             (Printf.sprintf
                "collection c%d (%s) of task %d (%s): no memory accessible from %s can hold it (shard %d)"
                cid c.Graph.cname owner task.Graph.tname
                (Kinds.proc_kind_to_string machine.Machine.processors.(pid).Machine.pkind)
                s))
    | k :: rest ->
        let mid = pl.closest.((pid * n_mem_kinds) + Kinds.rank_mem k) in
        if p.usage.(mid) +. bytes > machine.Machine.memories.(mid).Machine.capacity then
          try_kinds rest
        else begin
          p.usage.(mid) <- p.usage.(mid) +. bytes;
          p.mem.(pl.col_off.(cid) + s) <- mid;
          p.demotions <- p.demotions + 1
        end
  in
  match Mapping.memory_priority mapping task cid with
  | [] -> assert false
  | _ :: lower -> try_kinds lower

(* The full resolve of a valid mapping: every task's shards, then each
   step in the plan's order, charging every non-aliased instance
   against its memory's capacity.  Raises [Oom] with the canonical
   message at the first instance that does not fit (strict), or that no
   kind of its priority list can hold (fallback). *)
let fill pl ~fallback mapping p =
  let machine = pl.pmachine in
  for tid = 0 to Array.length pl.task_off - 2 do
    place_task pl mapping p tid
  done;
  Array.fill p.usage 0 (Array.length p.usage) 0.0;
  p.demotions <- 0;
  for i = 0 to Array.length pl.steps - 1 do
    let cid = pl.steps.(i) in
    place_collection pl mapping p cid;
    let lo = pl.col_off.(cid) and bytes = pl.col_bytes.(cid) in
    for s = 0 to pl.col_off.(cid + 1) - lo - 1 do
      let mid = p.mem.(lo + s) in
      if not (aliased pl p.mem cid s mid) then begin
        let m = machine.Machine.memories.(mid) in
        if p.usage.(mid) +. bytes <= m.Machine.capacity then
          p.usage.(mid) <- p.usage.(mid) +. bytes
        else if fallback then demote pl mapping p cid s
        else begin
          let c = Graph.collection pl.pgraph cid in
          let owner = pl.col_owner.(cid) in
          raise
            (Oom
               (Printf.sprintf
                  "collection c%d (%s) of task %d (%s): %s of node %d full (shard %d)" cid
                  c.Graph.cname owner (Graph.task pl.pgraph owner).Graph.tname
                  (Kinds.mem_kind_to_string m.Machine.mkind)
                  m.Machine.mnode s))
        end
      end
    done
  done

let resolve_into ~fallback pl p mapping =
  match Mapping.validate pl.pgraph pl.pmachine mapping with
  | Error e -> Error (Invalid_mapping e)
  | Ok () -> (
      try
        fill pl ~fallback mapping p;
        Ok ()
      with Oom msg -> Error (Out_of_memory msg))

(* ---- the in-place delta patch ---- *)

type workspace = {
  mutable gen : int;
  col_gen : int array;     (* generation that marked a collection affected *)
  touch_gen : int array;   (* generation that marked it touched *)
  affected : int array;
  touched : int array;
  mid_gen : int array;     (* generation that logged a memory's usage *)
  log_mid : int array;     (* the undo log: memories whose usage moved, *)
  log_usage : float array; (* and their usage before the patch *)
  mutable n_log : int;
}

let workspace pl =
  let nc = Array.length pl.col_owner and nm = Array.length pl.pmachine.Machine.memories in
  {
    gen = 0;
    col_gen = Array.make nc 0;
    touch_gen = Array.make nc 0;
    affected = Array.make nc 0;
    touched = Array.make nc 0;
    mid_gen = Array.make nm 0;
    log_mid = Array.make nm 0;
    log_usage = Array.make nm 0.0;
    n_log = 0;
  }

(* Moves the charges of every touched instance that aliases no source:
   out of the usage plane ([add] false) or into it.  Each memory's
   usage is logged, once per patch, before its first move. *)
let move_charges pl p ws ~add n_touched =
  let gen = ws.gen in
  for i = 0 to n_touched - 1 do
    let cid = ws.touched.(i) in
    let lo = pl.col_off.(cid) and bytes = pl.col_bytes.(cid) in
    for s = 0 to pl.col_off.(cid + 1) - lo - 1 do
      let mid = p.mem.(lo + s) in
      if not (aliased pl p.mem cid s mid) then begin
        if ws.mid_gen.(mid) <> gen then begin
          ws.mid_gen.(mid) <- gen;
          ws.log_mid.(ws.n_log) <- mid;
          ws.log_usage.(ws.n_log) <- p.usage.(mid);
          ws.n_log <- ws.n_log + 1
        end;
        if add then p.usage.(mid) <- p.usage.(mid) +. bytes
        else p.usage.(mid) <- p.usage.(mid) -. bytes
      end
    done
  done

(* Appends [x] to [buf], of [n] entries, unless [stamp] already holds
   this generation for it; answers the new count. *)
let add_once stamp gen buf n x =
  if stamp.(x) = gen then n
  else begin
    stamp.(x) <- gen;
    buf.(n) <- x;
    n + 1
  end

let coords_valid pl mapping ~tids ~n_tids ~cids ~n_cids =
  let machine = pl.pmachine in
  let ok = ref true in
  for i = 0 to n_tids - 1 do
    let tid = tids.(i) in
    let k = Mapping.proc_of mapping tid in
    if Machine.procs_of_kind_per_node machine k > 0 && Graph.has_variant (Graph.task pl.pgraph tid) k
    then
      for j = pl.arg_off.(tid) to pl.arg_off.(tid + 1) - 1 do
        if not (Kinds.accessible k (Mapping.mem_of mapping pl.args.(j))) then ok := false
      done
    else ok := false
  done;
  for i = 0 to n_cids - 1 do
    let cid = cids.(i) in
    if
      not
        (Kinds.accessible (Mapping.proc_of mapping pl.col_owner.(cid)) (Mapping.mem_of mapping cid))
    then ok := false
  done;
  !ok

let patch pl p ws ~old mapping ~tids ~n_tids ~cids ~n_cids =
  (* [old] passed the full §4.2 check, so only the changed coordinates
     can have introduced a violation: a changed task's kind, variant or
     argument accessibility, or a changed collection's accessibility
     from its owner *)
  if not (coords_valid pl mapping ~tids ~n_tids ~cids ~n_cids) then false
  else begin
    ws.gen <- ws.gen + 1;
    ws.n_log <- 0;
    let gen = ws.gen in
    (* affected: the collections whose instances can move — the changed
       ones and every argument of a changed task (their closest-memory
       anchors moved) *)
    let na = ref 0 in
    for i = 0 to n_cids - 1 do
      na := add_once ws.col_gen gen ws.affected !na cids.(i)
    done;
    for i = 0 to n_tids - 1 do
      let tid = tids.(i) in
      for j = pl.arg_off.(tid) to pl.arg_off.(tid + 1) - 1 do
        na := add_once ws.col_gen gen ws.affected !na pl.args.(j)
      done
    done;
    (* touched: their charges can also flip for direct dependents of an
       affected collection — and only for those: a dependent's own
       instances are unchanged, so collections aliasing against *it*
       still see the same memories *)
    let nt = ref 0 in
    for i = 0 to !na - 1 do
      let cid = ws.affected.(i) in
      nt := add_once ws.touch_gen gen ws.touched !nt cid;
      for j = pl.dept_off.(cid) to pl.dept_off.(cid + 1) - 1 do
        nt := add_once ws.touch_gen gen ws.touched !nt pl.dept.(j)
      done
    done;
    (* Charges leave under the old placement and come back under the
       new one.  Where byte counts sum exactly (DESIGN §8) the totals
       equal a replay's; strict usage only grows during that replay, so
       it fails iff some final total exceeds its capacity, and only a
       memory whose usage moved can newly exceed. *)
    move_charges pl p ws ~add:false !nt;
    for i = 0 to n_tids - 1 do
      place_task pl mapping p tids.(i)
    done;
    for i = 0 to !na - 1 do
      place_collection pl mapping p ws.affected.(i)
    done;
    move_charges pl p ws ~add:true !nt;
    let memories = pl.pmachine.Machine.memories in
    let over = ref false in
    for i = 0 to ws.n_log - 1 do
      let mid = ws.log_mid.(i) in
      if p.usage.(mid) > memories.(mid).Machine.capacity then over := true
    done;
    if !over then begin
      (* undo: the logged usage, and the moved instances re-derived
         from [old], which placed them *)
      for i = 0 to ws.n_log - 1 do
        p.usage.(ws.log_mid.(i)) <- ws.log_usage.(i)
      done;
      for i = 0 to n_tids - 1 do
        place_task pl old p tids.(i)
      done;
      for i = 0 to !na - 1 do
        place_collection pl old p ws.affected.(i)
      done
    end;
    not !over
  end

(* ---- the immutable view ---- *)

type t = { tplan : plan; tp : planes }

let resolve_with ?(fallback = false) pl mapping =
  let p = planes pl in
  match resolve_into ~fallback pl p mapping with
  | Ok () -> Ok { tplan = pl; tp = p }
  | Error e -> Error e

let resolve ?fallback machine g mapping = resolve_with ?fallback (plan machine g) mapping

let shards t tid = t.tplan.task_off.(tid + 1) - t.tplan.task_off.(tid)

let processor t ~tid ~shard =
  if shard < 0 || shard >= shards t tid then invalid_arg "Placement.processor: bad shard";
  t.tplan.pmachine.Machine.processors.(t.tp.proc.(t.tplan.task_off.(tid) + shard))

let arg_memory t ~cid ~shard =
  let pl = t.tplan in
  if shard < 0 || shard >= pl.col_off.(cid + 1) - pl.col_off.(cid) then
    invalid_arg "Placement.arg_memory: bad shard";
  pl.pmachine.Machine.memories.(t.tp.mem.(pl.col_off.(cid) + shard))

let effective_mem_kind t ~cid ~shard = (arg_memory t ~cid ~shard).Machine.mkind
let demotions t = t.tp.demotions
let bytes_resident t (mem : Machine.memory) = t.tp.usage.(mem.Machine.mid)
