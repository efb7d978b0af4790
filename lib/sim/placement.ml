type t = {
  machine : Machine.t;
  graph : Graph.t;
  procs : Machine.processor array array;  (* [tid].(shard) *)
  mems : Machine.memory array array;      (* [cid].(shard) *)
  usage : float array;                    (* bytes per mid *)
  demotions : int;
}

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

let place_shards machine (g : Graph.t) mapping tid =
  let task = Graph.task g tid in
  let kind = Mapping.proc_of mapping tid in
  let distribute = Mapping.distribute_of mapping tid in
  let strategy = Mapping.strategy_of mapping tid in
  let nodes = machine.Machine.nodes in
  let nprocs = Machine.procs_of_kind_per_node machine kind in
  let shards = task.group_size in
  let node_rank = Array.make nodes 0 in
  Array.init shards (fun s ->
      let node = node_of_shard ~distribute ~strategy ~nodes ~shards s in
      let rank = node_rank.(node) in
      node_rank.(node) <- rank + 1;
      Machine.proc machine ~node ~kind
        ~local:(local_of_shard ~per_node_rank:rank ~nprocs))

exception Oom of string

(* Mapping-independent placement structure: the (task, argument) steps
   in the fixed topological placement order, and the alias sources of
   each collection.  Deriving this once per (machine, graph) lets a
   search both resolve candidates without re-sorting the graph and
   patch a neighbour's placement from its incumbent's ({!patch}). *)
type plan = {
  pmachine : Machine.t;
  pgraph : Graph.t;
  n_cols : int;
  steps : (Graph.task * Graph.collection) array;
  (* Alias detection: an argument colocated with another instance of
     the same logical data references that physical instance and costs
     no extra capacity.  Two arguments refer to the same data when an
     edge connects them (producer/consumer) or when they fully overlap
     (|c1∩c2| equals the smaller argument — e.g. two readers of the
     same input region).  Halo consumers additionally hold a small
     ghost region we do not charge. *)
  producers : int list array;
  dependents : int list array;  (* reverse of [producers] *)
  (* Every collection is an argument of exactly one task, so it is
     placed by exactly one step; its index makes the "already placed"
     half of the alias predicate a static order test, which is what
     lets {!patch} recompute alias flags out of step order. *)
  step_of : int array;
  (* cid-indexed view of the graph's collections: [Graph.collection]
     rebuilds the collection list per call, far too slow for the alias
     checks {!account} and {!patch} run per shard *)
  cols : Graph.collection array;
}

let plan machine (g : Graph.t) =
  let nc = Graph.n_collections g in
  let producers = Array.make (max nc 1) [] in
  List.iter
    (fun (e : Graph.edge) -> producers.(e.dst) <- e.src :: producers.(e.dst))
    g.edges;
  List.iter
    (fun (c1, c2, w) ->
      let b1 = (Graph.collection g c1).Graph.bytes
      and b2 = (Graph.collection g c2).Graph.bytes in
      if w >= 0.999 *. Float.min b1 b2 then begin
        producers.(c1) <- c2 :: producers.(c1);
        producers.(c2) <- c1 :: producers.(c2)
      end)
    g.overlaps;
  let dependents = Array.make (max nc 1) [] in
  Array.iteri
    (fun cid srcs ->
      List.iter (fun src -> dependents.(src) <- cid :: dependents.(src)) srcs)
    producers;
  let steps =
    Graph.topological_order g
    |> List.concat_map (fun (task : Graph.task) ->
           List.map (fun (c : Graph.collection) -> (task, c)) task.args)
    |> Array.of_list
  in
  let step_of = Array.make (max nc 1) 0 in
  Array.iteri (fun i (_, (c : Graph.collection)) -> step_of.(c.cid) <- i) steps;
  let cols =
    match Graph.collections g with
    | [] -> [||]
    | c0 :: _ as l ->
        let arr = Array.make nc c0 in
        List.iter (fun (c : Graph.collection) -> arr.(c.cid) <- c) l;
        arr
  in
  { pmachine = machine; pgraph = g; n_cols = nc; steps; producers; dependents; step_of;
    cols }

let plan_machine pl = pl.pmachine
let plan_graph pl = pl.pgraph

(* The capacity-accounting core of {!resolve_with}: placement steps run
   in the plan's fixed order, charging each non-aliased instance
   against its memory's capacity. *)
let account pl ~fallback mapping procs =
  let machine = pl.pmachine and g = pl.pgraph in
  let mems = Array.make pl.n_cols [||] in
  let usage = Array.make (Array.length machine.Machine.memories) 0.0 in
  let demotions = ref 0 in
  let place_arg ((task : Graph.task), (c : Graph.collection)) =
    let shards = task.group_size in
    let arr =
      Array.init shards (fun s ->
          Machine.closest_memory machine procs.(task.tid).(s)
            (Mapping.mem_of mapping c.cid))
    in
    (* Capacity accounting with aliasing: a Same_shard consumer whose
       instance coincides with its producer's reuses the physical
       instance and costs nothing. *)
    for s = 0 to shards - 1 do
      let aliased =
        List.exists
          (fun src_cid ->
            let src_task = Graph.task g pl.cols.(src_cid).Graph.owner in
            let src_shards = src_task.group_size in
            let src_shard = if src_shards = shards then s else s * src_shards / shards in
            Array.length mems.(src_cid) > src_shard
            && mems.(src_cid).(src_shard).Machine.mid = arr.(s).Machine.mid)
          pl.producers.(c.cid)
      in
      if not aliased then begin
        let charge mem =
          let mid = mem.Machine.mid in
          if usage.(mid) +. c.bytes > mem.Machine.capacity then None
          else begin
            usage.(mid) <- usage.(mid) +. c.bytes;
            Some mem
          end
        in
        match charge arr.(s) with
        | Some _ -> ()
        | None when not fallback ->
            raise
              (Oom
                 (Printf.sprintf
                    "collection c%d (%s) of task %d (%s): %s of node %d full (shard %d)"
                    c.cid c.cname task.tid task.tname
                    (Kinds.mem_kind_to_string arr.(s).Machine.mkind)
                    arr.(s).Machine.mnode s))
        | None -> (
            (* walk the priority list for a kind with room *)
            let proc = procs.(task.tid).(s) in
            let rec try_kinds = function
              | [] ->
                  raise
                    (Oom
                       (Printf.sprintf
                          "collection c%d (%s) of task %d (%s): no memory accessible from %s can hold it (shard %d)"
                          c.cid c.cname task.tid task.tname
                          (Kinds.proc_kind_to_string proc.Machine.pkind)
                          s))
              | k :: rest -> (
                  let mem = Machine.closest_memory machine proc k in
                  match charge mem with
                  | Some m ->
                      incr demotions;
                      m
                  | None -> try_kinds rest)
            in
            match Mapping.memory_priority mapping task c.cid with
            | [] -> assert false
            | _ :: lower -> arr.(s) <- try_kinds lower)
      end
    done;
    mems.(c.cid) <- arr
  in
  try
    Array.iter place_arg pl.steps;
    Ok { machine; graph = g; procs; mems; usage; demotions = !demotions }
  with Oom msg -> Error (Out_of_memory msg)

let resolve_with ?(fallback = false) pl mapping =
  match Mapping.validate pl.pgraph pl.pmachine mapping with
  | Error e -> Error (Invalid_mapping e)
  | Ok () ->
      let nt = Graph.n_tasks pl.pgraph in
      let procs = Array.init nt (place_shards pl.pmachine pl.pgraph mapping) in
      account pl ~fallback mapping procs

let resolve ?fallback machine g mapping = resolve_with ?fallback (plan machine g) mapping

(* The collections whose memory arrays a ~tids/~cids coordinate change
   can move: the changed collections themselves, plus every argument of
   a task whose shard placement changed (their closest-memory anchors
   moved) — the set {!patch} re-derives. *)
let affected_collections pl ~tids ~cids =
  let g = pl.pgraph in
  let hit = Array.make pl.n_cols false in
  List.iter (fun cid -> hit.(cid) <- true) cids;
  List.iter
    (fun tid ->
      List.iter (fun (c : Graph.collection) -> hit.(c.cid) <- true) (Graph.task g tid).args)
    tids;
  let acc = ref [] in
  for cid = pl.n_cols - 1 downto 0 do
    if hit.(cid) then acc := cid :: !acc
  done;
  !acc

let patch pl prev mapping ~tids ~cids =
  let machine = pl.pmachine and g = pl.pgraph in
  (* Delta validation: [prev]'s mapping passed the full §4.2 check, so
     only the changed coordinates can have introduced a violation — a
     changed task's kind/variant/argument accessibility, or a changed
     collection's accessibility from its (unchanged) owner.  When a
     check fails we defer to the full validator so the error message is
     identical to {!resolve}'s. *)
  let coords_ok =
    List.for_all
      (fun tid ->
        let task = Graph.task g tid in
        let k = Mapping.proc_of mapping tid in
        Machine.procs_of_kind_per_node machine k > 0
        && Graph.has_variant task k
        && List.for_all
             (fun (c : Graph.collection) ->
               Kinds.accessible k (Mapping.mem_of mapping c.cid))
             task.args)
      tids
    && List.for_all
         (fun cid ->
           let owner = pl.cols.(cid).Graph.owner in
           Kinds.accessible (Mapping.proc_of mapping owner) (Mapping.mem_of mapping cid))
         cids
  in
  if not coords_ok then
    match Mapping.validate g machine mapping with
    | Error e -> Error (Invalid_mapping e)
    | Ok () -> assert false
  else begin
    let procs = Array.copy prev.procs in
    List.iter (fun tid -> procs.(tid) <- place_shards machine g mapping tid) tids;
    let affected = Array.make pl.n_cols false in
    List.iter (fun cid -> affected.(cid) <- true) (affected_collections pl ~tids ~cids);
    (* Capacity charges can additionally flip for direct consumers of a
       changed array — and only for those: a consumer's own array is
       unchanged, so collections aliasing against *it* still see the
       same mids.  One level of the dependents graph closes the set. *)
    let touched = Array.copy affected in
    Array.iteri
      (fun cid hit ->
        if hit then List.iter (fun d -> touched.(d) <- true) pl.dependents.(cid))
      affected;
    let mems = Array.copy prev.mems in
    Array.iteri
      (fun cid hit ->
        if hit then begin
          let c = pl.cols.(cid) in
          let task = Graph.task g c.owner in
          mems.(cid) <-
            Array.init task.group_size (fun s ->
                Machine.closest_memory machine procs.(task.tid).(s)
                  (Mapping.mem_of mapping cid))
        end)
      affected;
    (* The alias predicate of {!account} on a complete placement:
       [mems.(src)] is non-empty there exactly when src's step precedes
       c's, so with full arrays the test is a static order check. *)
    let aliased lookup (c : Graph.collection) ~shards s mid =
      let step_c = pl.step_of.(c.cid) in
      List.exists
        (fun src_cid ->
          pl.step_of.(src_cid) < step_c
          &&
          let src_task = Graph.task g pl.cols.(src_cid).Graph.owner in
          let src_shards = src_task.group_size in
          let src_shard = if src_shards = shards then s else s * src_shards / shards in
          let src_arr : Machine.memory array = lookup src_cid in
          Array.length src_arr > src_shard
          && src_arr.(src_shard).Machine.mid = mid)
        pl.producers.(c.cid)
    in
    (* Move only the charges that changed.  Byte counts are
       integer-valued, so the incremental sums are exact and the final
       totals equal a from-scratch replay's; strict-mode usage grows
       monotonically during that replay, so it raises OOM iff some
       final total exceeds its capacity.  When a grown memory exceeds
       capacity we defer to the full resolver for its canonical error
       (and the authoritative verdict). *)
    let usage = Array.copy prev.usage in
    let grew = ref [] in
    Array.iteri
      (fun cid hit ->
        if hit then begin
          let c = pl.cols.(cid) in
          let shards = (Graph.task g c.owner).Graph.group_size in
          let old_arr = prev.mems.(cid) and new_arr = mems.(cid) in
          for s = 0 to shards - 1 do
            let old_mid = old_arr.(s).Machine.mid
            and new_mid = new_arr.(s).Machine.mid in
            let was =
              if aliased (fun i -> prev.mems.(i)) c ~shards s old_mid then -1
              else old_mid
            and now =
              if aliased (fun i -> mems.(i)) c ~shards s new_mid then -1 else new_mid
            in
            if was <> now then begin
              if was >= 0 then usage.(was) <- usage.(was) -. c.bytes;
              if now >= 0 then begin
                usage.(now) <- usage.(now) +. c.bytes;
                grew := now :: !grew
              end
            end
          done
        end)
      touched;
    let over =
      List.exists
        (fun mid ->
          usage.(mid) > machine.Machine.memories.(mid).Machine.capacity)
        !grew
    in
    if over then resolve_with pl mapping
    else Ok { machine; graph = g; procs; mems; usage; demotions = prev.demotions }
  end

let shards t tid = Array.length t.procs.(tid)
let processor t ~tid ~shard = t.procs.(tid).(shard)
let arg_memory t ~cid ~shard = t.mems.(cid).(shard)
let effective_mem_kind t ~cid ~shard = (arg_memory t ~cid ~shard).Machine.mkind
let demotions t = t.demotions
let bytes_resident t (mem : Machine.memory) = t.usage.(mem.Machine.mid)
