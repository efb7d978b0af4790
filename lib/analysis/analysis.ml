type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type diagnostic = {
  severity : severity;
  code : string;
  subject : string;
  message : string;
}

(* Analyzer-style coordinate names, shared with the runtime error
   messages of Mapping.validate and Placement (satellite: diagnostics
   and errors read the same way). *)
let task_subject (task : Graph.task) = Printf.sprintf "task %d (%s)" task.tid task.tname

let col_subject (c : Graph.collection) = Printf.sprintf "collection c%d (%s)" c.cid c.cname

(* ------------------------------------------------------------------ *)
(* Coordinate domains                                                  *)
(* ------------------------------------------------------------------ *)

type domains = {
  d_proc : Kinds.proc_kind list array; (* tid -> feasible kinds, variant order *)
  d_memok : bool array array;          (* cid -> rank_mem-indexed feasibility *)
}

(* Alias sources of each collection — incoming dependence edges and
   full overlap partners, exactly Placement.plan's producers.  In
   Placement.account an instance dodges its capacity charge only when a
   source instance occupies the *same* physical memory; that source was
   in turn either charged or aliased, and the chain strictly descends
   the placement step order.  Every alias chain therefore terminates in
   a charged instance, so capacity feasibility is the least fixed point

     fit(c, m)  =  bytes(c) <= capacity(m)  \/  exists s in sources(c). fit(s, m)

   — if no transitive source fits kind [m], every strict placement of
   [c] there ends in an over-capacity charge, which certifies the
   exclusion. *)
let alias_sources (g : Graph.t) =
  let nc = Graph.n_collections g in
  let srcs = Array.make (max nc 1) [] in
  List.iter (fun (e : Graph.edge) -> srcs.(e.dst) <- e.src :: srcs.(e.dst)) g.edges;
  List.iter
    (fun (c1, c2, w) ->
      let b1 = (Graph.collection g c1).Graph.bytes
      and b2 = (Graph.collection g c2).Graph.bytes in
      if w >= 0.999 *. Float.min b1 b2 then begin
        srcs.(c1) <- c2 :: srcs.(c1);
        srcs.(c2) <- c1 :: srcs.(c2)
      end)
    g.overlaps;
  srcs

let compute_domains (machine : Machine.t) (g : Graph.t) =
  let nc = Graph.n_collections g in
  let sources = alias_sources g in
  let d_memok = Array.make (max nc 1) [||] in
  List.iter
    (fun (c : Graph.collection) ->
      d_memok.(c.cid) <-
        Array.of_list
          (List.map
             (fun m -> c.Graph.bytes <= Machine.mem_kind_capacity machine m)
             Kinds.all_mem_kinds))
    (Graph.collections g);
  (* propagate fits along alias sources to the least fixed point; the
     source graph is tiny, so round-robin sweeps are plenty *)
  let changed = ref true in
  while !changed do
    changed := false;
    for cid = 0 to nc - 1 do
      let row = d_memok.(cid) in
      Array.iteri
        (fun rank ok ->
          if
            (not ok)
            && List.exists (fun s -> d_memok.(s).(rank)) sources.(cid)
          then begin
            row.(rank) <- true;
            changed := true
          end)
        row
    done
  done;
  let mem_ok cid m = d_memok.(cid).(Kinds.rank_mem m) in
  let d_proc =
    Array.map
      (fun (task : Graph.task) ->
        List.filter
          (fun k ->
            Machine.procs_of_kind_per_node machine k > 0
            && List.for_all
                 (fun (c : Graph.collection) ->
                   List.exists (fun m -> mem_ok c.cid m) (Kinds.accessible_mem_kinds k))
                 task.args)
          task.variants)
      g.Graph.tasks
  in
  { d_proc; d_memok }

let proc_domain d tid = d.d_proc.(tid)

let mem_feasible d ~cid m = d.d_memok.(cid).(Kinds.rank_mem m)

let mem_domain d ~cid k =
  List.filter (fun m -> mem_feasible d ~cid m) (Kinds.accessible_mem_kinds k)

(* ------------------------------------------------------------------ *)
(* Dominance                                                           *)
(* ------------------------------------------------------------------ *)

type dominance = {
  dm_proc : (Kinds.proc_kind * Kinds.proc_kind) list array;
      (* tid -> (dominated, dominator) *)
  dm_mem : (Kinds.proc_kind * Kinds.mem_kind * Kinds.mem_kind) list array;
      (* cid -> (owner kind, dominated, dominator) *)
}

(* Value dominance must survive every completion of the partial
   assignment, which is a much higher bar than "locally faster":
   Same_memory channels are free (a slower memory co-resident with a
   producer beats a faster one across a channel), channel classes are
   asymmetric, capacities are shared across collections, and the DES
   admits Graham anomalies.  The two rules below are the ones whose
   certificates close over all of that:

   - memory kinds, per (collection, owner kind): only for
     communication-free collections (no dependence edge in or out, no
     overlap), where the placement of the collection affects exactly
     one cost term — the owner's access-bandwidth time.  M1 dominates
     M2 when its execution bandwidth is >= under the owner kind, the
     footprint fits M1 directly, and M1 cannot be crowded: even if
     every possibly-M1-resident collection lands its worst case (all
     shards of an undistributed owner in one memory instance) there,
     capacity still admits it, so swapping M2 -> M1 can never OOM any
     completion.

   - processor kinds, per task: when every argument is forced to
     Zero_copy under B, the B->A swap keeps every memory instance
     bit-identical (Zero_copy is node-level, so closest_memory picks
     the same instance for either kind), hence identical copies and
     capacity charges.  A dominates B when additionally A's launch
     overhead and all-Zero_copy duration are <=, A has at least as many
     processors per node, and no other task's domain contains A (an
     exclusive pool: moving this task onto A cannot contend with
     anything else in any completion). *)
let compute_dominance (machine : Machine.t) (g : Graph.t) dom =
  let nt = Graph.n_tasks g and nc = Graph.n_collections g in
  let touched = Array.make (max nc 1) false in
  List.iter
    (fun (e : Graph.edge) ->
      touched.(e.src) <- true;
      touched.(e.dst) <- true)
    g.Graph.edges;
  List.iter
    (fun (c1, c2, _) ->
      touched.(c1) <- true;
      touched.(c2) <- true)
    g.Graph.overlaps;
  (* worst-case standing demand per memory kind over all collections
     that could reside there under some in-domain owner kind *)
  let demand = Array.make (List.length Kinds.all_mem_kinds) 0.0 in
  List.iter
    (fun (c : Graph.collection) ->
      let owner = Graph.task g c.owner in
      List.iter
        (fun m ->
          if
            mem_feasible dom ~cid:c.cid m
            && List.exists
                 (fun k -> Kinds.accessible k m)
                 (proc_domain dom c.owner)
          then
            demand.(Kinds.rank_mem m) <-
              demand.(Kinds.rank_mem m)
              +. (float_of_int owner.group_size *. c.bytes))
        Kinds.all_mem_kinds)
    (Graph.collections g);
  let dm_mem = Array.make (max nc 1) [] in
  List.iter
    (fun (c : Graph.collection) ->
      if not touched.(c.cid) then
        List.iter
          (fun k ->
            match mem_domain dom ~cid:c.cid k with
            | [] | [ _ ] -> ()
            | dom_mems ->
                (* scan fastest-first; prune a value when an earlier
                   surviving value dominates it *)
                let surviving = ref [] in
                List.iter
                  (fun m2 ->
                    let dominator =
                      List.find_opt
                        (fun m1 ->
                          Machine.exec_bandwidth machine k m1
                          >= Machine.exec_bandwidth machine k m2
                          && c.bytes <= Machine.mem_kind_capacity machine m1
                          && demand.(Kinds.rank_mem m1)
                             <= Machine.mem_kind_capacity machine m1)
                        (List.rev !surviving)
                    in
                    match dominator with
                    | Some m1 ->
                        dm_mem.(c.cid) <- (k, m2, m1) :: dm_mem.(c.cid)
                    | None -> surviving := m2 :: !surviving)
                  dom_mems)
          (proc_domain dom c.owner))
    (Graph.collections g);
  Array.iteri (fun cid l -> dm_mem.(cid) <- List.rev l) dm_mem;
  (* how many tasks may use each processor kind in some in-space
     mapping: the exclusive-pool condition *)
  let kind_users = Array.make (List.length Kinds.all_proc_kinds) 0 in
  Array.iter
    (fun (t : Graph.task) ->
      List.iter
        (fun k -> kind_users.(Kinds.rank_proc k) <- kind_users.(Kinds.rank_proc k) + 1)
        (proc_domain dom t.tid))
    g.Graph.tasks;
  let dm_proc = Array.make (max nt 1) [] in
  Array.iter
    (fun (t : Graph.task) ->
      match proc_domain dom t.tid with
      | [] | [ _ ] -> ()
      | kinds ->
          let forced_zc k =
            List.for_all
              (fun (c : Graph.collection) ->
                mem_domain dom ~cid:c.cid k = [ Kinds.Zero_copy ])
              t.args
          in
          let zc_ok k =
            List.for_all
              (fun (c : Graph.collection) ->
                List.memq Kinds.Zero_copy (mem_domain dom ~cid:c.cid k))
              t.args
          in
          let total_bytes =
            List.fold_left
              (fun s (c : Graph.collection) -> s +. c.bytes)
              0.0 t.args
          in
          let all_zc_duration k =
            let eff =
              match k with
              | Kinds.Cpu -> t.cpu_efficiency
              | Kinds.Gpu -> t.gpu_efficiency
            in
            Machine.launch_overhead machine k
            +. Float.max
                 (t.flops /. (Machine.compute_rate machine k *. eff))
                 (total_bytes /. Machine.exec_bandwidth machine k Kinds.Zero_copy)
          in
          let surviving = ref [] in
          List.iter
            (fun b ->
              let dominator =
                List.find_opt
                  (fun a ->
                    kind_users.(Kinds.rank_proc a) = 1
                    && forced_zc b && zc_ok a
                    && Machine.procs_of_kind_per_node machine a
                       >= Machine.procs_of_kind_per_node machine b
                    && Machine.launch_overhead machine a
                       <= Machine.launch_overhead machine b
                    && all_zc_duration a <= all_zc_duration b)
                  (List.rev !surviving)
              in
              match dominator with
              | Some a -> dm_proc.(t.tid) <- (b, a) :: dm_proc.(t.tid)
              | None -> surviving := b :: !surviving)
            kinds)
    g.Graph.tasks;
  Array.iteri (fun tid l -> dm_proc.(tid) <- List.rev l) dm_proc;
  { dm_proc; dm_mem }

let dominated_procs dmn tid = dmn.dm_proc.(tid)

let dominated_mems dmn ~cid k =
  List.filter_map
    (fun (k', m2, m1) -> if Kinds.equal_proc k' k then Some (m2, m1) else None)
    dmn.dm_mem.(cid)

let proc_surviving dmn tid ks =
  match dmn.dm_proc.(tid) with
  | [] -> ks
  | pruned ->
      List.filter
        (fun k -> not (List.exists (fun (b, _) -> Kinds.equal_proc b k) pruned))
        ks

let mem_surviving dmn ~cid k ms =
  match dominated_mems dmn ~cid k with
  | [] -> ms
  | pruned ->
      List.filter
        (fun m -> not (List.exists (fun (b, _) -> Kinds.equal_mem b m) pruned))
        ms

let n_dominated dmn =
  Array.fold_left (fun n l -> n + List.length l) 0 dmn.dm_proc
  + Array.fold_left (fun n l -> n + List.length l) 0 dmn.dm_mem

(* ------------------------------------------------------------------ *)
(* Co-location groups                                                  *)
(* ------------------------------------------------------------------ *)

type group = {
  members : int list;
  combined_bytes : float;
  common_kinds : Kinds.mem_kind list;
  fitting_kinds : Kinds.mem_kind list;
}

(* union-find over collection ids *)
let uf_find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let root = go i in
  let rec compress i =
    if parent.(i) <> root then begin
      let next = parent.(i) in
      parent.(i) <- root;
      compress next
    end
  in
  compress i;
  root

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then parent.(Stdlib.max ra rb) <- Stdlib.min ra rb

let groups_of_overlap (machine : Machine.t) (g : Graph.t) dom overlap =
  let nc = Graph.n_collections g in
  if nc = 0 then []
  else begin
    let parent = Array.init nc (fun i -> i) in
    List.iter (fun (c1, c2, _) -> uf_union parent c1 c2) (Overlap.edges overlap);
    let members = Array.make nc [] in
    for cid = nc - 1 downto 0 do
      let r = uf_find parent cid in
      members.(r) <- cid :: members.(r)
    done;
    (* usable kinds of one member: any memory kind admitted under some
       feasible kind of its owning task *)
    let usable cid =
      let owner = (Graph.collection g cid).Graph.owner in
      List.filter
        (fun m ->
          List.exists
            (fun k -> Kinds.accessible k m && mem_feasible dom ~cid m)
            (proc_domain dom owner))
        Kinds.all_mem_kinds
    in
    let acc = ref [] in
    for root = nc - 1 downto 0 do
      match members.(root) with
      | [] | [ _ ] -> ()
      | cids ->
          let combined =
            List.fold_left
              (fun s cid -> s +. (Graph.collection g cid).Graph.bytes)
              0.0 cids
          in
          let common =
            List.fold_left
              (fun common cid ->
                let u = usable cid in
                List.filter (fun m -> List.memq m u) common)
              Kinds.all_mem_kinds cids
          in
          let fitting =
            List.filter (fun m -> combined <= Machine.mem_kind_capacity machine m) common
          in
          acc :=
            { members = cids; combined_bytes = combined; common_kinds = common;
              fitting_kinds = fitting }
            :: !acc
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

type summary = {
  n_tasks : int;
  n_collections : int;
  n_edges : int;
  n_overlaps : int;
  instances_per_iteration : int;
  iterations : int;
  total_flops : float;
  total_bytes : float;
  depth : int;
  dispatch_floor : float;
  work_seconds : (Kinds.proc_kind * float) list;
  forced_tasks : int;
  forced_collections : int;
}

let critical_depth (g : Graph.t) =
  let nt = Graph.n_tasks g in
  if nt = 0 then 0
  else begin
    let depth = Array.make nt 1 in
    List.iter
      (fun (task : Graph.task) ->
        List.iter
          (fun (e : Graph.edge) ->
            if not e.Graph.carried then begin
              let src_t = (Graph.collection g e.Graph.src).Graph.owner in
              if depth.(src_t) + 1 > depth.(task.tid) then
                depth.(task.tid) <- depth.(src_t) + 1
            end)
          (Graph.predecessors g task.tid))
      (Graph.topological_order g);
    Array.fold_left Stdlib.max 0 depth
  end

let forced_collections_count (g : Graph.t) dom =
  List.length
    (List.filter
       (fun (c : Graph.collection) ->
         let ks = proc_domain dom c.owner in
         ks <> []
         &&
         let usable =
           List.filter
             (fun m ->
               List.exists
                 (fun k -> Kinds.accessible k m && mem_feasible dom ~cid:c.cid m)
                 ks)
             Kinds.all_mem_kinds
         in
         List.length usable = 1)
       (Graph.collections g))

let make_summary (machine : Machine.t) (g : Graph.t) dom =
  let depth = critical_depth g in
  let total_flops =
    Array.fold_left
      (fun s (t : Graph.task) -> s +. (t.flops *. float_of_int t.group_size))
      0.0 g.tasks
  in
  let work_seconds =
    List.map
      (fun k ->
        let rate = Machine.compute_rate machine k in
        let secs =
          Array.fold_left
            (fun s (t : Graph.task) ->
              if Graph.has_variant t k then
                let eff =
                  match k with Kinds.Cpu -> t.cpu_efficiency | Kinds.Gpu -> t.gpu_efficiency
                in
                s +. (t.flops *. float_of_int t.group_size /. (rate *. eff))
              else s)
            0.0 g.tasks
        in
        (k, secs))
      (Machine.proc_kinds_available machine)
  in
  let forced_tasks =
    Array.fold_left
      (fun n d -> if List.length d = 1 then n + 1 else n)
      0 dom.d_proc
  in
  {
    n_tasks = Graph.n_tasks g;
    n_collections = Graph.n_collections g;
    n_edges = List.length g.edges;
    n_overlaps = List.length g.overlaps;
    instances_per_iteration =
      Array.fold_left (fun s (t : Graph.task) -> s + t.group_size) 0 g.tasks;
    iterations = g.iterations;
    total_flops;
    total_bytes = Graph.total_bytes g;
    depth;
    dispatch_floor =
      float_of_int (depth + g.iterations - 1)
      *. machine.Machine.compute.Machine.runtime_dispatch;
    work_seconds;
    forced_tasks;
    forced_collections = forced_collections_count g dom;
  }

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let mem_kinds_present (machine : Machine.t) =
  List.filter
    (fun m ->
      match m with
      | Kinds.System | Kinds.Zero_copy -> true
      | Kinds.Frame_buffer -> machine.Machine.node.Machine.gpus > 0)
    Kinds.all_mem_kinds

let machine_lint (machine : Machine.t) =
  let diags = ref [] in
  let add severity code subject fmt =
    Printf.ksprintf (fun message -> diags := { severity; code; subject; message } :: !diags) fmt
  in
  let present_procs = Machine.proc_kinds_available machine in
  (* absent processor kinds: informational, GPU-variant tasks simply
     cannot use them *)
  List.iter
    (fun k ->
      if not (List.memq k present_procs) then
        add Info "absent-processor-kind" "machine" "machine has no %s processors; %s variants are unusable"
          (Kinds.proc_kind_to_string k) (Kinds.proc_kind_to_string k))
    Kinds.all_proc_kinds;
  (* constraint (1) reachability: a memory kind no present processor
     kind can address can never hold a validly mapped collection *)
  List.iter
    (fun m ->
      if not (List.exists (fun k -> Kinds.accessible k m) present_procs) then
        add Error "unreachable-memory"
          (Printf.sprintf "memory %s" (Kinds.mem_kind_to_string m))
          "no present processor kind can address %s memory: any collection mapped there is invalid (§4.2 constraint 1)"
          (Kinds.mem_kind_to_string m);
      if Machine.mem_kind_capacity machine m <= 0.0 then
        add Warning "zero-capacity"
          (Printf.sprintf "memory %s" (Kinds.mem_kind_to_string m))
          "%s memory has zero capacity: every non-aliased placement there OOMs"
          (Kinds.mem_kind_to_string m))
    (mem_kinds_present machine);
  (* channel lint over representative memory pairs: every channel class
     in use must have positive finite cost structure, and the channel
     relation must be symmetric.  A pair on two different nodes is
     always Network both ways, so it can only matter as the first
     Network pair the scan meets: each row visits its same-node
     partners plus its first cross-node partner, at its index position.
     That emits what the full ordered-pair scan emits, in the same
     order, in O(sum of memories-per-node^2) pairs (DESIGN.md §9). *)
  let mems = machine.Machine.memories in
  let seen = Hashtbl.create 16 in
  let visit (a : Machine.memory) (b : Machine.memory) =
    let ch = Machine.channel_between machine a b in
    let rev = Machine.channel_between machine b a in
    if rev <> ch && not (Hashtbl.mem seen (`Asym (a.Machine.mkind, b.Machine.mkind)))
    then begin
      Hashtbl.add seen (`Asym (a.Machine.mkind, b.Machine.mkind)) ();
      add Warning "asymmetric-channel" "machine"
        "%s->%s and %s->%s use different channels"
        (Kinds.mem_kind_to_string a.Machine.mkind)
        (Kinds.mem_kind_to_string b.Machine.mkind)
        (Kinds.mem_kind_to_string b.Machine.mkind)
        (Kinds.mem_kind_to_string a.Machine.mkind)
    end;
    if ch <> Machine.Same_memory && not (Hashtbl.mem seen (`Chan ch)) then begin
      Hashtbl.add seen (`Chan ch) ();
      let bw = Machine.channel_bandwidth machine ch in
      if not (bw > 0.0) then
        add Error "dead-channel" "machine"
          "channel %s->%s has non-positive bandwidth %g"
          (Kinds.mem_kind_to_string a.Machine.mkind)
          (Kinds.mem_kind_to_string b.Machine.mkind)
          bw
    end
  in
  let node_mems = Array.make machine.Machine.nodes [] in
  for i = Array.length mems - 1 downto 0 do
    let n = mems.(i).Machine.mnode in
    node_mems.(n) <- i :: node_mems.(n)
  done;
  (* first index off node [mems.(0)]'s node; any other node's first
     cross-node partner is index 0 *)
  let off_first =
    let rec go i =
      if i >= Array.length mems then -1
      else if mems.(i).Machine.mnode <> mems.(0).Machine.mnode then i
      else go (i + 1)
    in
    go 1
  in
  Array.iter
    (fun (a : Machine.memory) ->
      let cross = if a.Machine.mnode = mems.(0).Machine.mnode then off_first else 0 in
      let rec row = function
        | j :: rest when cross < 0 || j < cross ->
            visit a mems.(j);
            row rest
        | rest ->
            if cross >= 0 then visit a mems.(cross);
            List.iter (fun j -> visit a mems.(j)) rest
      in
      row node_mems.(a.Machine.mnode))
    mems;
  (* interconnect lint: a disconnected topology silently falls back to
     the kind-level Network charge for the unreachable pairs, and a
     zero-bandwidth link makes every route through it infinitely slow *)
  (match machine.Machine.topology with
  | None -> ()
  | Some topo ->
      let unreachable = Topology.unreachable_pairs topo in
      if unreachable > 0 then
        add Error "topology-disconnected"
          (Printf.sprintf "topology %s" (Topology.name topo))
          "%d ordered node pair(s) have no route; their copies fall back to the flat network charge"
          unreachable;
      List.iter
        (fun lid ->
          let l = (Topology.links topo).(lid) in
          add Error "topology-zero-bandwidth"
            (Printf.sprintf "topology %s" (Topology.name topo))
            "link %d (%d->%d) has non-positive bandwidth %g" lid l.Topology.lsrc
            l.Topology.ldst l.Topology.lbw)
        (Topology.zero_bw_links topo));
  List.rev !diags

let domain_lint (machine : Machine.t) (g : Graph.t) dom =
  let diags = ref [] in
  let add severity code subject fmt =
    Printf.ksprintf (fun message -> diags := { severity; code; subject; message } :: !diags) fmt
  in
  let present = Machine.proc_kinds_available machine in
  Array.iter
    (fun (task : Graph.task) ->
      match proc_domain dom task.tid with
      | [] ->
          let variants_present =
            List.filter (fun k -> List.memq k present) task.variants
          in
          if variants_present = [] then
            add Error "no-feasible-processor" (task_subject task)
              "no variant of this task matches a present processor kind (variants: %s)"
              (String.concat ", " (List.map Kinds.proc_kind_to_string task.variants))
          else
            add Error "no-feasible-processor" (task_subject task)
              "every candidate kind (%s) leaves some argument with no capacity-feasible memory"
              (String.concat ", " (List.map Kinds.proc_kind_to_string variants_present))
      | [ k ] ->
          add Info "forced-processor" (task_subject task) "processor domain is {%s}: coordinate is fixed"
            (Kinds.proc_kind_to_string k)
      | ks ->
          (* oversubscription is worth surfacing, but it is routine on
             small machines: info *)
          if
            List.for_all
              (fun k ->
                task.group_size
                > machine.Machine.nodes * Machine.procs_of_kind_per_node machine k)
              ks
          then
            add Info "oversubscribed" (task_subject task)
              "group size %d exceeds every candidate kind's processor count" task.group_size)
    g.Graph.tasks;
  List.iter
    (fun (c : Graph.collection) ->
      let reachable_kinds =
        List.filter
          (fun m -> List.exists (fun k -> Kinds.accessible k m) present)
          (mem_kinds_present machine)
      in
      let feasible_kinds = List.filter (fun m -> mem_feasible dom ~cid:c.cid m) reachable_kinds in
      match feasible_kinds with
      | [] ->
          add Error "collection-too-large" (col_subject c)
            "footprint %g bytes/shard exceeds the capacity of every reachable memory kind and no alias source fits either"
            c.bytes
      | [ m ] when List.length reachable_kinds > 1 ->
          add Info "forced-memory" (col_subject c)
            "memory domain is {%s}: coordinate is fixed" (Kinds.mem_kind_to_string m)
      | _ -> ())
    (Graph.collections g);
  List.rev !diags

let colocation_lint (machine : Machine.t) (g : Graph.t) rotation1 =
  let diags = ref [] in
  let add severity code subject fmt =
    Printf.ksprintf (fun message -> diags := { severity; code; subject; message } :: !diags) fmt
  in
  List.iter
    (fun grp ->
      let name_members cids =
        String.concat ", "
          (List.map (fun cid -> col_subject (Graph.collection g cid)) cids)
      in
      let subject =
        Printf.sprintf "group {%s}"
          (String.concat "," (List.map (fun cid -> Printf.sprintf "c%d" cid) grp.members))
      in
      ignore machine;
      if grp.common_kinds = [] then
        add Warning "colocation-conflict" subject
          "no memory kind is usable by every member (%s): constraint (2) is unsatisfiable until C is relaxed"
          (name_members grp.members)
      else if grp.fitting_kinds = [] then
        add Warning "colocation-capacity" subject
          "combined footprint %g bytes/shard fits no common memory kind (%s)"
          grp.combined_bytes
          (String.concat ", " (List.map Kinds.mem_kind_to_string grp.common_kinds)))
    rotation1;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  machine : Machine.t;
  graph : Graph.t;
  diags : diagnostic list;
  dom : domains;
  dmn : dominance;
  sym : Symmetry.t;
  node_cls : int array array;
  grps : group list list;
  summ : summary;
}

(* per-task assignment combinations in the paper's space (distribution
   bit x kinds x argument memories), mirroring Space.log2_size; domain
   lists fall back to the unpruned ones when empty, exactly as Space
   does, and [dmn] additionally removes dominated values *)
let task_combos (machine : Machine.t) (g : Graph.t) dom dmn tid =
  let t = Graph.task g tid in
  let procs =
    let all =
      List.filter
        (fun k -> Machine.procs_of_kind_per_node machine k > 0)
        t.variants
    in
    let l = match proc_domain dom tid with [] -> all | l -> l in
    match dmn with None -> l | Some d -> proc_surviving d tid l
  in
  let mems cid k =
    let l =
      match mem_domain dom ~cid k with
      | [] -> Kinds.accessible_mem_kinds k
      | l -> l
    in
    match dmn with None -> l | Some d -> mem_surviving d ~cid k l
  in
  let per_kind k =
    List.fold_left
      (fun p (c : Graph.collection) ->
        p *. float_of_int (List.length (mems c.cid k)))
      1.0 t.args
  in
  2.0 *. List.fold_left (fun s k -> s +. per_kind k) 0.0 procs

let space_log2 (machine : Machine.t) (g : Graph.t) dom dmn =
  Array.fold_left
    (fun acc (t : Graph.task) ->
      acc +. Float.log2 (task_combos machine g dom dmn t.tid))
    0.0 g.Graph.tasks

let analyze ?(rotations = 5) (machine : Machine.t) (g : Graph.t) =
  if rotations < 2 then invalid_arg "Analysis.analyze: rotations must be at least 2";
  let dom = compute_domains machine g in
  let c0 = Overlap.of_graph g in
  let prune_per_rotation =
    let e0 = Overlap.n_edges c0 in
    if e0 = 0 then 0 else (e0 + rotations - 2) / (rotations - 1)
  in
  let grps =
    let rec rotate r c acc =
      if r > rotations then List.rev acc
      else
        rotate (r + 1)
          (Overlap.prune_lightest c prune_per_rotation)
          (groups_of_overlap machine g dom c :: acc)
    in
    rotate 1 c0 []
  in
  let rotation1 = match grps with r1 :: _ -> r1 | [] -> [] in
  let diags =
    machine_lint machine @ domain_lint machine g dom
    @ colocation_lint machine g rotation1
  in
  let diags =
    List.stable_sort
      (fun a b -> compare (severity_rank a.severity) (severity_rank b.severity))
      diags
  in
  { machine; graph = g; diags; dom;
    dmn = compute_dominance machine g dom;
    sym = Symmetry.build g;
    node_cls = Symmetry.node_classes machine;
    grps; summ = make_summary machine g dom }

let diagnostics t = t.diags
let errors t = List.filter (fun d -> d.severity = Error) t.diags
let warnings t = List.filter (fun d -> d.severity = Warning) t.diags
let feasible t = errors t = []
let domains t = t.dom
let dominance t = t.dmn
let symmetry t = t.sym
let node_classes t = t.node_cls
let groups t = t.grps
let summary t = t.summ

let log2_space t = space_log2 t.machine t.graph t.dom (Some t.dmn)

let log2_symmetry_reduction t =
  Symmetry.log2_reduction t.sym
    ~combos:(task_combos t.machine t.graph t.dom (Some t.dmn))

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let report ppf t =
  let s = t.summ in
  Format.fprintf ppf "analyze: %s on %s@." t.graph.Graph.gname t.machine.Machine.name;
  Format.fprintf ppf "machine: %a@." Machine.pp t.machine;
  (match t.machine.Machine.topology with
  | None -> ()
  | Some topo ->
      Format.fprintf ppf
        "topology: %s, %d node(s), %d link(s), diameter %d, bisection %.6g B/s, %s@."
        (Topology.name topo) (Topology.n_nodes topo) (Topology.n_links topo)
        (Topology.diameter topo) (Topology.bisection_bw topo)
        (if Topology.contended topo then "contended links"
         else "contention-free links"));
  Format.fprintf ppf
    "graph: %d tasks, %d collections, %d edges, %d overlaps, %d instances/iteration, %d iterations@."
    s.n_tasks s.n_collections s.n_edges s.n_overlaps s.instances_per_iteration
    s.iterations;
  Format.fprintf ppf "work: %.6g flops, %.6g bytes/shard, critical path %d tasks, dispatch floor %.3gs@."
    s.total_flops s.total_bytes s.depth s.dispatch_floor;
  List.iter
    (fun (k, secs) ->
      Format.fprintf ppf "work[%s]: %.6gs if every %s-capable task runs there@."
        (Kinds.proc_kind_to_string k) secs (Kinds.proc_kind_to_string k))
    s.work_seconds;
  Format.fprintf ppf "domains: %d/%d forced task coordinates, %d/%d forced collection coordinates@."
    s.forced_tasks s.n_tasks s.forced_collections s.n_collections;
  Format.fprintf ppf
    "symmetry: %d task orbit(s) (%d nontrivial, largest %d), %d node class(es) over %d node(s)@."
    (Symmetry.n_orbits t.sym) (Symmetry.n_nontrivial t.sym)
    (Symmetry.largest_orbit t.sym)
    (Array.length t.node_cls) t.machine.Machine.nodes;
  Format.fprintf ppf
    "space: log2 = %.6g bits after domain+dominance pruning, symmetry quotient saves %.6g bits@."
    (log2_space t) (log2_symmetry_reduction t);
  Format.fprintf ppf "dominance: %d dominated value(s)@." (n_dominated t.dmn);
  Array.iteri
    (fun tid prs ->
      List.iter
        (fun (b, a) ->
          Format.fprintf ppf "  %s: %s dominated by %s@."
            (task_subject (Graph.task t.graph tid))
            (Kinds.proc_kind_to_string b) (Kinds.proc_kind_to_string a))
        prs)
    t.dmn.dm_proc;
  Array.iteri
    (fun cid prs ->
      List.iter
        (fun (k, b, a) ->
          Format.fprintf ppf "  %s under %s: %s dominated by %s@."
            (col_subject (Graph.collection t.graph cid))
            (Kinds.proc_kind_to_string k) (Kinds.mem_kind_to_string b)
            (Kinds.mem_kind_to_string a))
        prs)
    t.dmn.dm_mem;
  List.iteri
    (fun i rot ->
      Format.fprintf ppf "colocation rotation %d: %d group(s)%s@." (i + 1)
        (List.length rot)
        (match rot with
        | [] -> ""
        | _ ->
            let largest =
              List.fold_left (fun m g -> Stdlib.max m (List.length g.members)) 0 rot
            in
            let unsat = List.length (List.filter (fun g -> g.fitting_kinds = []) rot) in
            Printf.sprintf ", largest %d members, %d without a fitting common kind"
              largest unsat))
    t.grps;
  let e = List.length (errors t)
  and w = List.length (warnings t)
  and i = List.length (List.filter (fun d -> d.severity = Info) t.diags) in
  Format.fprintf ppf "diagnostics: %d error(s), %d warning(s), %d info@." e w i;
  List.iter
    (fun d ->
      Format.fprintf ppf "  [%s] %s %s: %s@." (severity_to_string d.severity) d.code
        d.subject d.message)
    t.diags;
  Format.fprintf ppf "verdict: %s@."
    (if feasible t then "feasible" else "infeasible (error-level diagnostics)")

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let s = t.summ in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"graph\": \"%s\",\n" (json_escape t.graph.Graph.gname);
  add "  \"machine\": \"%s\",\n" (json_escape t.machine.Machine.name);
  (match t.machine.Machine.topology with
  | None -> ()
  | Some topo ->
      add
        "  \"topology\": {\"name\": \"%s\", \"nodes\": %d, \"links\": %d, \"diameter\": %d, \"bisection_bw\": %.6g, \"contended\": %b},\n"
        (json_escape (Topology.name topo))
        (Topology.n_nodes topo) (Topology.n_links topo) (Topology.diameter topo)
        (Topology.bisection_bw topo) (Topology.contended topo));
  add "  \"feasible\": %b,\n" (feasible t);
  add "  \"summary\": {\"tasks\": %d, \"collections\": %d, \"edges\": %d, \"overlaps\": %d, \"instances_per_iteration\": %d, \"iterations\": %d, \"total_flops\": %.6g, \"total_bytes\": %.6g, \"depth\": %d, \"dispatch_floor\": %.6g, \"forced_tasks\": %d, \"forced_collections\": %d},\n"
    s.n_tasks s.n_collections s.n_edges s.n_overlaps s.instances_per_iteration
    s.iterations s.total_flops s.total_bytes s.depth s.dispatch_floor s.forced_tasks
    s.forced_collections;
  add "  \"work_seconds\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "\"%s\": %.6g" (Kinds.proc_kind_to_string k) v)
          s.work_seconds));
  add "  \"proc_domains\": [%s],\n"
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun ks ->
               Printf.sprintf "[%s]"
                 (String.concat ", "
                    (List.map
                       (fun k -> Printf.sprintf "\"%s\"" (Kinds.proc_kind_to_string k))
                       ks)))
             t.dom.d_proc)));
  add "  \"colocation_rotations\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun rot ->
            Printf.sprintf "[%s]"
              (String.concat ", "
                 (List.map
                    (fun g ->
                      Printf.sprintf
                        "{\"members\": [%s], \"combined_bytes\": %.6g, \"common_kinds\": [%s], \"fitting_kinds\": [%s]}"
                        (String.concat ", " (List.map string_of_int g.members))
                        g.combined_bytes
                        (String.concat ", "
                           (List.map
                              (fun m -> Printf.sprintf "\"%s\"" (Kinds.mem_kind_to_string m))
                              g.common_kinds))
                        (String.concat ", "
                           (List.map
                              (fun m -> Printf.sprintf "\"%s\"" (Kinds.mem_kind_to_string m))
                              g.fitting_kinds)))
                    rot)))
          t.grps));
  add
    "  \"symmetry\": {\"task_orbits\": %d, \"nontrivial_orbits\": %d, \"largest_orbit\": %d, \"node_classes\": %d, \"log2_space\": %.6g, \"log2_symmetry_reduction\": %.6g, \"orbits\": [%s]},\n"
    (Symmetry.n_orbits t.sym) (Symmetry.n_nontrivial t.sym)
    (Symmetry.largest_orbit t.sym) (Array.length t.node_cls) (log2_space t)
    (log2_symmetry_reduction t)
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun ms ->
               Printf.sprintf "[%s]"
                 (String.concat ", "
                    (Array.to_list (Array.map string_of_int ms))))
             (Symmetry.orbits t.sym))));
  let proc_doms =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun tid prs ->
              List.map
                (fun (b, a) ->
                  Printf.sprintf
                    "{\"task\": %d, \"dominated\": \"%s\", \"dominator\": \"%s\"}"
                    tid (Kinds.proc_kind_to_string b)
                    (Kinds.proc_kind_to_string a))
                prs)
            t.dmn.dm_proc))
  and mem_doms =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun cid prs ->
              List.map
                (fun (k, b, a) ->
                  Printf.sprintf
                    "{\"collection\": %d, \"kind\": \"%s\", \"dominated\": \"%s\", \"dominator\": \"%s\"}"
                    cid (Kinds.proc_kind_to_string k)
                    (Kinds.mem_kind_to_string b) (Kinds.mem_kind_to_string a))
                prs)
            t.dmn.dm_mem))
  in
  add
    "  \"dominance\": {\"pruned_values\": %d, \"proc\": [%s], \"mem\": [%s]},\n"
    (n_dominated t.dmn)
    (String.concat ", " proc_doms)
    (String.concat ", " mem_doms);
  add "  \"diagnostics\": [%s]\n"
    (String.concat ", "
       (List.map
          (fun d ->
            Printf.sprintf
              "{\"severity\": \"%s\", \"code\": \"%s\", \"subject\": \"%s\", \"message\": \"%s\"}"
              (severity_to_string d.severity) (json_escape d.code)
              (json_escape d.subject) (json_escape d.message))
          t.diags));
  add "}\n";
  Buffer.contents buf
