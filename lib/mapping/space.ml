type dim = Distribution of int | Strategy of int | Processor of int | Memory of int

type t = {
  g : Graph.t;
  m : Machine.t;
  ext : bool;
  dom : Analysis.domains option;
  dmn : Analysis.dominance option;
  sym : Symmetry.t option;
  has_orbits : bool;  (* [sym] has an orbit of two or more tasks *)
}

let make ?(extended = false) ?(domains = true) ?(dominance = false)
    ?(symmetry = false) g m =
  let dom = if domains then Some (Analysis.compute_domains m g) else None in
  let dmn =
    match dom with
    | Some d when dominance -> Some (Analysis.compute_dominance m g d)
    | _ -> None
  in
  let sym = if symmetry then Some (Symmetry.build g) else None in
  let has_orbits = match sym with Some s -> Symmetry.n_nontrivial s > 0 | None -> false in
  { g; m; ext = extended; dom; dmn; sym; has_orbits }

let graph t = t.g
let machine t = t.m
let extended t = t.ext
let pruned t = t.dom <> None
let dominance t = t.dmn <> None
let symmetry t = t.sym <> None

let dims t =
  let task_dims =
    List.concat_map
      (fun (task : Graph.task) ->
        [ Distribution task.tid; Processor task.tid ]
        @ if t.ext then [ Strategy task.tid ] else [])
      (Array.to_list t.g.tasks)
  in
  let mem_dims =
    List.map (fun (c : Graph.collection) -> Memory c.cid) (Graph.collections t.g)
  in
  task_dims @ mem_dims

let proc_choices_all t tid =
  let task = Graph.task t.g tid in
  List.filter
    (fun k -> Machine.procs_of_kind_per_node t.m k > 0)
    task.variants

(* Domain-pruned choice lists fall back to the unpruned ones when a
   domain is empty: on a certifiably infeasible input the search still
   needs non-empty lists to enumerate (every candidate then earns its
   penalty from the evaluator, exactly as before domains existed).
   Dominance pruning applies on top and never empties a list: the
   dominator of every pruned value survives by construction. *)
let proc_choices t tid =
  let base =
    match t.dom with
    | None -> proc_choices_all t tid
    | Some d -> (
        match Analysis.proc_domain d tid with
        | [] -> proc_choices_all t tid
        | l -> l)
  in
  match t.dmn with
  | None -> base
  | Some d -> Analysis.proc_surviving d tid base

let mem_choices _t k = Kinds.accessible_mem_kinds k

let mem_choices_for t ~cid k =
  let base =
    match t.dom with
    | None -> Kinds.accessible_mem_kinds k
    | Some d -> (
        match Analysis.mem_domain d ~cid k with
        | [] -> Kinds.accessible_mem_kinds k
        | l -> l)
  in
  match t.dmn with
  | None -> base
  | Some d -> Analysis.mem_surviving d ~cid k base

let distribution_choices t =
  (true, Mapping.Blocked) :: (false, Mapping.Blocked)
  :: (if t.ext then [ (true, Mapping.Cyclic) ] else [])

(* Distance-aware ordering of the distribution choices on topology
   machines: choices whose adjacent shards (the halo-exchange partners)
   land on nodes at most one hop apart come first, so coordinate
   descent tries locality-preserving distributions before ones that
   scatter neighbours across the interconnect.  The candidate set is
   unchanged — only the order moves — and machines without a topology
   get the historical list verbatim.  The shard->node arithmetic
   mirrors Placement.node_of_shard (the mapping layer sits below sim,
   so it cannot call it). *)
let distribution_choices_for t tid =
  let base = distribution_choices t in
  match t.m.Machine.topology with
  | None -> base
  | Some topo ->
      let nodes = t.m.Machine.nodes in
      if nodes <= 1 then base
      else begin
        let shards = (Graph.task t.g tid).group_size in
        let node_of distribute strategy s =
          if not distribute then 0
          else
            match (strategy : Mapping.dist_strategy) with
            | Mapping.Cyclic -> s mod nodes
            | Mapping.Blocked -> if shards >= nodes then s * nodes / shards else s
        in
        let local (distribute, strategy) =
          let ok = ref true in
          for s = 0 to shards - 2 do
            let a = node_of distribute strategy s
            and b = node_of distribute strategy (s + 1) in
            if a <> b then begin
              let d = Topology.distance topo ~src:a ~dst:b in
              if d < 0 || d > 1 then ok := false
            end
          done;
          !ok
        in
        let locals, scattered = List.partition local base in
        locals @ scattered
      end

let log2_size t =
  let log2 x = log x /. log 2.0 in
  Array.fold_left
    (fun acc (task : Graph.task) ->
      let procs = proc_choices t task.tid in
      (* Number of (proc, mems...) combinations for this task: sum over
         candidate kinds of the product of its arguments' memory
         domains, times 2 for the distribution bit. *)
      let per_kind k =
        List.fold_left
          (fun p (c : Graph.collection) ->
            p *. float_of_int (List.length (mem_choices_for t ~cid:c.cid k)))
          1.0 task.args
      in
      let combos = List.fold_left (fun s k -> s +. per_kind k) 0.0 procs in
      let dist = float_of_int (List.length (distribution_choices t)) in
      acc +. log2 (dist *. combos))
    0.0 t.g.tasks

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)
(* ------------------------------------------------------------------ *)

(* Relabel within task orbits to the lexicographic representative: the
   multiset of per-task blocks (distribution, strategy, processor kind,
   argument memory kinds in argument order) of each orbit is reassigned
   to its members in ascending tid order, blocks sorted.  Placement
   assigns shards per task from a task-local round-robin counter, so
   orbit members (same group size by construction) with exchanged
   blocks land on exactly each other's processors and memories — the
   noise-free static cost is unchanged (see Symmetry and DESIGN.md
   §14).  Without an orbit of two or more tasks every mapping is its
   own representative: the answer is [m], with nothing allocated. *)
let canonicalize t m =
  match t.sym with
  | Some sym when t.has_orbits ->
      let nt = Graph.n_tasks t.g in
      let dist = Array.init nt (Mapping.distribute_of m) in
      let strat = Array.init nt (Mapping.strategy_of m) in
      let proc = Array.init nt (Mapping.proc_of m) in
      let mem =
        Array.map (fun (c : Graph.collection) -> Mapping.mem_of m c.cid)
          t.g.Graph.cols
      in
      let changed = ref false in
      Array.iter
        (fun members ->
          if Array.length members >= 2 then begin
            let block tid =
              let task = Graph.task t.g tid in
              (if dist.(tid) then 0 else 1)
              :: (match strat.(tid) with Mapping.Blocked -> 0 | Mapping.Cyclic -> 1)
              :: Kinds.rank_proc proc.(tid)
              :: List.map
                   (fun (c : Graph.collection) -> Kinds.rank_mem mem.(c.cid))
                   task.args
            in
            let blocks = Array.map block members in
            let sorted = Array.copy blocks in
            Array.sort compare sorted;
            if sorted <> blocks then begin
              changed := true;
              Array.iteri
                (fun i tid ->
                  match sorted.(i) with
                  | d :: s :: p :: ms ->
                      dist.(tid) <- d = 0;
                      strat.(tid) <-
                        (if s = 0 then Mapping.Blocked else Mapping.Cyclic);
                      proc.(tid) <-
                        (if p = 0 then Kinds.Cpu else Kinds.Gpu);
                      List.iteri
                        (fun j (c : Graph.collection) ->
                          mem.(c.cid) <-
                            (match List.nth ms j with
                            | 0 -> Kinds.System
                            | 1 -> Kinds.Zero_copy
                            | _ -> Kinds.Frame_buffer))
                        (Graph.task t.g tid).args
                  | _ -> assert false)
                members
            end
          end)
        (Symmetry.orbits sym);
      if not !changed then m
      else
        Mapping.make t.g
          ~strategy:(fun (task : Graph.task) -> strat.(task.tid))
          ~distribute:(fun (task : Graph.task) -> dist.(task.tid))
          ~proc:(fun (task : Graph.task) -> proc.(task.tid))
          ~mem:(fun (c : Graph.collection) -> mem.(c.cid))
  | _ -> m

let random_strategy t rng =
  if t.ext && Rng.bool rng then Mapping.Cyclic else Mapping.Blocked

let random_mapping t rng =
  let proc_for = Array.make (Graph.n_tasks t.g) Kinds.Cpu in
  Array.iter
    (fun (task : Graph.task) ->
      proc_for.(task.tid) <- Rng.choose_list rng (proc_choices t task.tid))
    t.g.tasks;
  let m =
    Mapping.make t.g
      ~strategy:(fun _ -> random_strategy t rng)
      ~distribute:(fun _ -> Rng.bool rng)
      ~proc:(fun task -> proc_for.(task.tid))
      ~mem:(fun c -> Rng.choose_list rng (mem_choices_for t ~cid:c.cid proc_for.(c.owner)))
  in
  canonicalize t m

let random_unconstrained t rng =
  Mapping.make t.g
    ~strategy:(fun _ -> random_strategy t rng)
    ~distribute:(fun _ -> Rng.bool rng)
    ~proc:(fun _ -> Rng.choose_list rng Kinds.all_proc_kinds)
    ~mem:(fun _ -> Rng.choose_list rng Kinds.all_mem_kinds)
