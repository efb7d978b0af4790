type collection = {
  cid : int;
  cname : string;
  owner : int;
  bytes : float;
  mode : Mode.t;
}

type task = {
  tid : int;
  tname : string;
  group_size : int;
  variants : Kinds.proc_kind list;
  flops : float;
  cpu_efficiency : float;
  gpu_efficiency : float;
  args : collection list;
}

type edge = {
  src : int;
  dst : int;
  bytes : float;
  pattern : Pattern.t;
  carried : bool;
}

type t = {
  gname : string;
  iterations : int;
  tasks : task array;
  edges : edge list;
  overlaps : (int * int * float) list;
  cols : collection array;
}

exception Invalid_graph of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_graph s)) fmt

module Builder = struct
  type t = {
    bname : string;
    biterations : int;
    mutable btasks : task list;  (* reversed; args reversed inside *)
    mutable bcols : collection list;  (* reversed *)
    mutable bedges : edge list;
    mutable boverlaps : (int * int * float) list;
    mutable next_tid : int;
    mutable next_cid : int;
  }

  let create ?(iterations = 1) ~name () =
    if iterations <= 0 then fail "graph %s: iterations must be positive" name;
    {
      bname = name;
      biterations = iterations;
      btasks = [];
      bcols = [];
      bedges = [];
      boverlaps = [];
      next_tid = 0;
      next_cid = 0;
    }

  let add_task b ~name ~group_size ~variants ~flops ?(cpu_efficiency = 1.0)
      ?(gpu_efficiency = 1.0) () =
    if group_size <= 0 then fail "task %s: group_size must be positive" name;
    if flops < 0.0 then fail "task %s: flops must be non-negative" name;
    if variants = [] then fail "task %s: needs at least one processor variant" name;
    if cpu_efficiency <= 0.0 || cpu_efficiency > 1.0 then
      fail "task %s: cpu_efficiency must be in (0,1]" name;
    if gpu_efficiency <= 0.0 || gpu_efficiency > 1.0 then
      fail "task %s: gpu_efficiency must be in (0,1]" name;
    let tid = b.next_tid in
    b.next_tid <- tid + 1;
    b.btasks <-
      {
        tid;
        tname = name;
        group_size;
        variants;
        flops;
        cpu_efficiency;
        gpu_efficiency;
        args = [];
      }
      :: b.btasks;
    tid

  let find_task b tid =
    match List.find_opt (fun t -> t.tid = tid) b.btasks with
    | Some t -> t
    | None -> fail "unknown task id %d" tid

  let add_arg b ~task ~name ~bytes ~mode =
    let t = find_task b task in
    if bytes <= 0.0 then fail "collection %s: bytes must be positive" name;
    let cid = b.next_cid in
    b.next_cid <- cid + 1;
    let col = { cid; cname = name; owner = task; bytes; mode } in
    b.bcols <- col :: b.bcols;
    b.btasks <-
      List.map
        (fun t' -> if t'.tid = t.tid then { t' with args = col :: t'.args } else t')
        b.btasks;
    cid

  let find_col b cid =
    match List.find_opt (fun c -> c.cid = cid) b.bcols with
    | Some c -> c
    | None -> fail "unknown collection id %d" cid

  let add_dep ?bytes ?(pattern = Pattern.Same_shard) ?(carried = false) b ~src ~dst =
    let cs = find_col b src and cd = find_col b dst in
    if not (Mode.writes cs.mode) then
      fail "dependence source %s is never written (mode %s)" cs.cname
        (Mode.to_string cs.mode);
    if not (Mode.reads cd.mode) then
      fail "dependence destination %s is never read (mode %s)" cd.cname
        (Mode.to_string cd.mode);
    let bytes = match bytes with Some bs -> bs | None -> cd.bytes in
    if bytes <= 0.0 then fail "dependence %s -> %s: bytes must be positive" cs.cname cd.cname;
    b.bedges <- { src; dst; bytes; pattern; carried } :: b.bedges

  let add_overlap b c1 c2 ~bytes =
    let a = find_col b c1 and c = find_col b c2 in
    if a.cid = c.cid then fail "self-overlap on collection %s" a.cname;
    if bytes <= 0.0 then fail "overlap %s ~ %s: bytes must be positive" a.cname c.cname;
    if bytes > a.bytes +. 1e-9 || bytes > c.bytes +. 1e-9 then
      fail "overlap %s ~ %s: %g bytes exceeds an argument size" a.cname c.cname bytes;
    let lo, hi = if c1 < c2 then (c1, c2) else (c2, c1) in
    b.boverlaps <- (lo, hi, bytes) :: b.boverlaps

  (* Kahn's algorithm over the task-level projection of the edges. *)
  let check_acyclic tasks edges =
    let n = Array.length tasks in
    let indeg = Array.make n 0 in
    let adj = Array.make n [] in
    let owner_of = Hashtbl.create 64 in
    Array.iter (fun t -> List.iter (fun c -> Hashtbl.replace owner_of c.cid t.tid) t.args) tasks;
    List.iter
      (fun e ->
        let s = Hashtbl.find owner_of e.src and d = Hashtbl.find owner_of e.dst in
        if s <> d && not e.carried then begin
          adj.(s) <- d :: adj.(s);
          indeg.(d) <- indeg.(d) + 1
        end)
      edges;
    let queue = Queue.create () in
    Array.iter (fun t -> if indeg.(t.tid) = 0 then Queue.add t.tid queue) tasks;
    let visited = ref 0 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      incr visited;
      List.iter
        (fun v ->
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.add v queue)
        adj.(u)
    done;
    if !visited <> n then fail "task-level dependence graph is cyclic"

  let build b =
    let tasks =
      b.btasks
      |> List.map (fun t -> { t with args = List.rev t.args })
      |> List.sort (fun a c -> compare a.tid c.tid)
      |> Array.of_list
    in
    let edges = List.rev b.bedges in
    check_acyclic tasks edges;
    (* cids are dense by construction, so a cid-indexed array makes
       [collection] O(1) — the search layers look collections up per
       candidate, where rebuilding the list per call dominated. *)
    let cols =
      match List.rev b.bcols with
      | [] -> [||]
      | c0 :: _ as l ->
          let arr = Array.make b.next_cid c0 in
          List.iter (fun c -> arr.(c.cid) <- c) l;
          arr
    in
    {
      gname = b.bname;
      iterations = b.biterations;
      tasks;
      edges;
      overlaps = List.rev b.boverlaps;
      cols;
    }
end

let n_tasks g = Array.length g.tasks

let collections g = Array.to_list g.cols

let n_collections g = Array.length g.cols

let task g tid =
  if tid < 0 || tid >= Array.length g.tasks then invalid_arg "Graph.task: bad tid";
  g.tasks.(tid)

let collection g cid =
  if cid < 0 || cid >= Array.length g.cols then invalid_arg "Graph.collection: bad cid";
  g.cols.(cid)

let owner_table g =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun t -> List.iter (fun c -> Hashtbl.replace tbl c.cid t.tid) t.args) g.tasks;
  tbl

let topological_order g =
  let n = Array.length g.tasks in
  let indeg = Array.make n 0 in
  let adj = Array.make n [] in
  let owner = owner_table g in
  List.iter
    (fun e ->
      let s = Hashtbl.find owner e.src and d = Hashtbl.find owner e.dst in
      if s <> d && not e.carried then begin
        adj.(s) <- d :: adj.(s);
        indeg.(d) <- indeg.(d) + 1
      end)
    g.edges;
  (* Stable Kahn: a sorted work list keeps ties in tid order. *)
  let module IS = Set.Make (Int) in
  let ready = ref IS.empty in
  Array.iter (fun t -> if indeg.(t.tid) = 0 then ready := IS.add t.tid !ready) g.tasks;
  let order = ref [] in
  while not (IS.is_empty !ready) do
    let u = IS.min_elt !ready in
    ready := IS.remove u !ready;
    order := u :: !order;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then ready := IS.add v !ready)
      adj.(u)
  done;
  List.rev_map (fun tid -> g.tasks.(tid)) !order

let predecessors g tid =
  let owner = owner_table g in
  List.filter (fun e -> Hashtbl.find owner e.dst = tid) g.edges

let successors g tid =
  let owner = owner_table g in
  List.filter (fun e -> Hashtbl.find owner e.src = tid) g.edges

let total_bytes g =
  List.fold_left (fun acc (c : collection) -> acc +. c.bytes) 0.0 (collections g)

(* kinds are constant constructors, so physical equality is equality,
   and no closure is allocated: Mapping's validity walk runs this once
   per task of every suggested candidate *)
let has_variant t k = List.memq k t.variants

let pp_summary ppf g =
  Format.fprintf ppf "%s: %d tasks, %d collection args, %d deps, %d overlaps, %d iteration(s)"
    g.gname (n_tasks g) (n_collections g) (List.length g.edges)
    (List.length g.overlaps) g.iterations
