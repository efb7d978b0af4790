type dist_strategy = Blocked | Cyclic

let strategy_to_string = function Blocked -> "blocked" | Cyclic -> "cyclic"

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "blocked" -> Some Blocked
  | "cyclic" -> Some Cyclic
  | _ -> None

type t = {
  distribute : bool array;           (* indexed by tid *)
  strategy : dist_strategy array;    (* indexed by tid *)
  proc : Kinds.proc_kind array;      (* indexed by tid *)
  mem : Kinds.mem_kind array;        (* indexed by cid *)
}

let make ?(strategy = fun _ -> Blocked) (g : Graph.t) ~distribute ~proc ~mem =
  let nt = Graph.n_tasks g in
  let cols = Graph.collections g in
  let nc = List.length cols in
  (* cids are dense by construction of Graph.Builder. *)
  List.iteri
    (fun i (c : Graph.collection) ->
      if c.cid <> i then invalid_arg "Mapping.make: collection ids are not dense")
    cols;
  let d = Array.make nt true in
  let st = Array.make nt Blocked in
  let p = Array.make nt Kinds.Cpu in
  let m = Array.make nc Kinds.System in
  for tid = 0 to nt - 1 do
    let task = Graph.task g tid in
    d.(tid) <- distribute task;
    st.(tid) <- strategy task;
    p.(tid) <- proc task
  done;
  List.iter (fun (c : Graph.collection) -> m.(c.cid) <- mem c) cols;
  { distribute = d; strategy = st; proc = p; mem = m }

let preferred_kind (m : Machine.t) (task : Graph.task) =
  if Graph.has_variant task Kinds.Gpu && Machine.procs_of_kind_per_node m Kinds.Gpu > 0
  then Kinds.Gpu
  else Kinds.Cpu

let fastest_mem = function Kinds.Gpu -> Kinds.Frame_buffer | Kinds.Cpu -> Kinds.System

let default_start g machine =
  let proc t = preferred_kind machine t in
  make g
    ~distribute:(fun _ -> true)
    ~proc
    ~mem:(fun c -> fastest_mem (proc (Graph.task g c.owner)))

let all_cpu g _machine =
  make g ~distribute:(fun _ -> true) ~proc:(fun _ -> Kinds.Cpu) ~mem:(fun _ -> Kinds.System)

let distribute_of t tid = t.distribute.(tid)
let strategy_of t tid = t.strategy.(tid)
let proc_of t tid = t.proc.(tid)
let mem_of t cid = t.mem.(cid)

let set_distribute t tid v =
  let d = Array.copy t.distribute in
  d.(tid) <- v;
  { t with distribute = d }

let set_strategy t tid v =
  let st = Array.copy t.strategy in
  st.(tid) <- v;
  { t with strategy = st }

let set_proc t tid v =
  let p = Array.copy t.proc in
  p.(tid) <- v;
  { t with proc = p }

let set_mem t cid v =
  let m = Array.copy t.mem in
  m.(cid) <- v;
  { t with mem = m }

(* The first failing check of §4.2 constraint (1), in task order and,
   within a task, processor kind, variant, then each collection
   argument.  Nothing is formatted here, and a valid mapping allocates
   nothing: the evaluator asks for every candidate its profiles
   database cannot answer, invalid ones included since they are never
   recorded, and about half of the ensemble's suggestions fail. *)
type violation =
  | No_procs of int
  | No_variant of int
  | Unaddressable of int * Graph.collection

let rec unaddressable t k = function
  | [] -> None
  | (c : Graph.collection) :: rest ->
      if Kinds.accessible k t.mem.(c.cid) then unaddressable t k rest else Some c

let rec first_violation g machine t tid =
  if tid >= Graph.n_tasks g then None
  else
    let task = Graph.task g tid in
    let k = t.proc.(tid) in
    if not (Machine.procs_of_kind_per_node machine k > 0) then Some (No_procs tid)
    else if not (Graph.has_variant task k) then Some (No_variant tid)
    else
      match unaddressable t k task.args with
      | Some c -> Some (Unaddressable (tid, c))
      | None -> first_violation g machine t (tid + 1)

let is_valid g machine t = Option.is_none (first_violation g machine t 0)

(* Coordinate-naming style shared with Analysis diagnostics and
   Placement's OOM errors: "task <tid> (<name>)" / "collection
   c<cid> (<name>)", always naming the kinds involved. *)
let validate g machine t =
  match first_violation g machine t 0 with
  | None -> Ok ()
  | Some v ->
      let proc tid = Kinds.proc_kind_to_string t.proc.(tid) in
      let name tid = (Graph.task g tid).tname in
      Error
        (match v with
        | No_procs tid ->
            Printf.sprintf "task %d (%s) mapped to %s but the machine has no %s processors"
              tid (name tid) (proc tid) (proc tid)
        | No_variant tid -> Printf.sprintf "task %d (%s) has no %s variant" tid (name tid) (proc tid)
        | Unaddressable (tid, c) ->
            Printf.sprintf "collection c%d (%s) of task %d (%s) mapped to %s, not addressable from %s"
              c.cid c.cname tid (name tid)
              (Kinds.mem_kind_to_string t.mem.(c.cid))
              (proc tid))

let memory_priority t (task : Graph.task) cid =
  let chosen = t.mem.(cid) in
  let k = t.proc.(task.tid) in
  chosen
  :: List.filter
       (fun mk -> not (Kinds.equal_mem mk chosen))
       (Kinds.accessible_mem_kinds k)

(* Monomorphic array walks: [equal] runs once per generated neighbour
   (the no-op check), where the polymorphic compare's C calls dominate
   on these small immediate-element arrays. *)
let equal a b =
  let nt = Array.length a.proc and nc = Array.length a.mem in
  nt = Array.length b.proc
  && nc = Array.length b.mem
  &&
  let ok = ref true in
  for tid = 0 to nt - 1 do
    if
      a.distribute.(tid) <> b.distribute.(tid)
      || a.strategy.(tid) != b.strategy.(tid)
      || a.proc.(tid) != b.proc.(tid)
    then ok := false
  done;
  if !ok then
    for cid = 0 to nc - 1 do
      if a.mem.(cid) != b.mem.(cid) then ok := false
    done;
  !ok

let check_shapes name a b =
  if
    Array.length a.proc <> Array.length b.proc
    || Array.length a.mem <> Array.length b.mem
  then invalid_arg (name ^ ": mappings of different graphs")

let task_diff a b buf =
  check_shapes "Mapping.task_diff" a b;
  let n = ref 0 in
  for tid = 0 to Array.length a.proc - 1 do
    if
      a.distribute.(tid) <> b.distribute.(tid)
      || a.strategy.(tid) != b.strategy.(tid)
      || a.proc.(tid) != b.proc.(tid)
    then begin
      buf.(!n) <- tid;
      incr n
    end
  done;
  !n

let collection_diff a b buf =
  check_shapes "Mapping.collection_diff" a b;
  let n = ref 0 in
  for cid = 0 to Array.length a.mem - 1 do
    if a.mem.(cid) != b.mem.(cid) then begin
      buf.(!n) <- cid;
      incr n
    end
  done;
  !n

let diff a b =
  check_shapes "Mapping.diff" a b;
  let coords f len =
    let buf = Array.make len 0 in
    Array.to_list (Array.sub buf 0 (f a b buf))
  in
  (coords task_diff (Array.length a.proc), coords collection_diff (Array.length a.mem))

(* One string of the key's length, 3nt + nc + 3, written in place: every
   proposal is keyed, and most are answered without a simulation. *)
let canonical_key t =
  let nt = Array.length t.proc and nc = Array.length t.mem in
  let b = Bytes.make ((3 * nt) + nc + 3) '|' in
  for tid = 0 to nt - 1 do
    Bytes.set b tid (if t.distribute.(tid) then 'D' else 'L');
    Bytes.set b (nt + 1 + tid) (match t.strategy.(tid) with Blocked -> 'B' | Cyclic -> 'Y');
    Bytes.set b ((2 * nt) + 2 + tid)
      (match t.proc.(tid) with Kinds.Cpu -> 'C' | Kinds.Gpu -> 'G')
  done;
  for cid = 0 to nc - 1 do
    Bytes.set b ((3 * nt) + 3 + cid)
      (match t.mem.(cid) with
      | Kinds.System -> 'S'
      | Kinds.Zero_copy -> 'Z'
      | Kinds.Frame_buffer -> 'F')
  done;
  Bytes.unsafe_to_string b

let of_canonical_key g key =
  match String.split_on_char '|' key with
  | [ d; st; p; m ] ->
      let nt = Graph.n_tasks g and nc = Graph.n_collections g in
      if String.length d <> nt || String.length st <> nt || String.length p <> nt
         || String.length m <> nc
      then None
      else begin
        let ok = ref true in
        let distribute = Array.make nt true in
        let strategy = Array.make nt Blocked in
        let proc = Array.make nt Kinds.Cpu in
        let mem = Array.make nc Kinds.System in
        String.iteri
          (fun i c ->
            match c with
            | 'D' -> distribute.(i) <- true
            | 'L' -> distribute.(i) <- false
            | _ -> ok := false)
          d;
        String.iteri
          (fun i c ->
            match c with
            | 'B' -> strategy.(i) <- Blocked
            | 'Y' -> strategy.(i) <- Cyclic
            | _ -> ok := false)
          st;
        String.iteri
          (fun i c ->
            match c with
            | 'C' -> proc.(i) <- Kinds.Cpu
            | 'G' -> proc.(i) <- Kinds.Gpu
            | _ -> ok := false)
          p;
        String.iteri
          (fun i c ->
            match c with
            | 'S' -> mem.(i) <- Kinds.System
            | 'Z' -> mem.(i) <- Kinds.Zero_copy
            | 'F' -> mem.(i) <- Kinds.Frame_buffer
            | _ -> ok := false)
          m;
        if !ok then Some { distribute; strategy; proc; mem } else None
      end
  | _ -> None

let pp g ppf t =
  for tid = 0 to Graph.n_tasks g - 1 do
    let task = Graph.task g tid in
    Format.fprintf ppf "%-24s %s/%s %-3s |" task.tname
      (if t.distribute.(tid) then "dist" else "leader")
      (strategy_to_string t.strategy.(tid))
      (Kinds.proc_kind_to_string t.proc.(tid));
    List.iter
      (fun (c : Graph.collection) ->
        Format.fprintf ppf " %s:%s" c.cname (Kinds.mem_kind_to_string t.mem.(c.cid)))
      task.args;
    if tid < Graph.n_tasks g - 1 then Format.pp_print_newline ppf ()
  done
