(* Task orbits by 1-WL colour refinement plus exactly verified
   transpositions; machine-node classes by kind-signature.  See
   symmetry.mli and DESIGN.md §14 for the soundness argument. *)

type t = {
  nt : int;
  orbit_of : int array;     (* tid -> orbit index *)
  orbits : int array array; (* orbit index -> members, ascending *)
}

let fb = Printf.sprintf "%h"

let pat_enc = function
  | Pattern.Same_shard -> "s"
  | Pattern.Halo { frac } -> "h" ^ fb frac

let intern tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = Hashtbl.length tbl in
      Hashtbl.add tbl key c;
      c

(* union-find, min member as root *)
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

let build (g : Graph.t) =
  let nt = Graph.n_tasks g in
  if nt = 0 then { nt; orbit_of = [||]; orbits = [||] }
  else begin
    let nc = Graph.n_collections g in
    (* cid -> position of the argument within its owner's args *)
    let argpos = Array.make (max nc 1) 0 in
    Array.iter
      (fun (t : Graph.task) ->
        List.iteri (fun i (c : Graph.collection) -> argpos.(c.cid) <- i) t.args)
      g.Graph.tasks;
    let owner cid = (Graph.collection g cid).Graph.owner in
    (* initial colours: every statically observable per-task attribute *)
    let color =
      let tbl = Hashtbl.create 16 in
      Array.map
        (fun (t : Graph.task) ->
          let key =
            String.concat ";"
              (string_of_int t.group_size
              :: String.concat ","
                   (List.map Kinds.proc_kind_to_string t.variants)
              :: fb t.flops :: fb t.cpu_efficiency :: fb t.gpu_efficiency
              :: List.map
                   (fun (c : Graph.collection) ->
                     fb c.bytes ^ ":" ^ Mode.to_string c.mode)
                   t.args)
          in
          intern tbl key)
        g.Graph.tasks
    in
    let n_colors c =
      let tbl = Hashtbl.create 16 in
      Array.iter (fun x -> Hashtbl.replace tbl x ()) c;
      Hashtbl.length tbl
    in
    (* refine by incident dependence/overlap signatures to a fixed
       point; refinement only splits classes, so a stable class count
       means a stable partition *)
    let rec refine color ncol =
      let items = Array.make nt [] in
      let push tid s = items.(tid) <- s :: items.(tid) in
      List.iter
        (fun (e : Graph.edge) ->
          let so = owner e.src and sd = owner e.dst in
          let tail =
            Printf.sprintf "%s.%s.%b" (fb e.bytes) (pat_enc e.pattern) e.carried
          in
          push so
            (Printf.sprintf "o%d.%d.%d.%s" argpos.(e.src) argpos.(e.dst)
               color.(sd) tail);
          push sd
            (Printf.sprintf "i%d.%d.%d.%s" argpos.(e.dst) argpos.(e.src)
               color.(so) tail))
        g.Graph.edges;
      List.iter
        (fun (c1, c2, w) ->
          let o1 = owner c1 and o2 = owner c2 in
          push o1
            (Printf.sprintf "v%d.%d.%d.%s" argpos.(c1) argpos.(c2) color.(o2)
               (fb w));
          push o2
            (Printf.sprintf "v%d.%d.%d.%s" argpos.(c2) argpos.(c1) color.(o1)
               (fb w)))
        g.Graph.overlaps;
      let tbl = Hashtbl.create 16 in
      let next =
        Array.mapi
          (fun tid c ->
            intern tbl
              (string_of_int c ^ "|"
              ^ String.concat "|" (List.sort compare items.(tid))))
          color
      in
      let ncol' = Hashtbl.length tbl in
      if ncol' = ncol then next else refine next ncol'
    in
    let refined = refine color (n_colors color) in
    (* exact check: does the transposition (a b), with positional
       argument alignment, leave the edge and overlap multisets
       invariant?  Attribute equality already holds (same colour). *)
    let swap_ok a b =
      let ta = Graph.task g a and tb = Graph.task g b in
      List.length ta.args = List.length tb.args
      && begin
           let cperm = Array.init (max nc 1) (fun i -> i) in
           List.iter2
             (fun (ca : Graph.collection) (cb : Graph.collection) ->
               cperm.(ca.cid) <- cb.cid;
               cperm.(cb.cid) <- ca.cid)
             ta.args tb.args;
           let enc_edge mapped (e : Graph.edge) =
             let s = if mapped then cperm.(e.src) else e.src
             and d = if mapped then cperm.(e.dst) else e.dst in
             Printf.sprintf "%d.%d.%s.%s.%b" s d (fb e.bytes)
               (pat_enc e.pattern) e.carried
           in
           let sorted f l = List.sort compare (List.map f l) in
           sorted (enc_edge false) g.Graph.edges
           = sorted (enc_edge true) g.Graph.edges
           && begin
                let enc_ov mapped (c1, c2, w) =
                  let x = if mapped then cperm.(c1) else c1
                  and y = if mapped then cperm.(c2) else c2 in
                  let x, y = if x <= y then (x, y) else (y, x) in
                  Printf.sprintf "%d.%d.%s" x y (fb w)
                in
                sorted (enc_ov false) g.Graph.overlaps
                = sorted (enc_ov true) g.Graph.overlaps
              end
         end
    in
    let parent = Array.init nt (fun i -> i) in
    let members = Array.make (n_colors refined + 1) [] in
    for tid = nt - 1 downto 0 do
      members.(refined.(tid)) <- tid :: members.(refined.(tid))
    done;
    Array.iter
      (fun ms ->
        match ms with
        | [] | [ _ ] -> ()
        | ms ->
            (* verified transpositions with earlier members; a connected
               swap-graph generates the full symmetric group *)
            List.iter
              (fun x ->
                List.iter
                  (fun y ->
                    if
                      y < x
                      && uf_find parent y <> uf_find parent x
                      && swap_ok y x
                    then uf_union parent y x)
                  ms)
              ms)
      members;
    let buckets = Array.make nt [] in
    for tid = nt - 1 downto 0 do
      buckets.(uf_find parent tid) <- tid :: buckets.(uf_find parent tid)
    done;
    let orbits = ref [] in
    for r = nt - 1 downto 0 do
      match buckets.(r) with
      | [] -> ()
      | ms -> orbits := Array.of_list ms :: !orbits
    done;
    let orbits = Array.of_list !orbits in
    let orbit_of = Array.make nt 0 in
    Array.iteri
      (fun i ms -> Array.iter (fun tid -> orbit_of.(tid) <- i) ms)
      orbits;
    { nt; orbit_of; orbits }
  end

let n_tasks t = t.nt
let orbits t = t.orbits
let orbit_of t tid = t.orbit_of.(tid)
let same_orbit t a b = t.orbit_of.(a) = t.orbit_of.(b)
let n_orbits t = Array.length t.orbits

let n_nontrivial t =
  Array.fold_left
    (fun n ms -> if Array.length ms >= 2 then n + 1 else n)
    0 t.orbits

let largest_orbit t =
  Array.fold_left (fun m ms -> Stdlib.max m (Array.length ms)) 0 t.orbits

let node_classes (m : Machine.t) =
  let n = m.Machine.nodes in
  if n = 0 then [||]
  else begin
    let procs = Array.make n [] and mems = Array.make n [] in
    Array.iter
      (fun (p : Machine.processor) ->
        procs.(p.Machine.pnode) <-
          Kinds.rank_proc p.Machine.pkind :: procs.(p.Machine.pnode))
      m.Machine.processors;
    Array.iter
      (fun (mem : Machine.memory) ->
        mems.(mem.Machine.mnode) <-
          (Kinds.rank_mem mem.Machine.mkind, Int64.bits_of_float mem.Machine.capacity)
          :: mems.(mem.Machine.mnode))
      m.Machine.memories;
    (* sorted multisets, compared structurally *)
    let key node = (List.sort compare procs.(node), List.sort compare mems.(node)) in
    let tbl = Hashtbl.create 8 in
    let classes = ref [] in
    for node = n - 1 downto 0 do
      let k = key node in
      match Hashtbl.find_opt tbl k with
      | Some r -> r := node :: !r
      | None ->
          let r = ref [ node ] in
          Hashtbl.add tbl k r;
          classes := r :: !classes
    done;
    let classes =
      Array.of_list (List.map (fun r -> Array.of_list !r) !classes)
    in
    (* members are ascending (descending walk, prepend); order the
       classes by their smallest node *)
    Array.sort (fun a b -> compare a.(0) b.(0)) classes;
    classes
  end

let log2_reduction t ~combos =
  Array.fold_left
    (fun acc ms ->
      let k = Array.length ms in
      if k < 2 then acc
      else
        let c = combos ms.(0) in
        if c <= 1.0 then acc
        else begin
          (* log2 C(c+k-1, k): ordered tuples collapse to multisets *)
          let lg = ref 0.0 in
          for i = 1 to k do
            lg := !lg +. Float.log2 ((c -. 1.0 +. float_of_int i) /. float_of_int i)
          done;
          acc +. ((float_of_int k *. Float.log2 c) -. !lg)
        end)
    0.0 t.orbits
