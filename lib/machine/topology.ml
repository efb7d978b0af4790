type family =
  | Grid of { w : int; h : int; wrap : bool }
  | Fattree of { levels : int; arity : int }
  | Direct
  | Custom

type link = {
  lid : int;
  lsrc : int;
  ldst : int;
  lbw : float;
  llat : float;
}

type t = {
  family : family;
  tname : string;
  n_nodes : int;
  n_vertices : int;
  links : link array;
  contended : bool;
  diameter : int;
  bisection_bw : float;
  side_arr : int array;
  base_bw : float;
  base_lat : float;
  (* fat-tree routing helpers: [ft_pow.(j)] = arity^j, [ft_up_off.(j)]
     = first up-link id of level j, [ft_total_up] = count of up links
     (down links mirror them after this offset).  Empty for other
     families. *)
  ft_pow : int array;
  ft_up_off : int array;
  ft_total_up : int;
  (* Custom routing: [next.(v * n_nodes + d)] = link id of the first
     hop from vertex [v] toward node [d] (-1 unreachable);
     [ndist.(s * n_nodes + d)] = hop distance between nodes.  Empty
     for generated families (they route arithmetically). *)
  next : int array;
  ndist : int array;
}

let family t = t.family
let name t = t.tname
let n_nodes t = t.n_nodes
let n_vertices t = t.n_vertices
let n_links t = Array.length t.links
let links t = t.links
let contended t = t.contended
let diameter t = t.diameter
let bisection_bw t = t.bisection_bw
let side t n = t.side_arr.(n)

let with_contention t on = if t.contended = on then t else { t with contended = on }

let check_rates ~link_bw ~link_latency =
  if link_bw <= 0.0 then invalid_arg "Topology: link_bw must be positive";
  if link_latency < 0.0 then invalid_arg "Topology: link_latency must be non-negative"

(* hard cap on generated sizes: 10^6 nodes is already far past the
   10^4-processor roadmap target, and guards the int arithmetic.  Every
   size check below divides instead of multiplying, so no product of
   untrusted dimensions can overflow past it. *)
let max_gen_nodes = 1_000_000

(* ------------------------------------------------------------------ *)
(* Grid / torus                                                        *)
(* ------------------------------------------------------------------ *)

(* Link-id layout, mesh (wrap = false):
     east  (x,y)->(x+1,y)            id =              y*(w-1) + x
     west  (x+1,y)->(x,y)            id = h*(w-1)    + y*(w-1) + x
     south (x,y)->(x,y+1)            id = 2h*(w-1)   + x*(h-1) + y
     north (x,y+1)->(x,y)            id = 2h*(w-1) + w*(h-1) + x*(h-1) + y
   torus (wrap = true, all coordinates mod w/h):
     east  id = y*w + x    west  id = hw + y*w + x
     south id = 2hw + x*h + y      north id = 2hw + wh + x*h + y *)
let grid ~w ~h ?(wrap = false) ~link_bw ~link_latency () =
  if w < 1 || h < 1 then invalid_arg "Topology.grid: dimensions must be >= 1";
  if wrap && (w < 2 || h < 2) then
    invalid_arg "Topology.grid: torus dimensions must be >= 2";
  if w > max_gen_nodes / h then invalid_arg "Topology.grid: too many nodes";
  check_rates ~link_bw ~link_latency;
  let n = w * h in
  let node x y = (y * w) + x in
  let mk lid lsrc ldst = { lid; lsrc; ldst; lbw = link_bw; llat = link_latency } in
  let links =
    if wrap then begin
      let a = Array.make (4 * n) (mk 0 0 0) in
      for y = 0 to h - 1 do
        for x = 0 to w - 1 do
          let e = (y * w) + x in
          a.(e) <- mk e (node x y) (node ((x + 1) mod w) y);
          let wl = (h * w) + e in
          a.(wl) <- mk wl (node x y) (node ((x + w - 1) mod w) y);
          let s = (2 * h * w) + (x * h) + y in
          a.(s) <- mk s (node x y) (node x ((y + 1) mod h));
          let nl = (2 * h * w) + (w * h) + (x * h) + y in
          a.(nl) <- mk nl (node x y) (node x ((y + h - 1) mod h))
        done
      done;
      a
    end
    else begin
      let nl = 2 * ((h * (w - 1)) + (w * (h - 1))) in
      let a = Array.make (max nl 1) (mk 0 0 0) in
      for y = 0 to h - 1 do
        for x = 0 to w - 2 do
          let e = (y * (w - 1)) + x in
          a.(e) <- mk e (node x y) (node (x + 1) y);
          let wl = (h * (w - 1)) + e in
          a.(wl) <- mk wl (node (x + 1) y) (node x y)
        done
      done;
      for x = 0 to w - 1 do
        for y = 0 to h - 2 do
          let s = (2 * h * (w - 1)) + (x * (h - 1)) + y in
          a.(s) <- mk s (node x y) (node x (y + 1));
          let nb = (2 * h * (w - 1)) + (w * (h - 1)) + (x * (h - 1)) + y in
          a.(nb) <- mk nb (node x (y + 1)) (node x y)
        done
      done;
      if nl = 0 then [||] else a
    end
  in
  (* canonical bisection: cut the larger dimension at its midpoint;
     tori cross the cut twice (midpoint and wrap-around) *)
  let side_arr = Array.make n 0 in
  let bisection_bw =
    if w >= h && w >= 2 then begin
      let cx = w / 2 in
      for y = 0 to h - 1 do
        for x = cx to w - 1 do
          side_arr.(node x y) <- 1
        done
      done;
      float_of_int ((if wrap then 4 else 2) * h) *. link_bw
    end
    else if h >= 2 then begin
      let cy = h / 2 in
      for y = cy to h - 1 do
        for x = 0 to w - 1 do
          side_arr.(node x y) <- 1
        done
      done;
      float_of_int ((if wrap then 4 else 2) * w) *. link_bw
    end
    else 0.0
  in
  let diameter = if wrap then (w / 2) + (h / 2) else w - 1 + (h - 1) in
  {
    family = Grid { w; h; wrap };
    tname = Printf.sprintf "%s:%dx%d" (if wrap then "torus" else "grid") w h;
    n_nodes = n;
    n_vertices = n;
    links;
    contended = true;
    diameter;
    bisection_bw;
    side_arr;
    base_bw = link_bw;
    base_lat = link_latency;
    ft_pow = [||];
    ft_up_off = [||];
    ft_total_up = 0;
    next = [||];
    ndist = [||];
  }

(* ------------------------------------------------------------------ *)
(* Fat-tree                                                            *)
(* ------------------------------------------------------------------ *)

let fattree ~levels ~arity ~link_bw ~link_latency =
  if levels < 1 then invalid_arg "Topology.fattree: levels must be >= 1";
  if arity < 2 then invalid_arg "Topology.fattree: arity must be >= 2";
  check_rates ~link_bw ~link_latency;
  (* checked before anything [levels]-sized is allocated *)
  let rec fits j p =
    j > levels || (p <= max_gen_nodes / arity && fits (j + 1) (p * arity))
  in
  if not (fits 1 1) then invalid_arg "Topology.fattree: too many nodes";
  let pow = Array.make (levels + 1) 1 in
  for j = 1 to levels do
    pow.(j) <- pow.(j - 1) * arity
  done;
  let n = pow.(levels) in
  (* vertex ids: leaves [0,n), then switch levels bottom-up *)
  let lvl_off = Array.make (levels + 1) 0 in
  (* lvl_off.(0) = 0 (leaves); lvl_off.(j) = first vertex of level j *)
  lvl_off.(1) <- n;
  for j = 2 to levels do
    lvl_off.(j) <- lvl_off.(j - 1) + pow.(levels - j + 1)
  done;
  let n_vertices = lvl_off.(levels) + pow.(0) in
  (* up links of level j: one per level-(j-1) vertex, child index c *)
  let up_off = Array.make (levels + 1) 0 in
  for j = 2 to levels do
    up_off.(j) <- up_off.(j - 1) + pow.(levels - j + 2)
  done;
  let total_up = up_off.(levels) + pow.(1) in
  let vertex_of ~level ~idx = if level = 0 then idx else lvl_off.(level) + idx in
  let dummy = { lid = 0; lsrc = 0; ldst = 0; lbw = link_bw; llat = link_latency } in
  let links = Array.make (2 * total_up) dummy in
  for j = 1 to levels do
    let bw = link_bw *. float_of_int pow.(j - 1) in
    for c = 0 to pow.(levels - j + 1) - 1 do
      let child = vertex_of ~level:(j - 1) ~idx:c in
      let parent = vertex_of ~level:j ~idx:(c / arity) in
      let up = up_off.(j) + c in
      links.(up) <- { lid = up; lsrc = child; ldst = parent; lbw = bw; llat = link_latency };
      let down = total_up + up in
      links.(down) <-
        { lid = down; lsrc = parent; ldst = child; lbw = bw; llat = link_latency }
    done
  done;
  (* bisection: split by top-level subtree; crossing traffic transits
     the root's up+down links of the first-side children *)
  let side_arr = Array.init n (fun leaf -> if leaf / pow.(levels - 1) < (arity + 1) / 2 then 0 else 1) in
  let c0 = (arity + 1) / 2 in
  let bisection_bw =
    2.0 *. float_of_int c0 *. (link_bw *. float_of_int pow.(levels - 1))
  in
  {
    family = Fattree { levels; arity };
    tname = Printf.sprintf "fattree:%d:%d" levels arity;
    n_nodes = n;
    n_vertices;
    links;
    contended = true;
    diameter = 2 * levels;
    bisection_bw;
    side_arr;
    base_bw = link_bw;
    base_lat = link_latency;
    ft_pow = pow;
    ft_up_off = up_off;
    ft_total_up = total_up;
    next = [||];
    ndist = [||];
  }

(* ------------------------------------------------------------------ *)
(* Direct (degenerate)                                                 *)
(* ------------------------------------------------------------------ *)

let direct ~nodes ~link_bw ~link_latency =
  if nodes < 1 then invalid_arg "Topology.direct: nodes must be >= 1";
  if nodes > max_gen_nodes then invalid_arg "Topology.direct: too many nodes";
  check_rates ~link_bw ~link_latency;
  let links =
    Array.init nodes (fun i ->
        { lid = i; lsrc = i; ldst = nodes; lbw = link_bw; llat = link_latency })
  in
  {
    family = Direct;
    tname = Printf.sprintf "direct:%d" nodes;
    n_nodes = nodes;
    n_vertices = nodes + 1;
    links;
    contended = true;
    diameter = (if nodes > 1 then 1 else 0);
    bisection_bw = 0.0;
    side_arr = Array.make nodes 0;
    base_bw = link_bw;
    base_lat = link_latency;
    ft_pow = [||];
    ft_up_off = [||];
    ft_total_up = 0;
    next = [||];
    ndist = [||];
  }

(* ------------------------------------------------------------------ *)
(* Custom (BFS route tables)                                           *)
(* ------------------------------------------------------------------ *)

let custom ~name ~n_nodes ?n_vertices ~links:link_list () =
  if n_nodes < 1 then invalid_arg "Topology.custom: n_nodes must be >= 1";
  let n_vertices = Option.value n_vertices ~default:n_nodes in
  if n_vertices < n_nodes then
    invalid_arg "Topology.custom: n_vertices must be >= n_nodes";
  (* the next-hop table has n_vertices * n_nodes entries *)
  if n_vertices > max_gen_nodes / n_nodes then
    invalid_arg "Topology.custom: route table too large";
  let links =
    Array.of_list
      (List.mapi
         (fun lid (lsrc, ldst, lbw, llat) ->
           if lsrc < 0 || lsrc >= n_vertices || ldst < 0 || ldst >= n_vertices then
             invalid_arg "Topology.custom: link endpoint out of range";
           { lid; lsrc; ldst; lbw; llat })
         link_list)
  in
  let nl = Array.length links in
  (* per-vertex outgoing adjacency, in link-id order (determinism) *)
  let out_cnt = Array.make (n_vertices + 1) 0 in
  Array.iter (fun l -> out_cnt.(l.lsrc) <- out_cnt.(l.lsrc) + 1) links;
  let out_off = Array.make (n_vertices + 1) 0 in
  for v = 0 to n_vertices - 1 do
    out_off.(v + 1) <- out_off.(v) + out_cnt.(v)
  done;
  let out_lids = Array.make (max nl 1) 0 in
  let fill = Array.make n_vertices 0 in
  for lid = 0 to nl - 1 do
    let v = links.(lid).lsrc in
    out_lids.(out_off.(v) + fill.(v)) <- lid;
    fill.(v) <- fill.(v) + 1
  done;
  (* reverse adjacency for the per-destination BFS *)
  let in_cnt = Array.make (n_vertices + 1) 0 in
  Array.iter (fun l -> in_cnt.(l.ldst) <- in_cnt.(l.ldst) + 1) links;
  let in_off = Array.make (n_vertices + 1) 0 in
  for v = 0 to n_vertices - 1 do
    in_off.(v + 1) <- in_off.(v) + in_cnt.(v)
  done;
  let in_lids = Array.make (max nl 1) 0 in
  Array.fill fill 0 n_vertices 0;
  for lid = 0 to nl - 1 do
    let v = links.(lid).ldst in
    in_lids.(in_off.(v) + fill.(v)) <- lid;
    fill.(v) <- fill.(v) + 1
  done;
  let next = Array.make (n_vertices * n_nodes) (-1) in
  let ndist = Array.make (n_nodes * n_nodes) (-1) in
  let dist = Array.make n_vertices (-1) in
  let queue = Array.make n_vertices 0 in
  for d = 0 to n_nodes - 1 do
    Array.fill dist 0 n_vertices (-1);
    dist.(d) <- 0;
    queue.(0) <- d;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      for j = in_off.(v) to in_off.(v + 1) - 1 do
        let u = links.(in_lids.(j)).lsrc in
        if dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          queue.(!tail) <- u;
          incr tail
        end
      done
    done;
    for v = 0 to n_vertices - 1 do
      if v <> d && dist.(v) > 0 then begin
        (* first outgoing link (smallest lid) that makes progress *)
        let chosen = ref (-1) in
        let j = ref out_off.(v) in
        while !chosen < 0 && !j < out_off.(v + 1) do
          let lid = out_lids.(!j) in
          let u = links.(lid).ldst in
          if dist.(u) = dist.(v) - 1 then chosen := lid else incr j
        done;
        next.((v * n_nodes) + d) <- !chosen
      end
    done;
    for s = 0 to n_nodes - 1 do
      ndist.((s * n_nodes) + d) <- dist.(s)
    done
  done;
  let diameter = Array.fold_left (fun acc d -> if d > acc then d else acc) 0 ndist in
  {
    family = Custom;
    tname = name;
    n_nodes;
    n_vertices;
    links;
    contended = true;
    diameter;
    bisection_bw = 0.0;
    side_arr = Array.make n_nodes 0;
    base_bw = (if nl > 0 then links.(0).lbw else 1.0);
    base_lat = (if nl > 0 then links.(0).llat else 0.0);
    ft_pow = [||];
    ft_up_off = [||];
    ft_total_up = 0;
    next;
    ndist;
  }

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let distance t ~src ~dst =
  if src = dst then 0
  else
    match t.family with
    | Grid { w; h; wrap } ->
        let sx = src mod w and sy = src / w in
        let dx = dst mod w and dy = dst / w in
        if wrap then
          let ex = abs (dx - sx) in
          let ey = abs (dy - sy) in
          min ex (w - ex) + min ey (h - ey)
        else abs (dx - sx) + abs (dy - sy)
    | Fattree _ ->
        let pow = t.ft_pow in
        let j = ref 1 in
        while src / pow.(!j) <> dst / pow.(!j) do
          incr j
        done;
        2 * !j
    | Direct -> 1
    | Custom -> t.ndist.((src * t.n_nodes) + dst)

(* The one routing primitive: every route, the simulator's per-copy
   walks included, comes from here.  The link ids go into the caller's
   buffer, so a walk allocates nothing and a buffer owned by one
   simulator scratch is never shared between domains. *)
let route_links t ~src ~dst buf =
  let n = ref 0 in
  if src <> dst then begin
    match t.family with
    | Grid { w; h; wrap = false } ->
        (* along row [sy] to column [tx], then along column [tx] *)
        let sx = src mod w and sy = src / w and tx = dst mod w and ty = dst / w in
        let nx = abs (tx - sx) and ny = abs (ty - sy) in
        for i = 0 to nx - 1 do
          buf.(i) <-
            (if tx > sx then (sy * (w - 1)) + sx + i
             else (h * (w - 1)) + (sy * (w - 1)) + sx - 1 - i)
        done;
        for i = 0 to ny - 1 do
          buf.(nx + i) <-
            (if ty > sy then (2 * h * (w - 1)) + (tx * (h - 1)) + sy + i
             else (2 * h * (w - 1)) + (w * (h - 1)) + (tx * (h - 1)) + sy - 1 - i)
        done;
        n := nx + ny
    | Grid { w; h; wrap = true } ->
        (* the shorter way round each ring, eastward or southward on a
           tie: [de] and [ds] are the eastward and southward distances *)
        let sx = src mod w and sy = src / w and tx = dst mod w and ty = dst / w in
        let de = (tx - sx + w) mod w and ds = (ty - sy + h) mod h in
        let nx = min de (w - de) and ny = min ds (h - ds) in
        for i = 0 to nx - 1 do
          buf.(i) <-
            (if de <= w - de then (sy * w) + ((sx + i) mod w)
             else (h * w) + (sy * w) + ((sx - i + w) mod w))
        done;
        for i = 0 to ny - 1 do
          buf.(nx + i) <-
            (if ds <= h - ds then (2 * h * w) + (tx * h) + ((sy + i) mod h)
             else (2 * h * w) + (w * h) + (tx * h) + ((sy - i + h) mod h))
        done;
        n := nx + ny
    | Fattree _ ->
        (* up to the lowest common ancestor, at level [jstar], and down *)
        let pow = t.ft_pow and up_off = t.ft_up_off in
        let jstar = ref 1 in
        while src / pow.(!jstar) <> dst / pow.(!jstar) do
          incr jstar
        done;
        for j = 1 to !jstar do
          buf.(j - 1) <- up_off.(j) + (src / pow.(j - 1));
          buf.((2 * !jstar) - j) <- t.ft_total_up + up_off.(j) + (dst / pow.(j - 1))
        done;
        n := 2 * !jstar
    | Direct ->
        buf.(0) <- src;
        n := 1
    | Custom ->
        let v = ref src in
        while !v <> dst do
          let lid = t.next.((!v * t.n_nodes) + dst) in
          if lid < 0 then invalid_arg "Topology.route_links: unreachable pair";
          buf.(!n) <- lid;
          incr n;
          v := t.links.(lid).ldst
        done
  end;
  !n

let route_iter t ~src ~dst ~f =
  let buf = Array.make t.diameter 0 in
  for i = 0 to route_links t ~src ~dst buf - 1 do f t.links.(buf.(i)) done

let route t ~src ~dst =
  let buf = Array.make t.diameter 0 in
  List.init (route_links t ~src ~dst buf) (fun i -> t.links.(buf.(i)))

(* ------------------------------------------------------------------ *)
(* Lint queries                                                        *)
(* ------------------------------------------------------------------ *)

let unreachable_pairs t =
  match t.family with
  | Custom ->
      let n = ref 0 in
      Array.iter (fun d -> if d < 0 then incr n) t.ndist;
      !n
  | _ -> 0

let zero_bw_links t =
  Array.to_list t.links
  |> List.filter_map (fun l -> if l.lbw <= 0.0 then Some l.lid else None)

(* ------------------------------------------------------------------ *)
(* Spec codec                                                          *)
(* ------------------------------------------------------------------ *)

let to_spec t =
  match t.family with
  | Custom -> None
  | _ -> Some (if t.contended then t.tname else t.tname ^ ":free")

let of_spec s ~link_bw ~link_latency =
  let err () = Error (Printf.sprintf "bad topology spec %S" s) in
  let parts = String.split_on_char ':' (String.lowercase_ascii (String.trim s)) in
  let parts, free =
    match List.rev parts with
    | "free" :: rest -> (List.rev rest, true)
    | _ -> (parts, false)
  in
  let dims str =
    match String.split_on_char 'x' str with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some w, Some h -> Some (w, h)
        | _ -> None)
    | _ -> None
  in
  let build () =
    match parts with
    | [ "grid"; d ] -> (
        match dims d with
        | Some (w, h) -> Ok (grid ~w ~h ~link_bw ~link_latency ())
        | None -> err ())
    | [ "torus"; d ] -> (
        match dims d with
        | Some (w, h) -> Ok (grid ~w ~h ~wrap:true ~link_bw ~link_latency ())
        | None -> err ())
    | [ "fattree"; l; a ] -> (
        match (int_of_string_opt l, int_of_string_opt a) with
        | Some levels, Some arity -> Ok (fattree ~levels ~arity ~link_bw ~link_latency)
        | _ -> err ())
    | [ "direct"; n ] -> (
        match int_of_string_opt n with
        | Some nodes -> Ok (direct ~nodes ~link_bw ~link_latency)
        | None -> err ())
    | _ -> err ()
  in
  match build () with
  | Ok t -> Ok (if free then with_contention t false else t)
  | Error _ as e -> e
  | exception Invalid_argument m -> Error m

let equal_structure a b =
  a.family = b.family && a.n_nodes = b.n_nodes && a.n_vertices = b.n_vertices
  && a.contended = b.contended && a.links = b.links
