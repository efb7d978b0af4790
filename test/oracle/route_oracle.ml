let grid ~w ~h ~wrap ~src ~dst =
  let acc = ref [] in
  let f lid = acc := lid :: !acc in
  let x = ref (src mod w) and y = ref (src / w) in
  let tx = dst mod w and ty = dst / w in
  if wrap then begin
    while !x <> tx do
      let de = (tx - !x + w) mod w and dw = (!x - tx + w) mod w in
      if de <= dw then begin
        f ((!y * w) + !x);
        x := (!x + 1) mod w
      end
      else begin
        f ((h * w) + (!y * w) + !x);
        x := (!x + w - 1) mod w
      end
    done;
    while !y <> ty do
      let ds = (ty - !y + h) mod h and dn = (!y - ty + h) mod h in
      if ds <= dn then begin
        f ((2 * h * w) + (!x * h) + !y);
        y := (!y + 1) mod h
      end
      else begin
        f ((2 * h * w) + (w * h) + (!x * h) + !y);
        y := (!y + h - 1) mod h
      end
    done
  end
  else begin
    while !x < tx do
      f ((!y * (w - 1)) + !x);
      incr x
    done;
    while !x > tx do
      f ((h * (w - 1)) + (!y * (w - 1)) + (!x - 1));
      decr x
    done;
    while !y < ty do
      f ((2 * h * (w - 1)) + (!x * (h - 1)) + !y);
      incr y
    done;
    while !y > ty do
      f ((2 * h * (w - 1)) + (w * (h - 1)) + (!x * (h - 1)) + (!y - 1));
      decr y
    done
  end;
  List.rev !acc

(* up links of level j start at up_off.(j), one per level-(j-1)
   vertex; the down links mirror them after all the up links *)
let fattree ~levels ~arity ~src ~dst =
  let pow = Array.make (levels + 1) 1 in
  for j = 1 to levels do
    pow.(j) <- pow.(j - 1) * arity
  done;
  let up_off = Array.make (levels + 1) 0 in
  for j = 2 to levels do
    up_off.(j) <- up_off.(j - 1) + pow.(levels - j + 2)
  done;
  let total_up = up_off.(levels) + pow.(1) in
  let jstar = ref 1 in
  while src / pow.(!jstar) <> dst / pow.(!jstar) do
    incr jstar
  done;
  List.init !jstar (fun i -> up_off.(i + 1) + (src / pow.(i)))
  @ List.init !jstar (fun i ->
        let j = !jstar - i in
        total_up + up_off.(j) + (dst / pow.(j - 1)))

(* hop distances to [dst] over the reversed links, then from [src] the
   smallest-id link that gets one hop closer, vertex by vertex *)
let custom topo ~src ~dst =
  let links = Topology.links topo in
  let dist = Array.make (Topology.n_vertices topo) (-1) in
  dist.(dst) <- 0;
  let q = Queue.create () in
  Queue.add dst q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun l ->
        if l.Topology.ldst = v && dist.(l.Topology.lsrc) < 0 then begin
          dist.(l.Topology.lsrc) <- dist.(v) + 1;
          Queue.add l.Topology.lsrc q
        end)
      links
  done;
  if dist.(src) < 0 then invalid_arg "Route_oracle.route: unreachable pair";
  let rec walk v acc =
    if v = dst then List.rev acc
    else
      let l =
        List.find
          (fun l -> l.Topology.lsrc = v && dist.(l.Topology.ldst) = dist.(v) - 1)
          (Array.to_list links)
      in
      walk l.Topology.ldst (l.Topology.lid :: acc)
  in
  walk src []

let route topo ~src ~dst =
  if src = dst then []
  else
    match Topology.family topo with
    | Topology.Grid { w; h; wrap } -> grid ~w ~h ~wrap ~src ~dst
    | Topology.Fattree { levels; arity } -> fattree ~levels ~arity ~src ~dst
    | Topology.Direct -> [ src ]
    | Topology.Custom -> custom topo ~src ~dst
