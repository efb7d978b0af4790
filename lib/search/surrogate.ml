(* Feature-hashed linear regression on log-makespan, trained online
   from the engine's exact evaluations (DESIGN.md §12).

   Everything is derived from the mapping and the graph — never from a
   simulation — so a prediction costs a few hundred integer hashes and
   float multiplies.  The feature schema (stable, versioned by the
   save-format header):

     bias                                            value 1
     (task kind, proc kind)                          value work share
     (task kind, distribution × strategy)            value work share
     (task kind, proc kind) × proc-domain size       value log2 |domain|
     (collection kind, mem kind)                     value size share
     (collection kind, mem kind) × mem-domain size   value log2 |domain|
     task kind differs from incumbent                value 1
     collection kind differs from incumbent          value 1
     diff cardinality vs incumbent                   value |diff|

   "Kind" is the task/collection *name* (every shard of a group task
   shares one coordinate already), so same-named coordinates share
   weights — the generalization that lets ~100 observations order a
   128-bit space.  Work/size shares are log-scaled, max-normalized and
   floored at 1/8 so every coordinate keeps a live gradient.  Indices
   are FNV-1a hashes folded into [dims] buckets; collisions just share
   a weight (standard hashing-trick behaviour, harmless for ranking).

   Updates are SGD with AdaGrad-style per-feature step sizes on the
   clipped residual in log space; bounded evaluations train on their
   certified loser value (a lower bound — see the .mli).  The
   (predicted, actual) ring buffer behind [spearman] is telemetry
   only: it never influences a rank. *)

type t = {
  graph : Graph.t;
  gid : int;  (* fnv1a of graph name, for the save-format header *)
  mid : int;  (* fnv1a of machine name *)
  w : float array;   (* dims weights *)
  g2 : float array;  (* dims squared-gradient accumulators *)
  (* per-coordinate constants, precomputed at create *)
  task_h : int array;
  col_h : int array;
  task_wt : float array;
  col_wt : float array;
  task_dom : float array;
  col_dom : float array;
  (* sparse feature scratch *)
  fx : float array;     (* dims *)
  touched : int array;
  mutable n_touched : int;
  mutable reference : Mapping.t option;
  (* counters *)
  mutable trained : int;
  mutable reranks : int;
  (* (predicted, actual) ring buffer for the rank-correlation window *)
  win_pred : float array;
  win_act : float array;
  mutable win_n : int;
  mutable win_i : int;
}

let mask = 0x3FFFFFFF

let fnv1a s =
  let h = ref 0x811C9DC5 in
  String.iter (fun c -> h := ((!h lxor Char.code c) * 0x01000193) land mask) s;
  !h

let mix h k = (((h lxor (k * 0x9E3779B1)) + 0x85EBCA6B) * 0x01000193) land mask

(* hashed feature-vector width, base learning rate, and size of the
   (predicted, actual) ring buffer behind [spearman] *)
let dims = 512
let eta = 0.3
let window = 64

let create space =
  let g = Space.graph space in
  let machine = Space.machine space in
  let n_tasks = Graph.n_tasks g and n_cols = Graph.n_collections g in
  let task_h = Array.make n_tasks 0 and col_h = Array.make (max 1 n_cols) 0 in
  let task_wt = Array.make n_tasks 0.0 and col_wt = Array.make (max 1 n_cols) 0.0 in
  let task_dom = Array.make n_tasks 0.0 and col_dom = Array.make (max 1 n_cols) 0.0 in
  Array.iter
    (fun (task : Graph.task) ->
      task_h.(task.tid) <- fnv1a task.tname;
      task_wt.(task.tid) <- log1p (task.flops *. float_of_int task.group_size);
      task_dom.(task.tid) <-
        log (1.0 +. float_of_int (List.length (Space.proc_choices space task.tid)));
      List.iter
        (fun (c : Graph.collection) ->
          col_h.(c.cid) <- fnv1a (task.tname ^ "." ^ c.cname);
          col_wt.(c.cid) <- log1p (c.bytes *. float_of_int task.group_size);
          let dom =
            List.fold_left
              (fun acc k ->
                max acc (List.length (Space.mem_choices_for space ~cid:c.cid k)))
              0
              (Space.proc_choices space task.tid)
          in
          col_dom.(c.cid) <- log (1.0 +. float_of_int dom))
        task.args)
    g.Graph.tasks;
  (* max-normalize the work/size shares, floored so every coordinate
     keeps a live gradient *)
  let norm a =
    let m = Array.fold_left max 0.0 a in
    Array.iteri (fun i v -> a.(i) <- 0.125 +. (if m > 0.0 then v /. m else 0.0)) a
  in
  norm task_wt;
  norm col_wt;
  {
    graph = g;
    gid = fnv1a g.Graph.gname;
    mid = fnv1a machine.Machine.name;
    w = Array.make dims 0.0;
    g2 = Array.make dims 0.0;
    task_h;
    col_h;
    task_wt;
    col_wt;
    task_dom;
    col_dom;
    fx = Array.make dims 0.0;
    touched = Array.make (2 + (4 * n_tasks) + (3 * max 1 n_cols)) 0;
    n_touched = 0;
    reference = None;
    trained = 0;
    reranks = 0;
    win_pred = Array.make window 0.0;
    win_act = Array.make window 0.0;
    win_n = 0;
    win_i = 0;
  }

let graph t = t.graph
let trained t = t.trained
let reranks t = t.reranks
let note_incumbent t m = t.reference <- Some m

(* ---- feature extraction ------------------------------------------------- *)

let clear t =
  for i = 0 to t.n_touched - 1 do
    t.fx.(t.touched.(i)) <- 0.0
  done;
  t.n_touched <- 0

let add t h v =
  let idx = h mod dims in
  if t.fx.(idx) = 0.0 then begin
    t.touched.(t.n_touched) <- idx;
    t.n_touched <- t.n_touched + 1
  end;
  t.fx.(idx) <- t.fx.(idx) +. v

let extract t m =
  clear t;
  add t 0x811C9DC5 1.0;
  for tid = 0 to Array.length t.task_h - 1 do
    let th = t.task_h.(tid) in
    let p = Kinds.rank_proc (Mapping.proc_of m tid) in
    let d =
      (if Mapping.distribute_of m tid then 2 else 0)
      + (match Mapping.strategy_of m tid with Mapping.Blocked -> 0 | Mapping.Cyclic -> 1)
    in
    add t (mix (mix th 1) p) t.task_wt.(tid);
    add t (mix (mix th 2) d) t.task_wt.(tid);
    add t (mix (mix th 3) p) t.task_dom.(tid)
  done;
  for cid = 0 to Graph.n_collections t.graph - 1 do
    let ch = t.col_h.(cid) in
    let r = Kinds.rank_mem (Mapping.mem_of m cid) in
    add t (mix (mix ch 4) r) t.col_wt.(cid);
    add t (mix (mix ch 5) r) t.col_dom.(cid)
  done;
  match t.reference with
  | None -> ()
  | Some incumbent ->
      let tids, cids = Mapping.diff incumbent m in
      List.iter (fun tid -> add t (mix t.task_h.(tid) 6) 1.0) tids;
      List.iter (fun cid -> add t (mix t.col_h.(cid) 7) 1.0) cids;
      let n = List.length tids + List.length cids in
      if n > 0 then add t (mix 0x2545F491 8) (float_of_int n)

let dot t =
  let acc = ref 0.0 in
  for i = 0 to t.n_touched - 1 do
    let idx = t.touched.(i) in
    acc := !acc +. (t.w.(idx) *. t.fx.(idx))
  done;
  !acc

let predict t m =
  extract t m;
  dot t

let features t m =
  extract t m;
  let l = ref [] in
  for i = 0 to t.n_touched - 1 do
    let idx = t.touched.(i) in
    l := (idx, t.fx.(idx)) :: !l
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) !l

(* ---- training ----------------------------------------------------------- *)

let observe t m perf =
  if Float.is_finite perf && perf > 0.0 then begin
    extract t m;
    let pred = dot t in
    let y = log perf in
    let err = pred -. y in
    let err = if err > 10.0 then 10.0 else if err < -10.0 then -10.0 else err in
    for i = 0 to t.n_touched - 1 do
      let idx = t.touched.(i) in
      let gr = err *. t.fx.(idx) in
      t.g2.(idx) <- t.g2.(idx) +. (gr *. gr);
      t.w.(idx) <- t.w.(idx) -. (eta *. gr /. sqrt (1.0 +. t.g2.(idx)))
    done;
    t.trained <- t.trained + 1;
    t.win_pred.(t.win_i) <- pred;
    t.win_act.(t.win_i) <- y;
    t.win_i <- (t.win_i + 1) mod window;
    if t.win_n < window then t.win_n <- t.win_n + 1
  end

(* ---- ranking ------------------------------------------------------------ *)

let rank t cands =
  let n = Array.length cands in
  let perm = Array.init n (fun i -> i) in
  if n > 1 then begin
    let preds = Array.map (fun m -> predict t m) cands in
    Array.sort
      (fun a b ->
        let c = compare preds.(a) preds.(b) in
        if c <> 0 then c else compare a b)
      perm;
    t.reranks <- t.reranks + 1
  end;
  perm

(* ---- rank correlation --------------------------------------------------- *)

let spearman t =
  let n = t.win_n in
  if n < 8 then Float.nan
  else begin
    (* Pearson correlation of the rank sequences (ties keep insertion
       order — fine for a telemetry estimate) *)
    let slot j = (t.win_i - n + j + (2 * window)) mod window in
    let ranks_of arr =
      let idx = Array.init n (fun j -> j) in
      Array.sort
        (fun a b ->
          let c = compare arr.(slot a) arr.(slot b) in
          if c <> 0 then c else compare a b)
        idx;
      let r = Array.make n 0.0 in
      Array.iteri (fun pos j -> r.(j) <- float_of_int pos) idx;
      r
    in
    let rp = ranks_of t.win_pred and ra = ranks_of t.win_act in
    let mean = (float_of_int n -. 1.0) /. 2.0 in
    let num = ref 0.0 and dp = ref 0.0 and da = ref 0.0 in
    for j = 0 to n - 1 do
      let x = rp.(j) -. mean and y = ra.(j) -. mean in
      num := !num +. (x *. y);
      dp := !dp +. (x *. x);
      da := !da +. (y *. y)
    done;
    if !dp = 0.0 || !da = 0.0 then 0.0 else !num /. sqrt (!dp *. !da)
  end

(* ---- checkpoint codec --------------------------------------------------- *)

(* The layout keeps the two fields skim mode used to fill: the
   header's [-] (no skim) and a skips counter that is always 0, so
   envelopes written while skim mode existed restore unchanged. *)
let header t =
  Printf.sprintf "surrogate 1 %d %d %s - %d %d" dims window (Codec.hex_of_float eta)
    t.gid t.mid

let save t =
  let lines = ref [] in
  let out l = lines := l :: !lines in
  out (header t);
  out (Printf.sprintf "counters %d %d 0" t.trained t.reranks);
  out
    (match t.reference with
    | None -> "ref none"
    | Some m -> "ref " ^ Mapping.canonical_key m);
  let nw = ref 0 in
  for i = 0 to dims - 1 do
    if t.w.(i) <> 0.0 || t.g2.(i) <> 0.0 then incr nw
  done;
  out (Printf.sprintf "weights %d" !nw);
  for i = 0 to dims - 1 do
    if t.w.(i) <> 0.0 || t.g2.(i) <> 0.0 then
      out
        (Printf.sprintf "w %d %s %s" i
           (Codec.hex_of_float t.w.(i))
           (Codec.hex_of_float t.g2.(i)))
  done;
  out (Printf.sprintf "window %d" t.win_n);
  let slot j = (t.win_i - t.win_n + j + (2 * window)) mod window in
  for j = 0 to t.win_n - 1 do
    out
      (Printf.sprintf "s %s %s"
         (Codec.hex_of_float t.win_pred.(slot j))
         (Codec.hex_of_float t.win_act.(slot j)))
  done;
  List.rev !lines

let restore t lines =
  let fail fmt = Printf.ksprintf (fun m -> Error ("Surrogate.restore: " ^ m)) fmt in
  let ( let* ) = Result.bind in
  let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let take n tag rest =
    let rec go n acc rest =
      if n = 0 then Ok (List.rev acc, rest)
      else
        match rest with
        | l :: rest -> go (n - 1) (l :: acc) rest
        | [] -> fail "truncated %s entries" tag
    in
    go n [] rest
  in
  match lines with
  | hd :: counters :: refl :: rest ->
      let* () =
        match words hd with
        | [ "surrogate"; "1"; _; _; _; skim; _; _ ] when skim <> "-" ->
            fail "checkpoint was written in skim mode (top-%s), and skim mode is gone" skim
        | _ when hd = header t -> Ok ()
        | _ ->
            fail
              "configuration mismatch — checkpoint written with a different model \
               configuration or for a different machine or graph (%S vs %S)"
              hd (header t)
      in
      let* () =
        match words counters with
        | [ "counters"; a; b; c ] -> (
            match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
            | Some a, Some b, Some _ ->
                t.trained <- a;
                t.reranks <- b;
                Ok ()
            | _ -> fail "bad counters line")
        | _ -> fail "bad counters line"
      in
      let* () =
        if refl = "ref none" then begin
          t.reference <- None;
          Ok ()
        end
        else
          match String.index_opt refl ' ' with
          | Some i when String.sub refl 0 i = "ref" -> (
              let key = String.sub refl (i + 1) (String.length refl - i - 1) in
              match Mapping.of_canonical_key t.graph key with
              | Some m ->
                  t.reference <- Some m;
                  Ok ()
              | None -> fail "reference mapping does not parse")
          | _ -> fail "bad ref line"
      in
      let* nw, rest =
        match rest with
        | l :: rest -> (
            match words l with
            | [ "weights"; n ] -> (
                match int_of_string_opt n with
                | Some n when n >= 0 && n <= dims -> Ok (n, rest)
                | _ -> fail "bad weights count")
            | _ -> fail "bad weights line")
        | [] -> fail "missing weights section"
      in
      let* wlines, rest = take nw "weight" rest in
      Array.fill t.w 0 dims 0.0;
      Array.fill t.g2 0 dims 0.0;
      let* () =
        List.fold_left
          (fun acc l ->
            let* () = acc in
            match words l with
            | [ "w"; i; w; g2 ] -> (
                match (int_of_string_opt i, Codec.float_of_hex w, Codec.float_of_hex g2)
                with
                | Some i, Some w, Some g2 when i >= 0 && i < dims ->
                    t.w.(i) <- w;
                    t.g2.(i) <- g2;
                    Ok ()
                | _ -> fail "bad weight entry")
            | _ -> fail "bad weight entry")
          (Ok ()) wlines
      in
      let* wn, rest =
        match rest with
        | l :: rest -> (
            match words l with
            | [ "window"; n ] -> (
                match int_of_string_opt n with
                | Some n when n >= 0 && n <= window -> Ok (n, rest)
                | _ -> fail "bad window count")
            | _ -> fail "bad window line")
        | [] -> fail "missing window section"
      in
      let* slines, rest = take wn "window" rest in
      let* () = if rest = [] then Ok () else fail "trailing lines" in
      Array.fill t.win_pred 0 window 0.0;
      Array.fill t.win_act 0 window 0.0;
      t.win_n <- wn;
      t.win_i <- wn mod window;
      let* _ =
        List.fold_left
          (fun acc l ->
            let* j = acc in
            match words l with
            | [ "s"; p; a ] -> (
                match (Codec.float_of_hex p, Codec.float_of_hex a) with
                | Some p, Some a ->
                    t.win_pred.(j) <- p;
                    t.win_act.(j) <- a;
                    Ok (j + 1)
                | _ -> fail "bad window entry")
            | _ -> fail "bad window entry")
          (Ok 0) slines
      in
      Ok ()
  | _ -> fail "truncated"
