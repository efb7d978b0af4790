let canonical_key g m =
  let tids = Array.init (Graph.n_tasks g) Fun.id in
  let cids = Array.init (Graph.n_collections g) Fun.id in
  let buf = Buffer.create 64 in
  Array.iter
    (fun tid -> Buffer.add_char buf (if Mapping.distribute_of m tid then 'D' else 'L'))
    tids;
  Buffer.add_char buf '|';
  Array.iter
    (fun tid ->
      Buffer.add_char buf
        (match Mapping.strategy_of m tid with Mapping.Blocked -> 'B' | Mapping.Cyclic -> 'Y'))
    tids;
  Buffer.add_char buf '|';
  Array.iter
    (fun tid ->
      Buffer.add_char buf
        (match Mapping.proc_of m tid with Kinds.Cpu -> 'C' | Kinds.Gpu -> 'G'))
    tids;
  Buffer.add_char buf '|';
  Array.iter
    (fun cid ->
      Buffer.add_char buf
        (match Mapping.mem_of m cid with
        | Kinds.System -> 'S'
        | Kinds.Zero_copy -> 'Z'
        | Kinds.Frame_buffer -> 'F'))
    cids;
  Buffer.contents buf
