let parse_pair ~tag1 ~tag2 s =
  match String.index_opt s tag2 with
  | None -> None
  | Some i ->
      if String.length s = 0 || s.[0] <> tag1 then None
      else
        let a = String.sub s 1 (i - 1) in
        let b = String.sub s (i + 1) (String.length s - i - 1) in
        (match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b when a > 0 && b > 0 -> Some (a, b)
        | _ -> None)

let parse_cross s =
  match String.split_on_char 'x' s with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when a > 0 && b > 0 -> Some (a, b)
      | _ -> None)
  | _ -> None

(* "8x8y9z": x after the first number, y after the second, z at end. *)
let parse_xyz s =
  if String.length s = 0 || s.[String.length s - 1] <> 'z' then None
  else
    let body = String.sub s 0 (String.length s - 1) in
    match String.split_on_char 'x' body with
    | [ a; rest ] -> (
        match String.split_on_char 'y' rest with
        | [ b; c ] -> (
            match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
            | Some a, Some b, Some c when a > 0 && b > 0 && c > 0 -> Some (a, b, c)
            | _ -> None)
        | _ -> None)
    | _ -> None

let pieces_per_node = 4

let arg_array_name (c : Graph.collection) =
  match String.index_opt c.cname '.' with
  | Some i -> String.sub c.cname (i + 1) (String.length c.cname - i - 1)
  | None -> c.cname

(* Hand-written mappers demote data to the CPU or to Zero-Copy only
   while it is small: past 256 KB per shard the slow path would
   dominate, so they keep large data on the fast one (the
   size-conditional logic real custom mappers contain). *)
let zc_max_bytes = 0.25e6

let custom_mapping ?(cpu_tasks = []) ?(zc_arrays = []) g machine =
  let base = Mapping.default_start g machine in
  let small_enough (t : Graph.task) =
    List.for_all (fun (c : Graph.collection) -> c.bytes <= zc_max_bytes) t.args
  in
  let proc (t : Graph.task) =
    if List.mem t.tname cpu_tasks && Graph.has_variant t Kinds.Cpu && small_enough t
    then Kinds.Cpu
    else Mapping.proc_of base t.tid
  in
  Mapping.make g
    ~distribute:(fun t -> Mapping.distribute_of base t.tid)
    ~proc
    ~mem:(fun c ->
      let k = proc (Graph.task g c.owner) in
      let wanted =
        if List.mem (arg_array_name c) zc_arrays && c.bytes <= zc_max_bytes then
          Kinds.Zero_copy
        else Mapping.mem_of base c.cid
      in
      if Kinds.accessible k wanted then wanted
      else
        match Kinds.accessible_mem_kinds k with
        | m :: _ -> m
        | [] -> wanted)
