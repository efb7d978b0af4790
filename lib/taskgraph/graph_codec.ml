let variants_to_string vs =
  String.concat "," (List.map Kinds.proc_kind_to_string vs)

let pattern_fields = function
  | Pattern.Same_shard -> "pattern=same"
  | Pattern.Halo { frac } -> Printf.sprintf "pattern=halo:%.17g" frac

let to_string (g : Graph.t) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "graph %s iterations=%d\n" g.Graph.gname g.Graph.iterations);
  Array.iter
    (fun (t : Graph.task) ->
      Buffer.add_string buf
        (Printf.sprintf "task %s group=%d variants=%s flops=%.17g cpu_eff=%.17g gpu_eff=%.17g\n"
           t.Graph.tname t.Graph.group_size
           (variants_to_string t.Graph.variants)
           t.Graph.flops t.Graph.cpu_efficiency t.Graph.gpu_efficiency);
      List.iter
        (fun (c : Graph.collection) ->
          Buffer.add_string buf
            (Printf.sprintf "arg %s %s bytes=%.17g mode=%s\n" t.Graph.tname
               c.Graph.cname c.Graph.bytes (Mode.to_string c.Graph.mode)))
        t.Graph.args)
    g.Graph.tasks;
  let name_of cid =
    let c = Graph.collection g cid in
    ((Graph.task g c.Graph.owner).Graph.tname, c.Graph.cname)
  in
  List.iter
    (fun (e : Graph.edge) ->
      let st, sa = name_of e.Graph.src and dt, da = name_of e.Graph.dst in
      Buffer.add_string buf
        (Printf.sprintf "dep %s %s %s %s bytes=%.17g %s carried=%b\n" st sa dt da
           e.Graph.bytes (pattern_fields e.Graph.pattern) e.Graph.carried))
    g.Graph.edges;
  List.iter
    (fun (c1, c2, w) ->
      let t1, a1 = name_of c1 and t2, a2 = name_of c2 in
      Buffer.add_string buf
        (Printf.sprintf "overlap %s %s %s %s bytes=%.17g\n" t1 a1 t2 a2 w))
    g.Graph.overlaps;
  Buffer.contents buf

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* positional tokens (no '=') and key=value fields of a directive line *)
let split_fields _lineno tokens =
  let pos, kv = List.partition (fun tok -> not (String.contains tok '=')) tokens in
  let fields =
    List.map
      (fun tok ->
        let i = String.index tok '=' in
        (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))
      kv
  in
  (pos, fields)

let fget_float lineno fields key ~default =
  match List.assoc_opt key fields with
  | None -> (
      match default with
      | Some d -> d
      | None -> fail "line %d: missing field %s" lineno key)
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> f
      | None -> fail "line %d: %s: bad number %S" lineno key v)

let fget_int lineno fields key =
  match List.assoc_opt key fields with
  | None -> fail "line %d: missing field %s" lineno key
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> i
      | None -> fail "line %d: %s: bad integer %S" lineno key v)

let parse_variants lineno s =
  String.split_on_char ',' s
  |> List.map (fun v ->
         match Kinds.proc_kind_of_string v with
         | Some k -> k
         | None -> fail "line %d: bad processor kind %S" lineno v)

let parse_mode lineno s =
  match String.uppercase_ascii s with
  | "R" -> Mode.Read
  | "W" -> Mode.Write
  | "RW" -> Mode.Read_write
  | _ -> fail "line %d: bad mode %S" lineno s

let parse_pattern lineno s =
  if s = "same" then Pattern.Same_shard
  else
    match String.split_on_char ':' s with
    | [ "halo"; f ] -> (
        match float_of_string_opt f with
        | Some frac -> Pattern.halo ~frac
        | None -> fail "line %d: bad halo fraction %S" lineno f)
    | _ -> fail "line %d: bad pattern %S" lineno s

let of_string s =
  try
    let builder = ref None in
    let tasks : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let args : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
    let b lineno =
      match !builder with
      | Some b -> b
      | None -> fail "line %d: the graph header must come first" lineno
    in
    let task_id lineno name =
      match Hashtbl.find_opt tasks name with
      | Some tid -> tid
      | None -> fail "line %d: unknown task %S" lineno name
    in
    let arg_id lineno task arg =
      match Hashtbl.find_opt args (task, arg) with
      | Some cid -> cid
      | None -> fail "line %d: unknown argument %s/%s" lineno task arg
    in
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        let line = String.trim line in
        if line = "" || line.[0] = '#' then ()
        else
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | "graph" :: name :: rest ->
              if Option.is_some !builder then fail "line %d: duplicate graph header" lineno;
              let _, fields = split_fields lineno rest in
              let iterations =
                match List.assoc_opt "iterations" fields with
                | None -> 1
                | Some v -> (
                    match int_of_string_opt v with
                    | Some n -> n
                    | None -> fail "line %d: bad iterations %S" lineno v)
              in
              builder := Some (Graph.Builder.create ~iterations ~name ())
          | "task" :: name :: rest ->
              let _, fields = split_fields lineno rest in
              let variants =
                match List.assoc_opt "variants" fields with
                | Some v -> parse_variants lineno v
                | None -> Kinds.all_proc_kinds
              in
              let tid =
                Graph.Builder.add_task (b lineno) ~name
                  ~group_size:(fget_int lineno fields "group")
                  ~variants
                  ~flops:(fget_float lineno fields "flops" ~default:None)
                  ~cpu_efficiency:(fget_float lineno fields "cpu_eff" ~default:(Some 1.0))
                  ~gpu_efficiency:(fget_float lineno fields "gpu_eff" ~default:(Some 1.0))
                  ()
              in
              Hashtbl.replace tasks name tid
          | "arg" :: task :: name :: rest ->
              let _, fields = split_fields lineno rest in
              let mode =
                match List.assoc_opt "mode" fields with
                | Some m -> parse_mode lineno m
                | None -> fail "line %d: missing field mode" lineno
              in
              let cid =
                Graph.Builder.add_arg (b lineno) ~task:(task_id lineno task) ~name
                  ~bytes:(fget_float lineno fields "bytes" ~default:None)
                  ~mode
              in
              Hashtbl.replace args (task, name) cid
          | "dep" :: st :: sa :: dt :: da :: rest ->
              let _, fields = split_fields lineno rest in
              let pattern =
                match List.assoc_opt "pattern" fields with
                | Some p -> parse_pattern lineno p
                | None -> Pattern.Same_shard
              in
              let carried =
                match List.assoc_opt "carried" fields with
                | Some v -> (
                    match bool_of_string_opt v with
                    | Some b -> b
                    | None -> fail "line %d: bad carried %S" lineno v)
                | None -> false
              in
              let bytes =
                match List.assoc_opt "bytes" fields with
                | Some v -> (
                    match float_of_string_opt v with
                    | Some f -> Some f
                    | None -> fail "line %d: bad bytes %S" lineno v)
                | None -> None
              in
              Graph.Builder.add_dep ?bytes ~pattern ~carried (b lineno)
                ~src:(arg_id lineno st sa) ~dst:(arg_id lineno dt da)
          | "overlap" :: t1 :: a1 :: t2 :: a2 :: rest ->
              let _, fields = split_fields lineno rest in
              Graph.Builder.add_overlap (b lineno) (arg_id lineno t1 a1)
                (arg_id lineno t2 a2)
                ~bytes:(fget_float lineno fields "bytes" ~default:None)
          | other :: _ -> fail "line %d: unknown directive %S" lineno other
          | [] -> ())
      (String.split_on_char '\n' s);
    match !builder with
    | None -> Error "empty input: no graph header"
    | Some b -> Ok (Graph.Builder.build b)
  with
  | Parse_error e | Graph.Invalid_graph e | Invalid_argument e -> Error e

let round_trip_exn g =
  match of_string (to_string g) with
  | Ok g' -> g'
  | Error e -> failwith ("Graph_codec.round_trip_exn: " ^ e)

let fingerprint g = Digest.to_hex (Digest.string (to_string g))
