type entry = { mapping : Mapping.t; runs : float list; perf : float }

type t = { tbl : (string, entry) Hashtbl.t }

let create () = { tbl = Hashtbl.create 256 }

(* Keyed variants let a caller that already holds the canonical key (the
   evaluator computes it once per evaluation) skip recomputing it. *)
let find_key t key = Hashtbl.find_opt t.tbl key
let find t m = find_key t (Mapping.canonical_key m)

let record_key t ~key m runs =
  let entry = { mapping = m; runs; perf = Stats.mean runs } in
  Hashtbl.replace t.tbl key entry;
  entry

let record t m runs = record_key t ~key:(Mapping.canonical_key m) m runs

let size t = Hashtbl.length t.tbl

(* Ties break by key: hash-table order does not survive save/load. *)
let top t k =
  Hashtbl.fold (fun key e acc -> (key, e) :: acc) t.tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare a.perf b.perf with 0 -> compare ka kb | c -> c)
  |> List.filteri (fun i _ -> i < k)
  |> List.map snd

let best t = match top t 1 with [] -> None | e :: _ -> Some e

let save t =
  let buf = Buffer.create 1024 in
  Hashtbl.iter
    (fun key e ->
      Buffer.add_string buf key;
      List.iter (fun r -> Buffer.add_string buf (Printf.sprintf " %.17g" r)) e.runs;
      Buffer.add_char buf '\n')
    t.tbl;
  Buffer.contents buf

let load g s =
  let db = create () in
  let error = ref None in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" && !error = None then
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | key :: runs_s -> (
            let runs = List.filter_map float_of_string_opt runs_s in
            if List.length runs <> List.length runs_s || runs = [] then
              error := Some (Printf.sprintf "line %d: bad measurements" (i + 1))
            else
              match Mapping.of_canonical_key g key with
              | Some m ->
                  if Hashtbl.mem db.tbl key then
                    error := Some (Printf.sprintf "line %d: duplicate mapping %s" (i + 1) key)
                  else ignore (record db m runs)
              | None ->
                  error :=
                    Some (Printf.sprintf "line %d: key does not match the graph" (i + 1)))
        | [] -> ())
    (String.split_on_char '\n' s);
  match !error with Some e -> Error e | None -> Ok db
