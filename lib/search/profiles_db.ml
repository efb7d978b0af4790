type entry = { mapping : Mapping.t; runs : float list; perf : float }

(* Entries ranked by (perf, canonical key) as they are recorded, so
   [top k] walks k elements instead of sorting the table.  Ties break
   by key: hash-table order does not survive save/load. *)
module Ranked = Set.Make (struct
  type t = string * entry

  let compare (ka, a) (kb, b) =
    match Float.compare a.perf b.perf with 0 -> String.compare ka kb | c -> c
end)

type t = { tbl : (string, entry) Hashtbl.t; mutable ranked : Ranked.t }

let create () = { tbl = Hashtbl.create 256; ranked = Ranked.empty }

(* Keyed variants let a caller that already holds the canonical key (the
   evaluator computes it once per evaluation) skip recomputing it. *)
let find_key t key = Hashtbl.find_opt t.tbl key
let find t m = find_key t (Mapping.canonical_key m)

let record_key t ~key m runs =
  let entry = { mapping = m; runs; perf = Stats.mean runs } in
  (match Hashtbl.find_opt t.tbl key with
  | Some old -> t.ranked <- Ranked.remove (key, old) t.ranked
  | None -> ());
  Hashtbl.replace t.tbl key entry;
  t.ranked <- Ranked.add (key, entry) t.ranked;
  entry

let record t m runs = record_key t ~key:(Mapping.canonical_key m) m runs

let size t = Hashtbl.length t.tbl

(* [Seq.take] raises on a negative count, and a checkpoint's elite
   size is untrusted *)
let top t k =
  Ranked.to_seq t.ranked |> Seq.take (max k 0) |> Seq.map snd |> List.of_seq

let best t = match top t 1 with [] -> None | e :: _ -> Some e

let add_line buf key e =
  Buffer.add_string buf key;
  List.iter (fun r -> Buffer.add_string buf (Printf.sprintf " %.17g" r)) e.runs;
  Buffer.add_char buf '\n'

let save t =
  let buf = Buffer.create 1024 in
  Hashtbl.iter (add_line buf) t.tbl;
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
            (* a NaN perf would rank ahead of every measured one *)
            if
              List.length runs <> List.length runs_s
              || runs = []
              || Float.is_nan (Stats.mean runs)
            then error := Some (Printf.sprintf "line %d: bad measurements" (i + 1))
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
