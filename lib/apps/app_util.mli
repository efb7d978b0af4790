(** Helpers shared by the benchmark-application modules: input-string
    parsing and construction of hand-written ("custom") mappings. *)

val parse_pair : tag1:char -> tag2:char -> string -> (int * int) option
(** [parse_pair ~tag1:'n' ~tag2:'w' "n50w200"] is [Some (50, 200)]. *)

val parse_cross : string -> (int * int) option
(** ["500x500"] → [Some (500, 500)]. *)

val parse_xyz : string -> (int * int * int) option
(** ["8x8y9z"] → [Some (8, 8, 9)] (the HTR input syntax). *)

val pieces_per_node : int
(** Shards a group task launches per machine node (the partition count
    the applications use). *)

val custom_mapping :
  ?cpu_tasks:string list ->
  ?zc_arrays:string list ->
  Graph.t ->
  Machine.t ->
  Mapping.t
(** Builds a hand-written-style mapping: start from the runtime default
    (§4.1/§5: everything distributed, GPU where possible, fastest
    memory), move the named tasks to CPU, place arguments of the named
    arrays in Zero-Copy memory, then repair any
    accessibility violation by falling back to the first kind the
    task's processor can address.  Array names match the suffix after
    the ["task."] prefix of argument names.

    Real hand-written mappers contain size-conditional logic, so the
    CPU/Zero-Copy demotions only apply while the affected arguments
    stay at or below 256 KB per shard; larger data stays on the
    default fast path. *)

val arg_array_name : Graph.collection -> string
(** The logical-array part of an argument name ("calc_currents.wires" →
    "wires"). *)
