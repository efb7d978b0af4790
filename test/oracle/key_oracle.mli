(** {!Mapping.canonical_key}, built the way it was before the key was
    written in place: one [Buffer] grown a character at a time through
    [Array.iter] closures, over the mapping's accessors.

    Sized by the graph, it writes exactly one memory letter per
    collection — none on a graph without collections. *)

val canonical_key : Graph.t -> Mapping.t -> string
(** ["<distribute>|<strategy>|<proc>|<mem>"]: [D]/[L], [B]/[Y] and
    [C]/[G] per task in tid order, then [S]/[Z]/[F] per collection in
    cid order. *)
