(** Textual task-graph description files.

    Together with {!Machine_codec} this completes §3.3's workflow: the
    "file containing the search space … of the target application"
    that profiling generates.  A graph file lists tasks, their
    collection arguments, per-collection dependencies and overlap
    edges:

    {v
    graph stencil iterations=3
    task sweep group=8 variants=CPU,GPU flops=1e6 cpu_eff=1 gpu_eff=0.9
    arg sweep in bytes=1e6 mode=R
    arg sweep out bytes=1e6 mode=W
    task bump group=8 variants=CPU,GPU flops=2e5
    arg bump in bytes=1e6 mode=RW
    dep sweep out bump in
    dep bump in sweep in pattern=halo:0.05 carried=true
    overlap sweep in bump in bytes=1e6
    v}

    [dep src_task src_arg dst_task dst_arg] lines accept optional
    [bytes=], [pattern=same|halo:<frac>] and [carried=true|false]
    fields; [overlap t1 a1 t2 a2 bytes=w] declares an edge of the
    induced collection graph C.  Names must not contain spaces. *)

val to_string : Graph.t -> string

val of_string : string -> (Graph.t, string) result
(** Parse and validate via {!Graph.Builder} (acyclicity, modes,
    sizes).  Never raises: any malformed input is an [Error]. *)

val round_trip_exn : Graph.t -> Graph.t
(** Test helper: serialize then parse, raising on error. *)

val fingerprint : Graph.t -> string
(** Hex digest of {!to_string} — the canonical identity of a task
    graph, used (with {!Machine_codec.fingerprint}) as the serve
    daemon's compile- and result-cache key. *)
