(** Maestro: multi-fidelity ensemble compressible Navier–Stokes CFD
    (§5.1, Figure 7).

    A bi-fidelity ensemble: one high-fidelity (HF) sample whose
    GPU-only tasks and collections are sized to (nearly) fill the
    Frame-Buffer, plus [n_lf] low-fidelity (LF) samples of resolution
    [r]³.  Each of the 13 LF task types is a group task with one shard
    per sample (Figure 5: "13 tasks (only LFs), 30 collection
    arguments").  Because the HF data occupies the Frame-Buffer, any
    LF collection mapped to FB overflows — the search must choose
    between CPU+System and GPU+Zero-Copy placements per task, the
    decision Figure 7 shows neither standard strategy gets right
    everywhere.

    The experiment metric is *degradation*: makespan of the ensemble
    over makespan of the HF sample running alone ([graph ~n_lf:0]). *)

val name : string

val graph : nodes:int -> n_lf:int -> resolution:int -> Graph.t
(** The HF sample's collections occupy 99.8% of each node's total
    Frame-Buffer capacity, 64 GB (a Lassen node's four 16 GB V100s).
    [n_lf] = 0 gives the HF-alone baseline. *)

val graph_of_input : nodes:int -> input:string -> Graph.t
(** Input syntax ["lf<count>r<resolution>"], e.g. ["lf16r32"]. *)

val inputs : nodes:int -> string list
(** The Figure 7 sweep: LF counts {4, 8, 16, 32, 64} × resolutions
    {16, 32}. *)

val lf_cpu_sys : Graph.t -> Machine.t -> Mapping.t
(** Standard strategy 1: all LF tasks on CPUs, collections in System
    memory. *)

val lf_gpu_zc : Graph.t -> Machine.t -> Mapping.t
(** Standard strategy 2: all LF tasks on GPUs, collections in
    Zero-Copy memory. *)

val custom_mapping : Graph.t -> Machine.t -> Mapping.t
(** Alias of {!lf_gpu_zc} (the strategy the Maestro developers use by
    default). *)
