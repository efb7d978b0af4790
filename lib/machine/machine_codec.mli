(** Textual machine description files.

    §3.3: AutoMap's input includes "the machine model representation".
    This codec lets users describe a cluster in a small key=value file
    instead of writing OCaml:

    {v
    machine MyCluster nodes=2
    node sockets=2 cores_per_socket=1 gpus=4 sysmem=128e9 zc=60e9 fb=16e9
    exec_bw cpu_sys=80e9 cpu_zc=55e9 gpu_fb=500e9 gpu_zc=10e9
    compute cpu_flops=720e9 gpu_flops=4000e9 cpu_launch=10e-6 gpu_launch=30e-6 dispatch=12e-6
    copy memcpy=20e9 cross_socket=10e9 pcie=12e9 gpu_peer=12e9 local_latency=5e-6 net_bw=10e9 net_latency=3e-6
    v}

    '#' starts a comment; the four stanza lines may appear in any
    order but each exactly once.

    An optional [topology] stanza attaches an explicit interconnect.
    Generated families serialize as their spec plus base link rates —
    {v
    topology spec=grid:8x8 bw=4e9 lat=2e-6
    v}
    — and custom topologies as a header plus one [topolink] line per
    directed link:
    {v
    topology custom=ring3 nodes=3 vertices=3 contended=true
    topolink src=0 dst=1 bw=1e9 lat=1e-6
    v}
    Route tables are {e never} serialized: decoding regenerates them
    deterministically, so a decoded machine is structurally equal and
    route-identical to the encoded one. *)

val to_string : Machine.t -> string

val of_string : string -> (Machine.t, string) result
(** Parses and validates (via {!Machine.make}); returns a descriptive
    error on malformed input, including counts that would allocate
    past {!Topology.max_gen_nodes}.  Never raises. *)

val round_trip_exn : Machine.t -> Machine.t
(** Test helper. *)

val fingerprint : Machine.t -> string
(** Hex digest of {!to_string} — the canonical identity of a machine
    model.  Two machines fingerprint equal iff their serialized
    descriptions are byte-equal; the serve daemon keys its compile and
    result caches on it. *)
