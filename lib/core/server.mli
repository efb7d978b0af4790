(** Mapping-as-a-service: the [automap_cli serve] daemon's core.

    `map` requests become jobs whose searches run as chains of {!Slice}
    quanta on a pool of worker domains; between quanta a job re-enters
    the back of a FIFO, so concurrent requests make interleaved
    progress — a long search cannot starve an [analyze] or a short
    search.  A paused job holds its search live ({!Slice.live}, no
    simulation scratch); a finished or failed one keeps only its
    answer.  Everything cross-request is memoized behind one mutex:

    - a compile LRU of {!Exec.compiled} artifacts keyed by (machine
      fingerprint, graph fingerprint), weighed by {!Exec.compiled_words};
    - a result memo keyed additionally by {!Slice.fingerprint}: an
      exact repeat is answered at submit time, bit-equal to the run
      that populated the entry, without invoking the simulator;
    - an incumbent table per (machine, graph): near-repeats (different
      search config) warm-start from the best known mapping, unless
      the request is cold ([warm] false).

    A job's answer rests only on its request and its warm start (the
    incumbent chosen at accept time, or none), so a cold request may
    take a memo entry exactly when that entry's job was not
    warm-started.

    Durability: accepted jobs persist a meta file (the request with the
    workload inlined as codec text, the warm-start choice pinned)
    before any worker can take them and, after every paused slice, the
    checkpoint envelope — temp+rename writes into [state_dir]; without
    one, no envelope is built.
    {!recover} rescans that directory; each orphan resumes from its
    envelope decision-identically. *)

type t

val create :
  ?slice_trials:int ->
  ?state_dir:string ->
  unit ->
  t
(** A server with no workers yet.  [slice_trials] (default 40) is the
    scheduling quantum in evaluated trials.  The compile LRU holds at
    most 32 problems and 256 MiB, the result memo 512 answers.
    [state_dir] (created if missing) enables checkpoint persistence. *)

val recover : t -> int
(** Rescan [state_dir] and re-enqueue every orphaned job (meta file
    present, no terminal result), warm-started from the incumbent its
    meta file pins, if any.  Returns the number recovered. *)

(** {1 Request handling}

    Safe from any domain.  [analyze], [status], [ping] and memo-hit
    [map] requests are answered inline; other [map] requests enqueue a
    job and return [accepted].  A workload whose graph (or a [map]
    request whose [iterations] override) would run more than 2,000,000
    task instances per simulation is refused with an error. *)

val handle : t -> Wire.request -> Wire.response

val handle_line : t -> string -> Wire.response
(** Parse one request line (with the {!Wire.default_max_bytes} guard)
    and handle it; parse errors become error responses. *)

(** {1 Driving}

    In-process mode (tests, benches): no domains — call {!step} /
    {!drain} to run queued slices on the calling thread, deterministic
    and single-threaded.  Daemon mode: {!start_workers} + {!serve}. *)

val step : t -> bool
(** Run one queued job for one slice quantum; false if the queue was
    empty.  A paused job re-enters the back of the queue. *)

val drain : t -> unit
(** {!step} until the queue is empty. *)

val start_workers : t -> int -> unit Domain.t list

val stop : t -> unit
(** Ask workers to exit at their next slice boundary (their current
    slice's envelope is persisted before the job becomes visible
    again, so stopping never loses committed progress). *)

val stopping : t -> bool

(** {1 Socket serving} *)

type endpoint = Unix_path of string | Tcp of int
(** A Unix-domain socket path, or a TCP port on loopback. *)

val serve : ?workers:int -> t -> endpoint -> unit
(** Blocking accept loop: newline-delimited JSON requests in,
    responses out; [workers] (default 1) domains run the slices.
    Returns after a [shutdown] request or SIGTERM/SIGINT, having
    joined the workers and restored signal handlers — all in-flight
    search state is then on disk (given [state_dir]). *)
