(** The golden simulation oracle.

    The original single-pass discrete-event interpreter, which
    re-derives every structure on each call.  {!Exec.simulate} (and the
    bounded, quiet and incremental paths built on it) must reproduce
    its results bit for bit: the dependence traversal order, the RNG
    draw order (instance-ascending, before any event is processed) and
    the event queue's FIFO tie-breaking are the contract.  The tests
    compare against it; the evalrate benchmark measures the compiled
    simulator's speed-up over it. *)

val run :
  ?noise_sigma:float ->
  ?seed:int ->
  ?fallback:bool ->
  ?iterations:int ->
  ?trace:Trace.t ->
  Machine.t ->
  Graph.t ->
  Mapping.t ->
  (Exec.result, Exec.error) Stdlib.result
(** Same parameters and behaviour as {!Exec.run}, derived from scratch
    on every call. *)
