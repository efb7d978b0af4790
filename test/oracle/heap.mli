(** Imperative binary min-heap keyed by float priority.

    This is the event queue of the {!Oracle} interpreter: events are
    ordered by simulated timestamp, with a monotonically increasing
    sequence number breaking ties so that simultaneous events pop in
    insertion order (making simulations deterministic).  The compiled
    simulator uses the monomorphic {!Exec.Fheap} instead. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h priority v] inserts [v] with the given priority. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority element, insertion order
    breaking ties. *)

val peek : 'a t -> (float * 'a) option

val clear : 'a t -> unit
(** Empties the heap, keeping the backing array (so a reused heap does
    not regrow from scratch).  The sequence counter keeps running:
    entries pushed after [clear] still tie-break after anything pushed
    before it.  Cleared slots retain their old values until
    overwritten. *)

val reset : 'a t -> unit
(** {!clear} plus rewinding the insertion sequence to 0 — use when
    reusing a heap across independent simulations whose tie-breaking
    must not depend on earlier runs. *)
