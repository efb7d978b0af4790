(** Monomorphic binary min-heap: float priority, int payload.

    The allocation-free event queue of the compiled simulator
    ({!Exec.simulate}).  Entries live in three parallel flat arrays
    (priority, insertion sequence, payload), so pushing and popping
    never allocates — unlike the polymorphic heap of the test oracle,
    which boxes an entry record per push.  Ties on priority pop in
    insertion order, exactly like that heap, which is what makes a
    compiled simulation bit-identical to the legacy interpreter.

    The inspection API is split ([top_prio] / [top] / [drop]) instead
    of returning an option pair so the hot loop touches no boxed
    values. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 16) pre-sizes the backing arrays. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> float -> int -> unit
(** [push h prio payload] inserts [payload] with priority [prio]. *)

val top_prio : t -> float
(** Priority of the minimum entry.  Undefined (reads stale storage)
    on an empty heap — guard with {!is_empty}. *)

val top : t -> int
(** Payload of the minimum entry.  Same caveat as {!top_prio}. *)

val drop : t -> unit
(** Removes the minimum entry.  No-op on an empty heap. *)

val reset : t -> unit
(** Empties the heap and rewinds the insertion sequence to 0, keeping
    the backing arrays — the per-simulation reset. *)

(** {1 Explicit insertion sequences}

    The incremental replay of {!Exec} reconstructs the event queue as
    it stood mid-simulation: pending events must re-enter the heap with
    the insertion sequence numbers the full run assigned them, so that
    every later priority tie breaks exactly as it would have. *)

val push_with_seq : t -> float -> int -> seq:int -> unit
(** [push_with_seq h prio payload ~seq] inserts with an explicit
    insertion sequence instead of the internal counter (which it does
    not advance — pair with {!set_next_seq}). *)

val set_next_seq : t -> int -> unit
(** Overrides the internal insertion counter subsequent {!push}es
    draw from. *)

val next_seq : t -> int
(** The sequence number the next {!push} would be assigned. *)
