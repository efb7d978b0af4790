(** Deterministic, splittable pseudo-random number generator.

    All randomness in the repository flows through this module so that
    every experiment is reproducible from a single integer seed.  The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA '14): a tiny,
    statistically solid 64-bit generator whose state can be [split]
    into independent streams, which lets concurrent components (the
    search driver, the noise model of each simulated run, each search
    technique of the ensemble tuner) draw from disjoint streams without
    coordination. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy and the original
    subsequently produce identical streams. *)

val state : t -> int64
(** Raw 64-bit state, for checkpointing.  [of_state (state t)] resumes
    the exact stream [t] would have produced. *)

val of_state : int64 -> t
(** Rebuild a generator from a checkpointed {!state}. *)

val set_state : t -> int64 -> unit
(** Overwrite the state in place (checkpoint restore). *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent from the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0, n-1].  [n] must be positive. *)

val float : t -> float -> float
(** [float t x] draws uniformly from [0, x). *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val lognormal : t -> sigma:float -> float
(** [lognormal t ~sigma] draws exp(sigma * N(0,1)) — the multiplicative
    noise factor used by the simulator's measurement-noise model.  Its
    median is 1.0. *)

val fill_lognormal : t -> sigma:float -> float array -> pos:int -> len:int -> unit
(** [fill_lognormal t ~sigma buf ~pos ~len] writes [len] successive
    {!lognormal} draws into [buf.(pos)] .. [buf.(pos + len - 1)]: the
    values and the final state are bit-equal to [len] calls of
    {!lognormal}, and nothing is allocated per draw.
    @raise Invalid_argument if the range is not inside [buf]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
