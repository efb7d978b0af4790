(** Profiles database (Figure 4).

    The driver records every evaluated mapping together with its
    measured runtimes.  The database serves three purposes: (a) dedup —
    a mapping suggested again is answered from the database instead of
    re-executing the application (the gap between "suggested" and
    "evaluated" counts reported in §5.3); (b) ranking — the top-k
    mappings are re-measured at the end of the search; (c) provenance —
    the per-task profile of the best mapping feeds the task ordering of
    the next rotation. *)

type entry = {
  mapping : Mapping.t;
  runs : float list;    (** per-iteration times of each measured run *)
  perf : float;         (** mean of [runs] — the number the search compares *)
}

type t

val create : unit -> t

val find : t -> Mapping.t -> entry option

val record : t -> Mapping.t -> float list -> entry
(** Stores measurements for a mapping (replacing any previous entry)
    and returns the entry.  The entry takes its rank for {!top} as it
    is recorded, in O(log n), and a replaced entry loses its old
    rank. *)

val find_key : t -> string -> entry option
(** {!find} for a caller that already computed
    {!Mapping.canonical_key} — the evaluator computes it once per
    evaluation and reuses it for the db and the partials table. *)

val record_key : t -> key:string -> Mapping.t -> float list -> entry
(** {!record} with a precomputed canonical key. *)

val size : t -> int

val top : t -> int -> entry list
(** The [k] entries with the best (lowest) perf, best first; equal
    perfs rank by canonical key, so a database rebuilt by {!load}
    ranks exactly like the one {!save} wrote.  Perfs compare with
    [Float.compare].  Walks the kept ranking: O(k + log n) for a
    database of n entries.  [k <= 0] answers [[]]. *)

val best : t -> entry option
(** [top t 1]'s entry: O(log n). *)

(** {1 Persistence}

    The database serializes to a line-oriented text file (one mapping
    per line: canonical key followed by its measured runs), so a long
    offline search can be checkpointed and warm-started — re-suggested
    mappings are then answered from the reloaded measurements. *)

val save : t -> string

val load : Graph.t -> string -> (t, string) result
(** Keys that do not match [g] are rejected with an error, as are
    measurements whose mean is NaN (it would rank ahead of every real
    perf) and a key appearing on more than one line — a checkpoint
    written by {!save} never contains duplicates, so one signals a
    corrupted or hand-edited file whose measurements cannot be
    trusted. *)
