(** The profiles database's ranking, recomputed from scratch.

    The fold-and-sort {!Profiles_db.top} of the days before the
    database kept its entries ranked.  It reads the entries through
    {!Profiles_db.save}'s text and {!Profiles_db.find_key}, and takes
    each perf as {!Stats.mean} of the parsed runs (bit-exact:
    ["%.17g"] round-trips every double), so it shares no ranking code
    with what it checks. *)

val top : Profiles_db.t -> int -> Profiles_db.entry list
(** The [k] entries with the lowest perf, best first; equal perfs
    rank by canonical key.  [k <= 0] answers [[]]. *)
