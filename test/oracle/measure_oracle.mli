(** Fresh-seed measurement made one run after another.

    The loop {!Evaluator.measure} and {!Driver.final_protocol} ran
    before their runs fanned out across domains: record-API runs
    ({!Exec.simulate}) on one scratch, seeds in order, each run's value
    consed onto the list.  The fanned-out path must give the same
    lists, bit for bit. *)

type cfg = {
  scratch : Exec.scratch;
  noise_sigma : float;
  fallback : bool;
  iterations : int option;       (** [None]: the graph's count *)
  metric : Exec.result -> float; (** what each run contributes *)
}

val measure : cfg -> base:int -> runs:int -> Mapping.t -> float list
(** [runs] runs of the mapping, run [k] (1-based) under seed
    [base + k]; newest first.
    @raise Failure ["Evaluator.measure: ..."] at the first run that
    cannot be placed. *)

val final_protocol :
  cfg ->
  base:int ->
  final_top:int ->
  final_runs:int ->
  Profiles_db.t ->
  search_best:Mapping.t ->
  search_perf:float ->
  Mapping.t * float list
(** The §5 final protocol: the [final_top] best entries of the
    database (ranked by {!Rank_oracle.top}) measured [final_runs]
    times each, the [i]-th (0-based) from seed base
    [base + i * final_runs], and the first with the lowest mean kept;
    [(search_best, [search_perf])] on an empty database. *)
