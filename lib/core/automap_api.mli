(** High-level AutoMap API: one call from (application, machine,
    input) to a tuned mapping with baseline comparisons.

    This is the workflow of §3.3: profile the application once to
    build the search space, run an offline search that repeatedly
    executes the application under candidate mappings, and report the
    fastest mapping found together with its speedup over the runtime's
    default strategy and the application's hand-written mapper. *)

type comparison = {
  label : string;
  mapping : Mapping.t;
  perf : float;            (** mean per-iteration seconds *)
  speedup_vs_default : float;
}

type tuning = {
  machine : Machine.t;
  graph : Graph.t;
  analysis : Analysis.t;            (** the pre-search feasibility analysis *)
  result : Driver.result;           (** the search outcome and telemetry *)
  default_perf : float;             (** Legion-default-mapper baseline *)
  comparisons : comparison list;    (** default, custom, AutoMap *)
}

exception Infeasible of Analysis.t
(** Raised by {!tune} / {!check_feasible} when the static analyzer
    reports error-level diagnostics: every candidate mapping is
    certified to fail validation or strict placement, so searching is
    pointless.  The payload carries the full analysis (render with
    {!Analysis.report} or {!infeasible_message}). *)

val check_feasible : Machine.t -> Graph.t -> Analysis.t
(** Run {!Analysis.analyze} and raise {!Infeasible} if it reports any
    error-level diagnostic. *)

val infeasible_message : Analysis.t -> string
(** One-line rendering of the error diagnostics, for [Failure]-style
    reporting. *)

val tune :
  ?seed:int ->
  ?runs:int ->
  ?final_runs:int ->
  app:App.t ->
  machine:Machine.t ->
  input:string ->
  unit ->
  tuning
(** Tunes [app] on [machine] for [input] with CCD(5), without a budget.
    Runs {!check_feasible} before the search and raises
    {!Infeasible} on error-level inputs.  The returned comparisons measure (with the same
    protocol) the default mapping, the app's custom mapping and the
    tuned mapping. *)

val measure_mapping :
  ?runs:int -> ?seed:int -> ?noise_sigma:float ->
  Machine.t -> Graph.t -> Mapping.t -> float
(** Mean per-iteration time of one mapping, [runs] (default 7)
    noise-seeded simulator executions.  Raises [Failure] if the
    mapping cannot run. *)

val speedup : baseline:float -> float -> float
(** [speedup ~baseline t] = baseline / t. *)
