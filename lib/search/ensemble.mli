(** Generic ensemble autotuner — the OpenTuner stand-in (§4.3).

    OpenTuner is an external Python framework; in this sealed
    reproduction we implement the same *observable behaviour class*:
    an ensemble of generic search techniques (uniform random sampling,
    single-coordinate mutation of elites, crossover of elites, and a
    pattern walk) sharing one results database, with a multi-armed
    bandit allocating the proposal budget to the techniques that have
    recently produced improvements (OpenTuner's AUC bandit).

    Critically — as §4.3 documents for OpenTuner — the proposal
    machinery is *constraint-unaware*: processor and memory kinds are
    drawn independently, so many proposals violate the accessibility
    constraint.  AutoMap answers such proposals with a penalty value
    without executing them, so the tuner suggests orders of magnitude
    more mappings than it evaluates (§5.3: 157 202 suggested vs. 273
    evaluated for Pennant).  Every proposal also charges a fixed
    machinery overhead to virtual search time, reproducing the
    13–45 % useful-search-time observation. *)

type config = {
  seed : int;
  elite_size : int;          (** elites kept for mutation/crossover *)
  exploration : float;       (** bandit ε *)
  suggestion_overhead : float; (** virtual seconds charged per proposal *)
  max_suggestions : int;     (** hard cap independent of the time budget *)
}

val default_config : config

val make : ?config:config -> Evaluator.t -> Engine.strategy
(** The ensemble as an engine strategy (name ["ensemble"]); every
    proposal carries [suggestion_overhead] in its {!Engine.hint}.
    Improvements are {e accepted}: the engine's [Eval] events report
    them as the strategy's new incumbents. *)

val decode : Evaluator.t -> string list -> (Engine.strategy, string) result
(** Rebuild a checkpointed ensemble: bandit arm statistics, pattern
    cursor, RNG state and best-so-far restored bit-exactly. *)

val technique_names : string list
(** The ensemble members, for reporting. *)
