(** Unified search budget.

    Before the engine refactor every algorithm hand-rolled its own
    stopping test: [Cd]/[Ccd] stopped on [virtual_time ev > budget]
    while [Annealing]/[Ensemble]/[Random_search] looped on
    [virtual_time ev <= budget].  Those two phrasings are the same
    strict-excess rule written twice; this module writes it once, adds
    the trial-count and wall-clock axes, and {!Engine} applies it
    identically for every strategy.

    {b Semantics} (the single rule all strategies now share): a budget
    is exhausted — checked by the engine {e before} each trial — when

    - [trials >= max_trials]: the completed-trial count has reached the
      cap, so the next proposal is not evaluated; or
    - [vt > max_virtual]: accumulated virtual search time {e strictly}
      exceeds the cap.  A trial landing exactly on the cap completes
      and only the next one is cut, matching both legacy phrasings; or
    - [wall > max_wall]: elapsed wall-clock seconds strictly exceed the
      cap (only this axis is machine-dependent; checkpoints record the
      wall already consumed so a resumed search keeps burning the same
      budget, but wall-bounded runs are inherently not
      decision-reproducible).

    Absent axes never exhaust; {!unlimited} never stops a search. *)

type t = {
  max_trials : int option;   (** cap on evaluated proposals (incl. the start) *)
  max_virtual : float option; (** cap on virtual search seconds (Figure 9 x-axis) *)
  max_wall : float option;   (** cap on real elapsed seconds *)
}

val unlimited : t

val make : ?max_trials:int -> ?max_virtual:float -> ?max_wall:float -> unit -> t
(** Omitted axes are unlimited; an [infinity] cap is normalized to
    unlimited.  @raise Invalid_argument on negative or NaN caps. *)

val is_unlimited : t -> bool

val exhausted : t -> trials:int -> vt:float -> wall:float -> bool
(** The one stopping test (semantics above).  [trials] counts evaluated
    proposals so far, [vt] is the evaluator's virtual clock, [wall] the
    real seconds consumed (including any consumed before a resume). *)
