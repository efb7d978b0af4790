(** Algorithm portfolio over one shared evaluator.

    §4 presents the search algorithm as a pluggable component; the
    portfolio runs several of them back to back against the *same*
    evaluator, so the shared profiles database deduplicates across
    algorithms (a mapping CCD measured is answered from cache when
    annealing later re-proposes it) and the best-so-far mapping of one
    algorithm seeds the next.  Each member gets an equal share of the
    virtual-time budget. *)

type member = Ccd of int | Cd | Annealing | Random

val default_members : member list
(** [Ccd 5; Annealing; Random] — a coordinated searcher plus two
    stochastic escapers. *)

val member_name : member -> string

val member_to_string : member -> string
(** Checkpoint-stable spelling (["ccd:5"], ["cd"], …). *)

val member_of_string : string -> member option

val make :
  ?members:member list ->
  ?budget:float ->
  ?seed:int ->
  ?batch:bool ->
  ?min_batch:int ->
  ?surrogate:Surrogate.t ->
  Evaluator.t ->
  Engine.strategy
(** The portfolio as a meta-strategy (name ["portfolio"]): members run
    sequentially, each seeded with the best-so-far (proposed as a
    normal trial — a cache hit) and cut at an absolute virtual-time
    deadline of [budget / n_members] past its entry.  Member
    transitions surface as {!Engine.Phase} events.  [batch] (default
    false) runs CD/CCD members through {!Engine.Propose_batch}
    ([min_batch], default 1, gates sub-threshold rounds back to
    sequential proposals — see {!Descent.next_gated}), and
    [surrogate] additionally ranks their batches (see {!Cd.make}) —
    the one model is shared across members, so annealing/random
    evaluations train the ranker the descent members use.
    @raise Invalid_argument on an empty member list. *)

val decode :
  ?batch:bool ->
  ?min_batch:int ->
  ?surrogate:Surrogate.t ->
  Evaluator.t ->
  string list ->
  (Engine.strategy, string) result
(** Rebuild a checkpointed portfolio, including the active member's own
    nested strategy state; [batch]/[min_batch]/[surrogate] apply to
    the restored CD/CCD members exactly as in {!make}. *)
