(** The search engine: one trial loop for every algorithm.

    The paper's driver (Figure 4) treats search algorithms as
    interchangeable suggestion sources behind a single measurement
    protocol.  This module is that boundary made explicit: an algorithm
    is a {!strategy} — a state machine that {e proposes} candidate
    mappings and {e receives} verdicts — and the engine owns everything
    the algorithms used to hand-roll separately:

    - evaluation, with each proposal's pruning bound plumbed uniformly
      through {!Evaluator.evaluate}'s [?bound];
    - the stopping rule, via one {!Budget.t} (max trials / virtual
      time / wall clock) tested before every proposal;
    - the event bus ([on_event]) feeding progress displays, JSONL
      streams and benches;
    - the checkpoint codec: strategy state + evaluator state + profiles
      database serialized so an interrupted search resumes
      {e decision-identically} (same accept/reject sequence, same RNG
      draws, same best mapping).

    Budget checks happen between trials and virtual time only advances
    inside evaluations, so moving the legacy loops' interleaved
    [should_stop] tests to the engine's per-step check provably cannot
    change any decision. *)

type hint = {
  bound : float option;
      (** pruning bound for {!Evaluator.evaluate} — the value above
          which this proposal is certainly rejected (incumbent perf,
          Metropolis threshold, current best…) *)
  overhead : float;
      (** virtual seconds of proposal machinery to charge before
          evaluating ({!Evaluator.note_suggestion_overhead}); 0 for
          free proposals *)
}

val unbounded : hint
(** [{ bound = None; overhead = 0.0 }] *)

type step =
  | Propose of Mapping.t * hint  (** evaluate this candidate next *)
  | Propose_batch of Mapping.t array * float
      (** a whole candidate set against one bound.  The engine hands
          each candidate, in array order, to the code that handles a
          {!Propose} with that bound and no overhead: the budget is
          checked and the seen-set consulted before each one, and a
          checkpoint falls at the same trial boundaries.  The batch
          ends at the first candidate [receive] accepts.  Contract:
          [receive] accepts exactly when [perf < bound], and [bound] is
          its current acceptance threshold (first-improvement
          descent), so the candidates after an acceptance were built
          against a replaced incumbent and are never delivered. *)
  | Phase of string              (** phase marker (rotation, member…) — no evaluation *)
  | Stop                         (** the strategy is done *)

type ctx = {
  trials : int;           (** proposals evaluated so far, incl. the start *)
  vt : float;             (** the evaluator's virtual clock *)
  best : Mapping.t * float;  (** engine-tracked best-so-far *)
}

type strategy = {
  name : string;  (** stable identifier, used by the checkpoint codec *)
  init : Mapping.t * float -> unit;
      (** called once with the evaluated start point before the first
          [step] (never on resume — decode restores that state) *)
  step : ctx -> step;
  receive : Mapping.t -> float -> bool;
      (** verdict for the proposal just evaluated; returns whether the
          strategy {e accepts} it as its new incumbent (reported as
          [accepted] in the [Eval] event) *)
  encode : unit -> string list;
      (** serialize the full decision state (RNG, cursors, incumbents)
          as newline-free text lines; each algorithm module provides
          the matching [decode] *)
}

type event =
  | Eval of { trial : int; mapping : Mapping.t; perf : float; vt : float; accepted : bool }
  | Improve of { trial : int; mapping : Mapping.t; perf : float; vt : float }
  | Phase_change of { name : string }
  | Checkpointed of { trial : int; path : string }

type checkpoint_cfg = {
  every : int;    (** write a checkpoint every [every] completed trials *)
  path : string;  (** target file, replaced atomically (tmp + rename) *)
}

type carry = {
  c_trials : int;
  c_steps : int;
  c_wall : float;
  c_best : Mapping.t * float;
}
(** Engine counters restored from a {!snapshot} when resuming. *)

type outcome = {
  best : Mapping.t;
  perf : float;
  trials : int;             (** evaluated proposals, incl. the start *)
  steps : int;              (** strategy [step] calls *)
  checkpoints_written : int;
}

(** {2 Symmetry seen-set}

    A memo of already-evaluated orbits: candidates are keyed by the
    canonical key of their orbit representative ({!Space.canonicalize}),
    so symmetric duplicates of an evaluated mapping can be {e rejected}
    without re-evaluating.  Skipping is rejection-only and
    bound-justified: a memoized entry [(v, be)] answers a proposal with
    bound [b] only when it proves [perf >= b] — either the stored value
    is exact ([v] was evaluated un-truncated, [v < be]) and [v >= b], or
    it is a cut certificate ([v >= be]) and [b <= be].  Memoized answers
    charge no virtual time, count no trial, and never update the
    engine's best (the incumbent is only pinned if the strategy
    unexpectedly accepts); the per-run tally is
    {!Evaluator.symmetry_skips}.  Skips change which candidates get
    evaluated, so runs with and without a seen-set (or with different
    seen contents) are different decision sequences — the seen-set is
    checkpointed and must be restored on resume. *)

type seen

val seen_create : (Mapping.t -> Mapping.t) -> seen
(** [seen_create canon] — [canon] maps a candidate to its orbit
    representative (pass [Space.canonicalize space]). *)

val seen_size : seen -> int
(** Number of memoized orbits. *)

val seen_restore : seen -> string list -> (unit, string) result
(** Load the entries of a checkpoint's [s_symmetry] section (each line
    [<canonical key> <v %h> <bound %h>]) into a fresh seen-set. *)

val run :
  ?budget:Budget.t ->
  ?on_event:(event -> unit) ->
  ?checkpoint:checkpoint_cfg ->
  ?carry:carry ->
  ?surrogate:Surrogate.t ->
  ?seen:seen ->
  start:Mapping.t ->
  Evaluator.t ->
  strategy ->
  outcome
(** Fresh run: evaluates [start] unbounded (trial 1), pins it, calls
    [strategy.init], then loops [step]/evaluate/[receive] until the
    strategy stops or the budget is {!Budget.exhausted}.  With [?carry]
    (resume): skips the start evaluation and [init] — the caller must
    have restored the evaluator ({!Evaluator.restore_state}) and
    decoded the strategy from the same snapshot.

    With [?seen], a proposal's key is built once: when the seen-set's
    canonicalizer returns the candidate itself, its seen key is also
    the key handed to {!Evaluator.eval_keyed}.

    [surrogate] taps the event bus: every [Eval] event trains the model
    ({!Surrogate.observe}) and every accepted mapping becomes its diff
    reference — training needs no strategy cooperation.  Checkpoints
    written by this run then carry a [surrogate] section.  Whether the
    model also {e ranks} proposals is the strategy's own configuration
    (pass it to {!Cd.make}/{!Ccd.make}/{!Portfolio.make} too). *)

(** {2 Checkpoint codec}

    A checkpoint is a self-contained text envelope:
    {v
    automap-checkpoint 1
    algo <strategy name>
    fingerprint <Evaluator.fingerprint>
    engine <trials> <steps> <wall %h>
    best <perf %h> <canonical mapping key>
    strategy <n>   ... n strategy lines ...
    evaluator <n>  ... n Evaluator.save_state lines ...
    profiles <n>   ... n Profiles_db.save lines ...
    surrogate <n>  ... n Surrogate.save lines ...   (only when one ran)
    symmetry <n>   ... n seen-set lines ...         (only when one ran)
    end
    v}
    Floats are hex ([%h]) so restore is bit-exact.  The surrogate and
    symmetry sections are optional and trailing (recognized by their
    header word): envelopes without them parse as before
    ([s_surrogate = []], [s_symmetry = []]), so older checkpoints
    remain loadable.  Symmetry lines are sorted for determinism. *)

type snapshot = {
  s_algo : string;
  s_fingerprint : string;
  s_trials : int;
  s_steps : int;
  s_wall : float;
  s_best_key : string;
  s_best_perf : float;
  s_strategy : string list;
  s_evaluator : string list;
  s_profiles : string;
  s_surrogate : string list;
      (** empty when the checkpointed run had no surrogate *)
  s_symmetry : string list;
      (** seen-set entries; empty when the run had no seen-set *)
}

val checkpoint_string :
  ?surrogate:Surrogate.t ->
  ?seen:seen ->
  Evaluator.t ->
  strategy ->
  trials:int ->
  steps:int ->
  wall:float ->
  best:Mapping.t * float ->
  string
(** The envelope [run] writes; exposed for tests and manual snapshots. *)

val snapshot_of_string : string -> (snapshot, string) result

val load_snapshot : string -> (snapshot, string) result
(** Read and parse a checkpoint file. *)
