(** Domains-based parallel search driver.

    {!Portfolio} members (and ensemble restarts generally) are
    independent searches with independent seeds, so they parallelize
    trivially: each worker domain gets its own {!Evaluator} (the
    compiled problem, profiles database and RNG streams are all
    per-evaluator state), jobs are dealt from an atomic counter, and
    results are merged deterministically — output order is input
    order and ties on performance resolve to the earliest member.

    Running with [domains = 1] executes the identical jobs inline, so
    parallel and sequential runs return the same results bit-for-bit
    (test/test_compile.ml enforces this).  The domain pool is
    {!Par.map}. *)

(** Outcome of one independent member search. *)
type member_result = {
  member : string;     (** {!Portfolio.member_name} *)
  mapping : Mapping.t;
  perf : float;
  evaluated : int;     (** executed evaluations of that member's evaluator *)
  suggested : int;
  steps : int;         (** {!Engine} strategy steps taken by that member *)
}

val run_members :
  ?domains:int ->
  ?members:Portfolio.member list ->
  ?budget:float ->
  ?seed:int ->
  ?runs:int ->
  ?noise_sigma:float ->
  ?iterations:int ->
  ?batch:bool ->
  ?share_bound:bool ->
  Machine.t ->
  Graph.t ->
  member_result list
(** Runs every member as an independent search from
    {!Mapping.default_start} with its own evaluator, in parallel, and
    returns the outcomes in member order.  [budget] (default
    [infinity]) is each member's own virtual-time budget — unlike
    {!Portfolio.search}, members do not share a budget or warm-start
    each other, which is what makes them embarrassingly parallel.
    [seed] (default 0) derives a distinct evaluator noise stream per
    member; [runs] / [noise_sigma] / [iterations] are passed to each
    {!Evaluator.create}.

    The simulation problem is compiled once and shared; each domain
    builds one {!Exec.scratch} that all its members reuse (members on a
    domain run sequentially), so the bind cache and noise streams hit
    across members — decision-neutral, results still match
    fully-private evaluators bit-for-bit.  [batch] (default false) runs CD/CCD
    members with {!Engine.Propose_batch} neighbour sets (also
    decision-neutral, see {!Cd.make}).  [share_bound] (default false)
    publishes each member's best perf to an atomic cell and tightens
    every plain proposal's pruning bound with the global best —
    cross-member pruning that can only convert certain-rejections into
    cheaper ones, but whose exact cut set depends on cross-domain
    timing: enable it for throughput, not for reproducible decision
    sequences.
    @raise Invalid_argument if [members] is empty. *)

val best : member_result list -> member_result
(** Minimum-perf result; ties break to the earliest member, so the
    merge is deterministic regardless of completion order.
    @raise Invalid_argument on the empty list. *)
