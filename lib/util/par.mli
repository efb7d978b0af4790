(** Independent jobs across domains. *)

val work_per_domain : int
(** [2^18]: the work, in simulated instance-runs, that pays for one
    domain — 50–75 ms of simulation on one domain of a 2-core Intel
    Xeon.  Below twice this a measurement keeps to the calling domain:
    there a spawned domain often shared its parent's CPU and saved
    nothing, while its minor heap and runner cost memory (DESIGN.md §8
    has the calibration). *)

val domains : cores:int -> jobs:int -> work:int -> int
(** The domain count for [jobs] independent jobs that do [work]
    instance-runs between them, on a host that recommends [cores]
    domains ([Domain.recommended_domain_count ()]):
    [min cores 4 jobs (max 1 (work / work_per_domain))], and at least
    1.  Work under [2 * work_per_domain] stays on the calling
    domain. *)

val map : domains:int -> (unit -> 'a) list -> 'a list
(** [map ~domains jobs] runs the thunks across [domains] worker
    domains (including the calling one) and returns their results in
    input order.  [domains] is capped at the number of jobs; [1] runs
    everything inline, spawning nothing.  If a [Domain.spawn] fails
    (the runtime's domain limit), the domains that did start run its
    jobs.  Jobs must not share mutable state.  The first job exception
    (if any) is re-raised after all domains are joined.
    @raise Invalid_argument if [domains < 1]. *)
