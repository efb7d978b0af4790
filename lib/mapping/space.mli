(** Search-space descriptor (§3.2).

    After factoring the mapping problem into kinds, the space of
    candidate mappings for graph G on machine M is

      Π_t  2 · |variants(t) ∩ kinds(M)| · Π_{c ∈ args(t)} |mems(k)|

    where the 2 is the distribution bit and |mems(k)| the number of
    memory kinds addressable from each candidate processor kind.  This
    module computes the per-dimension domains the search algorithms
    enumerate and the size statistics reported in Figure 5. *)

type dim =
  | Distribution of int          (** tid *)
  | Strategy of int              (** tid — extended space only *)
  | Processor of int             (** tid *)
  | Memory of int                (** cid *)

type t

val make :
  ?extended:bool -> ?domains:bool -> ?dominance:bool -> ?symmetry:bool ->
  Graph.t -> Machine.t -> t
(** [extended] (default false) additionally opens the group-task
    distribution-strategy dimension (blocked vs. cyclic across nodes)
    that the paper fixes to blocked and names as future work (§3.2).

    [domains] (default true) restricts every choice list to the
    coordinate domains {!Analysis.compute_domains} certifies: values
    the analyzer proves can never validate + place strictly are not
    sampled or enumerated.  Pruned lists fall back to the unpruned
    ones when a domain is empty, so choice lists are always non-empty
    on any machine/graph the unpruned space accepted.

    [dominance] (default false; requires [domains]) further removes
    values {!Analysis.compute_dominance} certifies are dominated —
    replacing them by their surviving dominator in any candidate never
    worsens the noise-free cost.  Order-preserving, never empties a
    list.

    [symmetry] (default false) activates {!canonicalize}: random
    samples are canonicalized, and callers (the engine's seen-set) can
    canonicalize candidates to detect symmetric duplicates. *)

val extended : t -> bool

val pruned : t -> bool
(** Whether coordinate domains are active. *)

val dominance : t -> bool
(** Whether dominance pruning is active. *)

val symmetry : t -> bool
(** Whether orbit canonicalization is active. *)

val graph : t -> Graph.t
val machine : t -> Machine.t

val dims : t -> dim list
(** All search dimensions: one distribution and one processor choice
    per task, one memory choice per collection argument. *)

val proc_choices : t -> int -> Kinds.proc_kind list
(** Processor kinds usable for task [tid]: variants intersected with
    kinds present on the machine, minus domain-excluded kinds when
    domains are active (order preserved). *)

val proc_choices_all : t -> int -> Kinds.proc_kind list
(** The unpruned list (variants ∩ present kinds), regardless of
    domains — what the search space looked like before analysis;
    [length (proc_choices_all) - length (proc_choices)] is the number
    of dead values of the coordinate. *)

val mem_choices : t -> Kinds.proc_kind -> Kinds.mem_kind list
(** Memory kinds addressable from a processor kind (kind-level only,
    never domain-pruned — use {!mem_choices_for} for a specific
    collection coordinate). *)

val mem_choices_for : t -> cid:int -> Kinds.proc_kind -> Kinds.mem_kind list
(** Memory kinds for collection [cid] under owner kind [k]:
    [mem_choices k] minus capacity-infeasible kinds when domains are
    active (fastest-first order preserved, unpruned fallback when the
    domain is empty). *)

val distribution_choices : t -> (bool * Mapping.dist_strategy) list
(** The (distribute, strategy) combinations the search enumerates per
    task: {[(true, Blocked); (false, Blocked)]} in the paper's space,
    plus [(true, Cyclic)] when extended. *)

val distribution_choices_for : t -> int -> (bool * Mapping.dist_strategy) list
(** {!distribution_choices} reordered for task [tid] on a topology
    machine: choices whose adjacent shards land at most one routing hop
    apart come first, so descent probes locality-preserving
    distributions before scattering ones.  Same elements as
    {!distribution_choices} (only the order changes); identical to it
    on machines without a topology. *)

val log2_size : t -> float
(** log₂ of the number of candidate mappings, counting for each task
    the distribution bit, its processor-kind domain, and — summed over
    the per-kind choice — the memory domains of its arguments (the
    estimate of §3.2). *)

val canonicalize : t -> Mapping.t -> Mapping.t
(** Orbit-canonical representative of a mapping: within every task
    orbit ({!Symmetry}), the members' blocks (distribution, strategy,
    processor kind, argument memory kinds) are sorted lexicographically
    and reassigned to the members in ascending tid order.  Idempotent;
    invariant under within-orbit relabelings; the result has the same
    noise-free static cost ([Exec.static_lower_bound]) because shard
    placement is per-task round-robin.  The identity when [symmetry]
    was not requested at {!make} or the graph has no orbit of two or
    more tasks (O(1), allocating nothing); returns the input physically
    unchanged when it is already canonical. *)

val random_mapping : t -> Rng.t -> Mapping.t
(** Uniform sample of a *valid* mapping: pick a processor kind from the
    task's domain, then each argument's memory uniformly among the
    kinds that processor can address.  Used by the ensemble tuner's
    seeding and by property tests.  Canonicalized when [symmetry] is
    active. *)

val random_unconstrained : t -> Rng.t -> Mapping.t
(** Uniform sample ignoring accessibility — processor and memory kinds
    drawn independently, as a constraint-unaware tuner (OpenTuner,
    §4.3) would.  Frequently invalid by design. *)
