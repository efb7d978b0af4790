(** Static feasibility analysis of a (machine, graph) pair (§4.2).

    The search only ever discovers a §4.2 constraint violation
    dynamically — by paying for a {!Placement.resolve} that returns
    [Invalid_mapping]/OOM, or by answering a constraint-unaware
    proposal with a penalty.  Everything this module derives is known
    before the first evaluation:

    - {b machine lint}: memory kinds no present processor kind can
      reach (constraint (1) unsatisfiable for any collection mapped
      there), dead channels, zero-capacity memories, asymmetric
      channel pairs;
    - {b coordinate domains}: for every task the processor kinds with
      a variant, present processors and a capacity-feasible memory for
      each argument; for every collection the memory kinds whose
      capacity admits its footprint.  Singleton domains are {e forced}
      coordinates; an empty domain certifies infeasibility;
    - {b co-location analysis}: union-find over the overlap graph C
      produces the constraint groups of each CCD rotation; member
      domains are intersected and groups whose combined footprint fits
      no single memory kind are flagged;
    - {b critical-path / per-kind work summary}: mapping-independent
      floors and totals.

    {b Soundness contract} (test/test_analysis.ml): the analyzer never
    excludes a coordinate value that [Mapping.validate] + strict
    [Placement.resolve] would accept.  Domain exclusions therefore use
    only certificates that imply {e every} completion of the partial
    assignment fails.  The capacity certificate is the least fixed
    point [fit(c,m) = bytes(c) <= capacity(m) \/ exists s in
    sources(c). fit(s,m)] over the alias sources (edge producers and
    full overlap partners, mirroring [Placement.plan]): an aliased
    instance costs no capacity only when a source instance occupies the
    same physical memory, and every alias chain terminates in a charged
    instance, so when no transitive source fits, every strict placement
    of [c] in [m] OOMs.  Co-location violations are at most warnings:
    [Placement.resolve] does not enforce constraint (2), and CCD
    relaxes C to empty by its final rotation. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string

type diagnostic = {
  severity : severity;
  code : string;     (** stable machine-readable code, e.g. ["unreachable-memory"] *)
  subject : string;  (** the coordinate or machine element, analyzer-style:
                         ["task 3 (update)"], ["collection c7 (halo)"], ["machine"] *)
  message : string;
}

val machine_lint : Machine.t -> diagnostic list
(** The machine-only diagnostics of {!analyze}, in report order
    (before the severity sort): absent processor kinds, unreachable and
    zero-capacity memory kinds, the channel lint, the interconnect
    lint.  The channel lint visits each memory's same-node partners
    plus one cross-node representative, so it is linear in the number
    of nodes. *)

(** {1 Coordinate domains} *)

type domains
(** Per-coordinate value domains: for each task the feasible processor
    kinds, for each (collection, owner kind) the feasible memory
    kinds.  Sound by construction (see above); an empty domain means
    the coordinate certifiably admits no strictly-placeable value. *)

val compute_domains : Machine.t -> Graph.t -> domains
(** The domain computation alone — cheap (no lint, no groups); what
    {!Space} uses to restrict sampling and neighbour generation. *)

val proc_domain : domains -> int -> Kinds.proc_kind list
(** Feasible processor kinds of task [tid], preserving the task's
    variant order (so an unpruned domain is exactly the list
    {!Space.proc_choices} used before domains existed).  Subset of the
    task's variants present on the machine. *)

val mem_domain : domains -> cid:int -> Kinds.proc_kind -> Kinds.mem_kind list
(** Feasible memory kinds for collection [cid] when its owner runs on
    kind [k]: [Kinds.accessible_mem_kinds k] minus the certified
    capacity-infeasible kinds, preserving the fastest-first order. *)

val mem_feasible : domains -> cid:int -> Kinds.mem_kind -> bool
(** Whether [m] is capacity-feasible for [cid] (ignoring owner-kind
    accessibility). *)

(** {1 Dominance} *)

type dominance
(** Per-coordinate value dominance beyond capacity pruning: a value is
    recorded as dominated when replacing it by its dominator in {e any}
    completion of the partial assignment yields an equal-or-better
    noise-free cost.  Two conservative certificates are used (see
    DESIGN.md §14): memory kinds of communication-free collections
    whose dominator has >= execution bandwidth, fits directly and
    cannot be crowded past capacity by any co-resident placement; and
    processor kinds of tasks whose arguments are forced to Zero-copy
    under the dominated kind, where the swap keeps every memory
    instance (hence every copy and capacity charge) identical and the
    dominator has an exclusive processor pool, no more launch overhead,
    no slower all-Zero-copy duration and at least as many processors
    per node. *)

val compute_dominance : Machine.t -> Graph.t -> domains -> dominance

val dominated_procs :
  dominance -> int -> (Kinds.proc_kind * Kinds.proc_kind) list
(** [(dominated, dominator)] pairs for task [tid]; dominators always
    survive the pruning themselves. *)

val dominated_mems :
  dominance -> cid:int -> Kinds.proc_kind -> (Kinds.mem_kind * Kinds.mem_kind) list
(** [(dominated, dominator)] pairs for collection [cid] under owner
    kind [k]. *)

val proc_surviving :
  dominance -> int -> Kinds.proc_kind list -> Kinds.proc_kind list
(** Filter a processor choice list of task [tid] down to undominated
    values, order preserved; never empties a list that contains a
    dominator. *)

val mem_surviving :
  dominance -> cid:int -> Kinds.proc_kind -> Kinds.mem_kind list -> Kinds.mem_kind list

val n_dominated : dominance -> int
(** Total dominated values over both coordinate families. *)

(** {1 Co-location groups} *)

type group = {
  members : int list;            (** cids, ascending *)
  combined_bytes : float;        (** sum of member footprints (no alias discount) *)
  common_kinds : Kinds.mem_kind list;
      (** memory kinds every member can use under some feasible owner
          kind, [Kinds.all_mem_kinds] order *)
  fitting_kinds : Kinds.mem_kind list;
      (** subset of [common_kinds] whose per-memory capacity admits
          [combined_bytes] *)
}

(** {1 Work / critical-path summary} *)

type summary = {
  n_tasks : int;
  n_collections : int;
  n_edges : int;
  n_overlaps : int;
  instances_per_iteration : int;  (** sum of group sizes *)
  iterations : int;
  total_flops : float;
  total_bytes : float;            (** per-shard bytes over all collections *)
  depth : int;                    (** critical-path length in tasks (non-carried edges) *)
  dispatch_floor : float;
      (** depth * runtime_dispatch * iterations: no mapping finishes an
          iteration chain faster than its dispatch serialization *)
  work_seconds : (Kinds.proc_kind * float) list;
      (** per present kind: total compute seconds if every task with a
          variant for that kind ran there (efficiency-scaled) *)
  forced_tasks : int;             (** singleton processor domains *)
  forced_collections : int;       (** collections with one feasible memory kind *)
}

(** {1 Analysis} *)

type t

val analyze : ?rotations:int -> Machine.t -> Graph.t -> t
(** Full analysis: lint + domains + per-rotation co-location groups
    ([rotations] defaults to 5, matching {!Ccd.make}) + summary. *)

val diagnostics : t -> diagnostic list
(** All diagnostics, errors first, in a deterministic order. *)

val errors : t -> diagnostic list
val warnings : t -> diagnostic list
val feasible : t -> bool
(** No error-level diagnostic: some mapping may validate and place. *)

val domains : t -> domains
val dominance : t -> dominance
val symmetry : t -> Symmetry.t
(** Task orbits of the graph (see {!Symmetry}). *)

val node_classes : t -> int array array
(** Machine-node equivalence classes by kind-signature
    ({!Symmetry.node_classes} of the analyzed machine). *)

val log2_space : t -> float
(** log₂ of the search-space size after domain and dominance pruning
    (paper space: distribution bit × kinds × argument memories). *)

val log2_symmetry_reduction : t -> float
(** Bits saved by quotienting the space by the task orbits
    ({!Symmetry.log2_reduction} with this analysis' pruned domains). *)

val groups : t -> group list list
(** Constraint groups per rotation (head = rotation 1 = full C); only
    groups of >= 2 members are listed.  The final rotation's list is
    empty by construction when the CCD schedule prunes C completely. *)

val summary : t -> summary

val report : Format.formatter -> t -> unit
(** Structured, deterministic text report (the CLI's [analyze] output
    and the golden files under test/golden/). *)

val to_json : t -> string
(** The same content as a single-line-per-field JSON object. *)
