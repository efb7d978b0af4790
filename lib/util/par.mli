(** Independent jobs across domains. *)

val default_domains : int -> int
(** The domain count for [n] jobs:
    [min 4 (Domain.recommended_domain_count ())], capped at [n], at
    least 1. *)

val map : ?domains:int -> (unit -> 'a) list -> 'a list
(** [map ~domains jobs] runs the thunks across [domains] worker
    domains (including the calling one) and returns their results in
    input order.  [domains] defaults to {!default_domains}, and is
    capped at the number of jobs; [1] runs everything inline.  If a
    [Domain.spawn] fails (the runtime's domain limit), the domains
    that did start run its jobs.  Jobs must not share mutable state.
    The first job exception (if any) is re-raised after all domains
    are joined.
    @raise Invalid_argument if [domains < 1]. *)
