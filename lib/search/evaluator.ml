(* A candidate's place in the §5 protocol, the one state [run_protocol]
   works on.  A fresh candidate is a partial with no run done; a cut one
   stays in the partials table, enough to (a) answer a later
   re-suggestion without re-proving the bound when the incumbent has
   only improved, and (b) finish the protocol with the original per-run
   seeds — reproducing the unpruned measurements bit-for-bit — when the
   incumbent has worsened past the proven lower bound. *)
type partial = {
  pbase : int;                (* seed base: run k (1-based) uses pbase + k *)
  mutable pdone : float list; (* objectives of completed runs, newest first *)
  mutable psum : float;       (* chronological sum of pdone *)
  mutable pnext : int;        (* 1-based index of the first incomplete run *)
  mutable plb : float;        (* proven lower bound on the final mean *)
}

type t = {
  machine : Machine.t;
  graph : Graph.t;
  mutable scratch : Exec.scratch option;
      (* compiled problem + reusable simulation state; [None] while a
         paused search waits for its next slice ({!detach_scratch}) *)
  space : Space.t;
  runs : int;
  noise_sigma : float;
  iterations : int option;
  eff_iters : int;         (* [iterations] resolved against the graph *)
  objective : Machine.t -> Exec.result -> float;
  reference : bool;  (* no bound-pruning: every run simulated in full *)
  symmetry : bool;   (* effective flags, as applied to [space] *)
  dominance : bool;
  db : Profiles_db.t;
  partials : (string, partial) Hashtbl.t;
  zero_suffix : float array;
      (* [runs + 1] zeros: the run floors of a protocol that knows none *)
  (* Common random numbers: run k of *every* evaluation uses seed
     [crn_base + k], so all candidates face identical noise streams.
     Comparisons between candidates become paired (lower variance than
     independent draws), and — decisively for throughput — the noise
     streams Exec caches per seed are reusable across the whole search,
     so each seed's draws happen once. *)
  crn_base : int;
  mutable seed_counter : int;  (* post-evaluation window, for [measure] *)
  mutable suggested : int;
  mutable evaluated : int;
  mutable cache_hits : int;
  mutable invalid : int;
  mutable oom : int;
  mutable cut_evals : int;
  mutable cut_runs : int;
  mutable cut_sims : int;
  mutable noop_skips : int;
  mutable dead_coord_skips : int;
  mutable symmetry_skips : int;
  (* bind counters of the scratches this evaluator detached between
     slices *)
  mutable retired_delta_binds : int;
  mutable retired_full_binds : int;
  mutable retired_bind_hits : int;
  mutable virtual_time : float;
  mutable eval_time : float;
  mutable best : (Mapping.t * float) option;
  mutable trace : (float * float) list;  (* newest first *)
  mutable surrogate : Surrogate.t option;
      (* telemetry attach only — the model is trained by the engine and
         consulted by the strategies; [stats] reads its counters here *)
  mutable profiled : (Mapping.t * Profile.t) option;
      (* the last [profile_for] answer, keyed by physical equality *)
}

type stats = {
  s_suggested : int;
  s_evaluated : int;
  s_cache_hits : int;
  s_invalid : int;
  s_oom : int;
  s_cut_evals : int;
  s_cut_runs : int;
  s_cut_sims : int;
  s_noop_skips : int;
  s_dead_coord_skips : int;
  s_symmetry_skips : int;
  s_delta_binds : int;
  s_full_binds : int;
  s_bind_hits : int;
  s_cone_replays : int;
  s_full_replays : int;
  s_surrogate_trained : int;
  s_surrogate_reranks : int;
  s_spearman : float;
}

let default_objective _machine (r : Exec.result) = r.Exec.per_iteration

(* Virtual seconds charged per executed evaluation: the relaunch cost,
   scaled to the simulator's compressed time base so the §5.3
   useful-time fractions keep their relative magnitudes. *)
let eval_overhead = 0.0002

let create ?(runs = 7) ?(noise_sigma = 0.03) ?iterations ?(seed = 0)
    ?(objective = default_objective) ?(extended = false) ?(reference = false)
    ?(domain_prune = true) ?(symmetry = false) ?(dominance = false) ?db ?scratch
    machine graph =
  if runs <= 0 then invalid_arg "Evaluator.create: runs must be positive";
  (* dominance certificates build on the capacity domains *)
  let dominance = dominance && domain_prune in
  let scratch =
    match scratch with
    | Some sc -> sc  (* shared compiled problem, e.g. portfolio members *)
    | None -> Exec.scratch (Exec.compile machine graph)
  in
  {
    machine;
    graph;
    scratch = Some scratch;
    space = Space.make ~extended ~domains:domain_prune ~dominance ~symmetry graph machine;
    runs;
    noise_sigma;
    iterations;
    eff_iters = (match iterations with Some i -> i | None -> graph.Graph.iterations);
    objective;
    reference;
    symmetry;
    dominance;
    db = (match db with Some db -> db | None -> Profiles_db.create ());
    partials = Hashtbl.create 64;
    zero_suffix = Array.make (runs + 1) 0.0;
    crn_base = seed * 1_000_003;
    (* [measure]'s ad-hoc runs draw from a window disjoint from the
       evaluation seeds so they never perturb or reuse the CRN streams *)
    seed_counter = (seed * 1_000_003) + runs;
    suggested = 0;
    evaluated = 0;
    cache_hits = 0;
    invalid = 0;
    oom = 0;
    cut_evals = 0;
    cut_runs = 0;
    cut_sims = 0;
    noop_skips = 0;
    dead_coord_skips = 0;
    symmetry_skips = 0;
    retired_delta_binds = 0;
    retired_full_binds = 0;
    retired_bind_hits = 0;
    virtual_time = 0.0;
    eval_time = 0.0;
    best = None;
    trace = [];
    surrogate = None;
    profiled = None;
  }

let machine t = t.machine
let graph t = t.graph
let space t = t.space
let db t = t.db

let scratch t =
  match t.scratch with
  | Some sc -> sc
  | None -> invalid_arg "Evaluator: no scratch attached (see attach_scratch)"

let retire t sc =
  t.retired_delta_binds <- t.retired_delta_binds + Exec.delta_binds sc;
  t.retired_full_binds <- t.retired_full_binds + Exec.full_binds sc;
  t.retired_bind_hits <- t.retired_bind_hits + Exec.bind_cache_hits sc

(* A paused search keeps its evaluator — profiles database, partials,
   clocks — but not the simulation state, which a worker rebuilds for
   every slice: everything in a scratch is performance state (bind
   cache, noise streams, heaps), never a decision. *)
let detach_scratch t =
  Option.iter (retire t) t.scratch;
  t.scratch <- None

let attach_scratch t sc =
  match t.scratch with
  | Some held when held == sc -> ()
  | _ ->
      detach_scratch t;
      t.scratch <- Some sc

let note_best t mapping perf =
  match t.best with
  | Some (_, p) when p <= perf -> ()
  | _ ->
      t.best <- Some (mapping, perf);
      t.trace <- (t.virtual_time, perf) :: t.trace

(* Conservative slack on the pruning comparisons: the incremental
   chronological sum and the final [Stats.mean] fold accumulate the
   same runs in different orders, so they can differ by a few ulps.
   Pruning must only ever under-prune (a candidate the unpruned
   protocol would keep must never be cut), so every "provably >= bound"
   test requires clearing bound * (1 + 1e-9) — about seven orders of
   magnitude more slack than the worst-case rounding skew, and seven
   fewer than any perf difference the search could act on. *)
let prune_slack = 1.0 +. 1e-9

(* The hot-path simulation call: status code + plane accessors instead
   of allocated result records.  In the search's steady state a quiet
   run allocates nothing (see Exec's quiet interface). *)
let quiet_run t ~cutoff ~seed mapping =
  Exec.simulate_quiet (scratch t) mapping ~noise_sigma:t.noise_sigma ~seed
    ~fallback:false ~iterations:t.eff_iters ~cutoff

(* Objective of the run that just finished on the scratch planes.  The
   default objective reads one plane slot; a custom objective gets the
   materialized record it expects (allocating — custom objectives are
   the cold case). *)
let obj_of_run t =
  if t.objective == default_objective then Exec.quiet_per_iteration (scratch t)
  else t.objective t.machine (Exec.quiet_result (scratch t))

let effective_iterations t = float_of_int t.eff_iters

(* ---- the run protocol ---------------------------------------------------

   Every candidate [evaluate] measures runs the §5 protocol in
   [run_protocol], over its [partial].  Run k takes seed [pbase + k]
   and is cut when its clock reaches
   [(threshold - psum - suffix.(k)) * iterations], where [threshold] is
   [runs * bound * prune_slack] (infinite without a bound, so nothing
   is cut) and [suffix.(k)] is a certified lower bound on the
   objectives of runs k+1 .. runs (zero when none is known: the runs
   to come might take no time).  Run times are nonnegative, so once
   the runs done plus that floor reach the threshold, the final mean
   reaches the bound whatever the remaining runs measure: the candidate
   is a certified loser.  Every such test only ever under-prunes, so
   the accept/reject sequence, the RNG stream and every completed
   measurement are those of the unpruned protocol. *)

let threshold t bound = bound *. prune_slack *. float_of_int t.runs

(* Record [p] as cut before its run [p.pnext], aborted or never
   started: the partials table now owes runs [p.pnext .. runs].  A cut
   candidate costs exactly the simulated wall it ran (the relaunch
   overhead is charged when a protocol completes) and answers
   [infinity], which no bound accepts. *)
let cut_partial t ~key p ~plb ~wall =
  t.cut_evals <- t.cut_evals + 1;
  t.cut_runs <- t.cut_runs + (t.runs - p.pnext + 1);
  p.plb <- plb;
  Hashtbl.replace t.partials key p;
  t.virtual_time <- t.virtual_time +. wall;
  t.eval_time <- t.eval_time +. wall;
  infinity

let run_protocol t ~key mapping p ~bound ~suffix =
  let runs_f = float_of_int t.runs and iters = effective_iterations t in
  let threshold = threshold t bound in
  (* [wall]: the makespans of this call's runs, summed in run order *)
  let rec go wall =
    let k = p.pnext in
    if k > t.runs then begin
      t.evaluated <- t.evaluated + 1;
      t.virtual_time <- t.virtual_time +. wall +. eval_overhead;
      t.eval_time <- t.eval_time +. wall;
      let entry = Profiles_db.record_key t.db ~key mapping p.pdone in
      note_best t mapping entry.Profiles_db.perf;
      entry.Profiles_db.perf
    end
    else if p.psum +. suffix.(k - 1) >= threshold then
      (* certified before run k starts: no simulation aborted *)
      cut_partial t ~key p ~plb:((p.psum +. suffix.(k - 1)) /. runs_f) ~wall
    else
      let cutoff = (threshold -. p.psum -. suffix.(k)) *. iters in
      let st = quiet_run t ~cutoff ~seed:(p.pbase + k) mapping in
      if st = Exec.st_finished then begin
        let obj = obj_of_run t in
        p.pdone <- obj :: p.pdone;
        p.psum <- p.psum +. obj;
        p.pnext <- k + 1;
        go (wall +. Exec.quiet_makespan (scratch t))
      end
      else if st = Exec.st_cut then begin
        let tcut = Exec.quiet_cut_time (scratch t) in
        t.cut_sims <- t.cut_sims + 1;
        cut_partial t ~key p
          ~plb:((p.psum +. (tcut /. iters) +. suffix.(k)) /. runs_f)
          ~wall:(wall +. tcut)
      end
      else
        (* unreachable: [certify] placed this mapping, and placement is
           deterministic *)
        failwith
          ("Evaluator.evaluate: "
          ^ Placement.error_to_string (Option.get (Exec.quiet_error (scratch t))))
  in
  go 0.0

(* A fresh candidate's first step.  Validating and resolving its
   placement answers an invalid or OOM mapping before any run (an OOM
   costs one failed launch: the overhead).  Under a finite [bound] it
   then tries to certify a loser before run 1: first from the
   noise-free static floor [s], which holds for every run, then from
   each run's own floor under its noise draws (Exec.run_lower_bound),
   in seed order, stopping once the floors drawn plus [s] for each run
   left reach the threshold.  Otherwise the per-run floors become the
   protocol's [suffix]. *)
let certify t ~key mapping ~bound =
  let invalid () =
    t.invalid <- t.invalid + 1;
    infinity
  in
  if not (Mapping.is_valid t.graph t.machine mapping) then invalid ()
  else
    match
      if bound = infinity then
        Result.map (fun _ -> 0.0) (Exec.bind (scratch t) ~fallback:false mapping)
      else
        Exec.static_lower_bound ?iterations:t.iterations (scratch t) mapping
    with
    | Error (Placement.Invalid_mapping _) -> invalid ()
    | Error (Placement.Out_of_memory _) ->
        t.oom <- t.oom + 1;
        t.virtual_time <- t.virtual_time +. eval_overhead;
        infinity
    | Ok s_makespan ->
        let p = { pbase = t.crn_base; pdone = []; psum = 0.0; pnext = 1; plb = 0.0 } in
        let runs_f = float_of_int t.runs and iters = effective_iterations t in
        let threshold = threshold t bound and s = s_makespan /. iters in
        if bound = infinity then run_protocol t ~key mapping p ~bound ~suffix:t.zero_suffix
        else if s *. runs_f >= threshold then cut_partial t ~key p ~plb:s ~wall:0.0
        else begin
          (* suffix.(j) holds run j+1's floor until the last pass sums them *)
          let suffix = Array.make (t.runs + 1) 0.0 in
          let rec floors j lbsum =
            if j = t.runs then begin
              for i = t.runs - 1 downto 0 do
                suffix.(i) <- suffix.(i + 1) +. suffix.(i)
              done;
              run_protocol t ~key mapping p ~bound ~suffix
            end
            else begin
              (match
                 Exec.run_lower_bound ~noise_sigma:t.noise_sigma ~seed:(p.pbase + j + 1)
                   ?iterations:t.iterations (scratch t) mapping
               with
              | Ok l -> suffix.(j) <- l /. iters
              | Error _ -> assert false (* the static floor placed it *));
              let lbsum = lbsum +. suffix.(j) in
              let floor = lbsum +. (float_of_int (t.runs - j - 1) *. s) in
              if floor >= threshold then
                cut_partial t ~key p ~plb:(floor /. runs_f) ~wall:0.0
              else floors (j + 1) lbsum
            end
          in
          floors 0 0.0
        end

(* [evaluate] with the canonical key already computed: the key serves
   both the db probe and the partials table, so it is derived exactly
   once per suggestion. *)
let eval_keyed ?bound t key mapping =
  t.suggested <- t.suggested + 1;
  match Profiles_db.find_key t.db key with
  | Some entry ->
      t.cache_hits <- t.cache_hits + 1;
      entry.Profiles_db.perf
  | None -> (
      (* Pruning is exact only for the default objective: the clock is
         a lower bound on the makespan, hence on per-iteration time,
         but not on an arbitrary objective (e.g. energy). *)
      let bound =
        match bound with
        | Some b when (not t.reference) && Float.is_finite b && t.objective == default_objective
          ->
            b
        | _ -> infinity
      in
      match Hashtbl.find_opt t.partials key with
      | None -> certify t ~key mapping ~bound
      | Some p when p.plb >= bound *. prune_slack ->
          (* still provably no better than the incumbent *)
          t.cut_evals <- t.cut_evals + 1;
          infinity
      | Some p ->
          (* The incumbent worsened below this candidate's proven lower
             bound: finish the protocol with its original seeds,
             reproducing what the unpruned evaluation would have
             measured.  No floor is known for the runs to come. *)
          Hashtbl.remove t.partials key;
          t.cut_runs <- t.cut_runs - (t.runs - p.pnext + 1);
          run_protocol t ~key mapping p ~bound ~suffix:t.zero_suffix)

let evaluate ?bound t mapping = eval_keyed ?bound t (Mapping.canonical_key mapping) mapping

let note_suggestion_overhead t dt =
  if dt < 0.0 then invalid_arg "Evaluator.note_suggestion_overhead: negative";
  t.virtual_time <- t.virtual_time +. dt

let note_noop_neighbor t = t.noop_skips <- t.noop_skips + 1
let note_symmetry_skip t = t.symmetry_skips <- t.symmetry_skips + 1

let note_dead_coords t n =
  if n < 0 then invalid_arg "Evaluator.note_dead_coords: negative";
  t.dead_coord_skips <- t.dead_coord_skips + n

let note_warm_start (_ : t) = ()
let attach_surrogate t sg = t.surrogate <- Some sg

let best t = t.best
let trace t = List.rev t.trace
let virtual_time t = t.virtual_time
let suggested t = t.suggested
let evaluated t = t.evaluated
let cache_hits t = t.cache_hits
let invalid_count t = t.invalid
let oom_count t = t.oom
let cut_evals t = t.cut_evals
let cut_runs t = t.cut_runs
let cut_sims t = t.cut_sims
let noop_skips t = t.noop_skips
let dead_coord_skips t = t.dead_coord_skips
let symmetry_skips t = t.symmetry_skips
let eval_time t = t.eval_time

let stats t =
  let held count = match t.scratch with Some sc -> count sc | None -> 0 in
  {
    s_suggested = t.suggested;
    s_evaluated = t.evaluated;
    s_cache_hits = t.cache_hits;
    s_invalid = t.invalid;
    s_oom = t.oom;
    s_cut_evals = t.cut_evals;
    s_cut_runs = t.cut_runs;
    s_cut_sims = t.cut_sims;
    s_noop_skips = t.noop_skips;
    s_dead_coord_skips = t.dead_coord_skips;
    s_symmetry_skips = t.symmetry_skips;
    s_delta_binds = t.retired_delta_binds + held Exec.delta_binds;
    s_full_binds = t.retired_full_binds + held Exec.full_binds;
    s_bind_hits = t.retired_bind_hits + held Exec.bind_cache_hits;
    s_cone_replays = 0;
    s_full_replays = 0;
    s_surrogate_trained = (match t.surrogate with Some s -> Surrogate.trained s | None -> 0);
    s_surrogate_reranks = (match t.surrogate with Some s -> Surrogate.reranks s | None -> 0);
    s_spearman = (match t.surrogate with Some s -> Surrogate.spearman s | None -> Float.nan);
  }

(* ---- checkpoint support -------------------------------------------------
   The evaluator's mutable state is part of every search decision: the
   virtual clock feeds the budget test, the partials table changes how a
   re-suggested candidate is answered, and [seed_counter] decides the
   seeds of any post-search [measure] calls.  Serializing it with hex
   floats ([%h]) makes restore bit-exact.  The profiles database is
   saved separately ({!Profiles_db.save}) by the checkpoint envelope;
   Exec's per-seed noise streams and bind cache are pure performance
   state and are rebuilt on demand after a restore. *)

let fingerprint t =
  (* [symmetry] changes what Space.random_mapping returns and which
     candidates the engine's seen-set skips; [dominance] changes the
     choice lists every strategy enumerates.  Both are decision state,
     so — unlike the surrogate, whose presence the snapshot itself
     records — they must match between the checkpointing and the
     resuming evaluator.  [pr] is [not reference] (it once named the
     prune flag), so default evaluators keep their historical
     fingerprint and older checkpoints still resume.  The fallback
     flag [f], the penalty [p] and the overhead [o] are constants now,
     written as before so that existing checkpoints and serve state
     directories still resume. *)
  Printf.sprintf "%s|%s|r%d|n%h|f%b|i%s|p%h|o%h|pr%b|c%d|sy%b|do%b"
    t.machine.Machine.name t.graph.Graph.gname t.runs t.noise_sigma false
    (match t.iterations with None -> "-" | Some i -> string_of_int i)
    infinity eval_overhead (not t.reference) t.crn_base t.symmetry t.dominance

let save_state t =
  let fl = Printf.sprintf "%h" in
  let counters =
    Printf.sprintf "counters %d %d %d %d %d %d %d %d %d %d %d" t.suggested
      t.evaluated t.cache_hits t.invalid t.oom t.cut_evals t.cut_runs t.cut_sims
      t.noop_skips t.dead_coord_skips t.symmetry_skips
  in
  let clocks = Printf.sprintf "clocks %s %s" (fl t.virtual_time) (fl t.eval_time) in
  let seed = Printf.sprintf "seed_counter %d" t.seed_counter in
  let best =
    match t.best with
    | None -> "best none"
    | Some (m, p) -> Printf.sprintf "best %s %s" (fl p) (Mapping.canonical_key m)
  in
  let trace =
    Printf.sprintf "trace %d" (List.length t.trace)
    :: List.map (fun (vt, p) -> Printf.sprintf "t %s %s" (fl vt) (fl p)) t.trace
  in
  let partial_lines =
    Hashtbl.fold
      (fun key p acc ->
        Printf.sprintf "p %s %d %d %s %s %d%s" key p.pbase p.pnext (fl p.psum)
          (fl p.plb) (List.length p.pdone)
          (String.concat "" (List.map (fun x -> " " ^ fl x) p.pdone))
        :: acc)
      t.partials []
    (* deterministic checkpoint bytes regardless of hash order *)
    |> List.sort compare
  in
  (counters :: clocks :: seed :: best :: trace)
  @ (Printf.sprintf "partials %d" (List.length partial_lines) :: partial_lines)

let restore_state t lines =
  let fail fmt = Printf.ksprintf (fun m -> Error ("Evaluator.restore_state: " ^ m)) fmt in
  let float_of s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> failwith ("Evaluator.restore_state: bad float " ^ s)
  in
  let int_of s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> failwith ("Evaluator.restore_state: bad int " ^ s)
  in
  let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  try
    match lines with
    | counters :: clocks :: seed :: best :: rest -> (
        (match words counters with
        (* pre-symmetry checkpoints carry 10 counters; current ones 11 *)
        | [ "counters"; a; b; c; d; e; f; g; h; i; j ]
        | [ "counters"; a; b; c; d; e; f; g; h; i; j; _ ] as w ->
            t.suggested <- int_of a;
            t.evaluated <- int_of b;
            t.cache_hits <- int_of c;
            t.invalid <- int_of d;
            t.oom <- int_of e;
            t.cut_evals <- int_of f;
            t.cut_runs <- int_of g;
            t.cut_sims <- int_of h;
            t.noop_skips <- int_of i;
            t.dead_coord_skips <- int_of j;
            t.symmetry_skips <-
              (match w with [ _; _; _; _; _; _; _; _; _; _; _; k ] -> int_of k | _ -> 0)
        | _ -> failwith "Evaluator.restore_state: bad counters line");
        (match words clocks with
        | [ "clocks"; vt; et ] ->
            t.virtual_time <- float_of vt;
            t.eval_time <- float_of et
        | _ -> failwith "Evaluator.restore_state: bad clocks line");
        (match words seed with
        | [ "seed_counter"; s ] -> t.seed_counter <- int_of s
        | _ -> failwith "Evaluator.restore_state: bad seed_counter line");
        (match words best with
        | [ "best"; "none" ] -> t.best <- None
        | [ "best"; p; key ] -> (
            match Mapping.of_canonical_key t.graph key with
            | Some m -> t.best <- Some (m, float_of p)
            | None -> failwith "Evaluator.restore_state: best key mismatch")
        | _ -> failwith "Evaluator.restore_state: bad best line");
        let take_count tag = function
          | l :: rest -> (
              match words l with
              | [ w; n ] when w = tag -> (int_of n, rest)
              | _ -> failwith ("Evaluator.restore_state: expected " ^ tag ^ " line"))
          | [] -> failwith ("Evaluator.restore_state: missing " ^ tag ^ " line")
        in
        let n_trace, rest = take_count "trace" rest in
        let rec read_trace n acc rest =
          if n = 0 then (List.rev acc, rest)
          else
            match rest with
            | l :: rest -> (
                match words l with
                | [ "t"; vt; p ] -> read_trace (n - 1) ((float_of vt, float_of p) :: acc) rest
                | _ -> failwith "Evaluator.restore_state: bad trace line")
            | [] -> failwith "Evaluator.restore_state: truncated trace"
        in
        (* lines were emitted newest-first, as [t.trace] holds them, and
           [read_trace] keeps their order *)
        let trace, rest = read_trace n_trace [] rest in
        t.trace <- trace;
        let n_partials, rest = take_count "partials" rest in
        Hashtbl.reset t.partials;
        let rec read_partials n rest =
          if n = 0 then rest
          else
            match rest with
            | l :: rest -> (
                match words l with
                | "p" :: key :: pbase :: pnext :: psum :: plb :: ndone :: done_s ->
                    let nd = int_of ndone in
                    if List.length done_s <> nd then
                      failwith "Evaluator.restore_state: bad partial run count";
                    Hashtbl.replace t.partials key
                      {
                        pbase = int_of pbase;
                        pdone = List.map float_of done_s;
                        psum = float_of psum;
                        pnext = int_of pnext;
                        plb = float_of plb;
                      };
                    read_partials (n - 1) rest
                | _ -> failwith "Evaluator.restore_state: bad partial line")
            | [] -> failwith "Evaluator.restore_state: truncated partials"
        in
        match read_partials n_partials rest with
        | [] -> Ok ()
        | l :: _ -> fail "trailing line %S" l)
    | _ -> fail "truncated state"
  with Failure m -> Error m

(* Fresh-seed measurement, the one path for [measure] and the final
   protocol.  The seeds are reserved up front, as one increment per run
   in job order assigned them: job [j] is run [j mod runs] of
   [maps.(j / runs)] under seed [base + j + 1].  The calling domain
   binds each mapping on the evaluator's scratch, in order, so the
   first that cannot be placed raises the message a sequential pass
   would, before any run.  With one mapping the runners read the
   scratch's own bind; with several, every bind but the last is frozen
   before the next overwrites it.  The jobs then split into contiguous
   chunks, one per domain, as many domains as their instance-runs pay
   for ([Par.domains]): chunk 0 on the scratch's runner, the others
   each on a runner of their own, so a worker builds no scratch,
   placement or bind.  The lists are rebuilt newest-first, so
   [Stats.mean] folds the same floats in the same order. *)
let measure_with t ?runs ?iterations ~objective mappings =
  let runs = Option.value runs ~default:t.runs in
  if runs < 1 then invalid_arg "Evaluator.measure: runs must be positive";
  let iterations = Option.value iterations ~default:t.eff_iters in
  let custom = objective && t.objective != default_objective in
  let maps = Array.of_list mappings in
  let n = Array.length maps * runs in
  let base = t.seed_counter in
  t.seed_counter <- base + n;
  let own = scratch t in
  let last = Array.length maps - 1 in
  let binds =
    Array.mapi
      (fun i m ->
        match Exec.bind own ~fallback:false m with
        | Ok b -> if i < last then Exec.freeze b else b
        | Error e -> failwith ("Evaluator.measure: " ^ Placement.error_to_string e))
      maps
  in
  let out = Array.make n 0.0 in
  let k =
    Par.domains ~cores:(Domain.recommended_domain_count ()) ~jobs:n
      ~work:(n * iterations * Exec.compiled_slots (Exec.compiled_of_scratch own))
  in
  let chunk c () =
    let r =
      if c = 0 then Exec.scratch_runner own
      else Exec.runner (Exec.compiled_of_scratch own)
    in
    for j = c * n / k to ((c + 1) * n / k) - 1 do
      Exec.run_fresh r binds.(j / runs) ~noise_sigma:t.noise_sigma ~seed:(base + j + 1)
        ~iterations;
      out.(j) <-
        (if custom then t.objective t.machine (Exec.runner_result r)
         else Exec.runner_per_iteration r)
    done
  in
  ignore (Par.map ~domains:k (List.init k chunk) : unit list);
  List.init (Array.length maps) (fun i ->
      List.init runs (fun r -> out.((i * runs) + runs - 1 - r)))

let measure t ?runs ?iterations mapping =
  List.hd (measure_with t ?runs ?iterations ~objective:false [ mapping ])

let measure_objective t ?runs mapping =
  List.hd (measure_with t ?runs ~objective:true [ mapping ])

let measure_objectives t ?runs mappings = measure_with t ?runs ~objective:true mappings

(* CCD re-profiles its incumbent at every rotation, and the incumbent
   rarely moves: a noise-free run of the physically same mapping gives
   the same profile, so the last answer is reused. *)
let profile_for t mapping =
  match t.profiled with
  | Some (m, p) when m == mapping -> p
  | _ ->
      let p =
        match
          Exec.simulate ~noise_sigma:0.0 ?iterations:t.iterations
            (scratch t) mapping
        with
        | Ok r ->
            Profile.of_times t.graph
              (Array.to_list (Array.mapi (fun tid s -> (tid, s)) r.Exec.task_times))
        | Error _ -> Profile.uniform t.graph
      in
      t.profiled <- Some (mapping, p);
      p
