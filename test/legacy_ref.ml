(* Verbatim copies of the pre-engine per-algorithm search loops, kept
   as *reference implementations* for the engine equivalence suite
   (test_engine.ml).  The production loops were deleted when every
   algorithm moved onto Search.Engine; these copies pin down the exact
   legacy decision sequence — bound choices, RNG draw order, budget
   check points, incumbent updates — so any engine change that would
   silently alter a search decision fails the equivalence tests.

   Do not "improve" this file: its value is being frozen. *)

(* ------------------------------------------------------------------ *)
(* Descent (legacy lib/search/descent.ml)                              *)
(* ------------------------------------------------------------------ *)

let test_mapping ev candidate (best, best_perf) =
  let perf = Evaluator.evaluate ~bound:best_perf ev candidate in
  if perf < best_perf then (candidate, perf) else (best, best_perf)

let optimize_task ev ~overlap ~should_stop (task : Graph.task) (f0, p0) =
  let g = Evaluator.graph ev in
  let machine = Evaluator.machine ev in
  let space = Evaluator.space ev in
  let incumbent = ref (f0, p0) in
  let test candidate =
    if not (should_stop ()) then
      if Mapping.equal candidate (fst !incumbent) then Evaluator.note_noop_neighbor ev
      else incumbent := test_mapping ev candidate !incumbent
  in
  List.iter
    (fun (d, strat) ->
      let f, _ = !incumbent in
      test (Mapping.set_strategy (Mapping.set_distribute f task.tid d) task.tid strat))
    (Space.distribution_choices space);
  let live_kinds = Space.proc_choices space task.tid in
  List.iter
    (fun k ->
      if not (List.memq k live_kinds) then
        Evaluator.note_dead_coords ev
          (List.length task.args * List.length (Space.mem_choices space k)))
    (Space.proc_choices_all space task.tid);
  List.iter
    (fun k ->
      List.iter
        (fun (c : Graph.collection) ->
          let live_mems = Space.mem_choices_for space ~cid:c.cid k in
          let dead = List.length (Space.mem_choices space k) - List.length live_mems in
          if dead > 0 then Evaluator.note_dead_coords ev dead;
          List.iter
            (fun r ->
              let f, _ = !incumbent in
              let f' = Mapping.set_mem (Mapping.set_proc f task.tid k) c.cid r in
              let f'' =
                match overlap with
                | None -> f'
                | Some o ->
                    Colocation.apply g machine ~overlap:o ~mapping:f' ~t:task.tid
                      ~c:c.cid ~k ~r
              in
              test f'')
            live_mems)
        (Profile.order_args_by_size task))
    live_kinds;
  !incumbent

let sweep ev ~overlap ~should_stop ~profile (f0, p0) =
  let g = Evaluator.graph ev in
  List.fold_left
    (fun acc task ->
      if should_stop () then acc else optimize_task ev ~overlap ~should_stop task acc)
    (f0, p0)
    (Profile.order_tasks_by_runtime g profile)

(* ------------------------------------------------------------------ *)
(* CD (legacy lib/search/cd.ml)                                        *)
(* ------------------------------------------------------------------ *)

let cd_search ?start ?(budget = infinity) ev =
  let g = Evaluator.graph ev in
  let machine = Evaluator.machine ev in
  let f0 = match start with Some f -> f | None -> Mapping.default_start g machine in
  let p0 = Evaluator.evaluate ev f0 in
  let should_stop () = Evaluator.virtual_time ev > budget in
  let profile = Evaluator.profile_for ev f0 in
  sweep ev ~overlap:None ~should_stop ~profile (f0, p0)

(* ------------------------------------------------------------------ *)
(* CCD (legacy lib/search/ccd.ml)                                      *)
(* ------------------------------------------------------------------ *)

let ccd_search ?(rotations = 5) ?start ?(budget = infinity) ev =
  if rotations < 2 then invalid_arg "Ccd.search: rotations must be at least 2";
  let g = Evaluator.graph ev in
  let machine = Evaluator.machine ev in
  let f0 = match start with Some f -> f | None -> Mapping.default_start g machine in
  let p0 = Evaluator.evaluate ev f0 in
  let should_stop () = Evaluator.virtual_time ev > budget in
  let c0 = Overlap.of_graph g in
  let prune_per_rotation =
    let e0 = Overlap.n_edges c0 in
    if e0 = 0 then 0 else ((e0 + rotations - 2) / (rotations - 1))
  in
  let rec rotate r c (f, p) =
    if r > rotations || should_stop () then (f, p)
    else begin
      let overlap = if Overlap.is_empty c then None else Some c in
      let profile = Evaluator.profile_for ev f in
      let f, p = sweep ev ~overlap ~should_stop ~profile (f, p) in
      rotate (r + 1) (Overlap.prune_lightest c prune_per_rotation) (f, p)
    end
  in
  rotate 1 c0 (f0, p0)

(* ------------------------------------------------------------------ *)
(* Annealing (legacy lib/search/annealing.ml)                          *)
(* ------------------------------------------------------------------ *)

let mutate_valid g space rng parent =
  let dims = Array.of_list (Space.dims space) in
  match Rng.choose rng dims with
  | Space.Distribution tid ->
      Mapping.set_distribute parent tid (not (Mapping.distribute_of parent tid))
  | Space.Strategy tid ->
      Mapping.set_strategy parent tid
        (match Mapping.strategy_of parent tid with
        | Mapping.Blocked -> Mapping.Cyclic
        | Mapping.Cyclic -> Mapping.Blocked)
  | Space.Processor tid ->
      let choices = Space.proc_choices space tid in
      let k = Rng.choose_list rng choices in
      let m = Mapping.set_proc parent tid k in
      List.fold_left
        (fun acc (c : Graph.collection) ->
          if Kinds.accessible k (Mapping.mem_of acc c.cid) then acc
          else
            match Kinds.accessible_mem_kinds k with
            | mk :: _ -> Mapping.set_mem acc c.cid mk
            | [] -> acc)
        m (Graph.task g tid).args
  | Space.Memory cid ->
      let owner = (Graph.collection g cid).owner in
      let k = Mapping.proc_of parent owner in
      Mapping.set_mem parent cid
        (Rng.choose_list rng (Space.mem_choices_for space ~cid k))

let annealing_search ?(seed = 11) ?(max_evals = 2000) ?(t0 = 0.3) ?(cooling = 0.995)
    ?start ?(budget = infinity) ev =
  let g = Evaluator.graph ev in
  let machine = Evaluator.machine ev in
  let space = Evaluator.space ev in
  let rng = Rng.create seed in
  let f0 = match start with Some f -> f | None -> Mapping.default_start g machine in
  let p0 = Evaluator.evaluate ev f0 in
  let current = ref (f0, p0) in
  let best = ref (f0, p0) in
  let temp = ref t0 in
  let evals = ref 0 in
  while !evals < max_evals && Evaluator.virtual_time ev <= budget do
    incr evals;
    let candidate = mutate_valid g space rng (fst !current) in
    let u = Rng.float rng 1.0 in
    let _, pcur = !current in
    let threshold =
      if u <= 0.0 then infinity
      else
        let bump = p0 *. Float.max !temp 1e-9 *. -.log u in
        if Float.is_finite bump then pcur +. bump else infinity
    in
    let perf = Evaluator.evaluate ~bound:threshold ev candidate in
    if perf < threshold then current := (candidate, perf);
    if perf < snd !best then best := (candidate, perf);
    temp := !temp *. cooling
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Random search (legacy lib/search/random_search.ml)                  *)
(* ------------------------------------------------------------------ *)

let random_search ?(seed = 7) ?(max_evals = 1000) ?start ?(budget = infinity) ev =
  let g = Evaluator.graph ev in
  let machine = Evaluator.machine ev in
  let space = Evaluator.space ev in
  let rng = Rng.create seed in
  let f0 = match start with Some f -> f | None -> Mapping.default_start g machine in
  let best = ref (f0, Evaluator.evaluate ev f0) in
  let evals = ref 0 in
  while !evals < max_evals && Evaluator.virtual_time ev <= budget do
    incr evals;
    let candidate = Space.random_mapping space rng in
    let perf = Evaluator.evaluate ~bound:(snd !best) ev candidate in
    if perf < snd !best then best := (candidate, perf)
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Ensemble tuner (legacy lib/search/ensemble.ml)                      *)
(* ------------------------------------------------------------------ *)

type bandit_arm = { mutable uses : int; mutable wins : int }

let arm_score arm = float_of_int (arm.wins + 1) /. float_of_int (arm.uses + 2)

let pick_arm rng ~exploration arms =
  if Rng.float rng 1.0 < exploration then Rng.int rng (Array.length arms)
  else begin
    let best = ref 0 in
    Array.iteri (fun i a -> if arm_score a > arm_score arms.(!best) then best := i) arms;
    !best
  end

let flip_strategy = function
  | Mapping.Blocked -> Mapping.Cyclic
  | Mapping.Cyclic -> Mapping.Blocked

let mutate space rng parent =
  let dims = Array.of_list (Space.dims space) in
  match Rng.choose rng dims with
  | Space.Distribution tid ->
      Mapping.set_distribute parent tid (not (Mapping.distribute_of parent tid))
  | Space.Strategy tid ->
      Mapping.set_strategy parent tid (flip_strategy (Mapping.strategy_of parent tid))
  | Space.Processor tid ->
      Mapping.set_proc parent tid (Rng.choose_list rng Kinds.all_proc_kinds)
  | Space.Memory cid ->
      Mapping.set_mem parent cid (Rng.choose_list rng Kinds.all_mem_kinds)

let crossover g rng a b =
  Mapping.make g
    ~strategy:(fun t -> Mapping.strategy_of (if Rng.bool rng then a else b) t.tid)
    ~distribute:(fun t ->
      Mapping.distribute_of (if Rng.bool rng then a else b) t.tid)
    ~proc:(fun t -> Mapping.proc_of (if Rng.bool rng then a else b) t.tid)
    ~mem:(fun c -> Mapping.mem_of (if Rng.bool rng then a else b) c.cid)

let pattern_step space cursor parent =
  let dims = Array.of_list (Space.dims space) in
  let d = dims.(cursor mod Array.length dims) in
  match d with
  | Space.Distribution tid ->
      Mapping.set_distribute parent tid (not (Mapping.distribute_of parent tid))
  | Space.Strategy tid ->
      Mapping.set_strategy parent tid (flip_strategy (Mapping.strategy_of parent tid))
  | Space.Processor tid ->
      let next = function Kinds.Cpu -> Kinds.Gpu | Kinds.Gpu -> Kinds.Cpu in
      Mapping.set_proc parent tid (next (Mapping.proc_of parent tid))
  | Space.Memory cid ->
      let next = function
        | Kinds.System -> Kinds.Zero_copy
        | Kinds.Zero_copy -> Kinds.Frame_buffer
        | Kinds.Frame_buffer -> Kinds.System
      in
      Mapping.set_mem parent cid (next (Mapping.mem_of parent cid))

let ensemble_search ?(config = Ensemble.default_config) ?start ?(budget = infinity) ev =
  let g = Evaluator.graph ev in
  let machine = Evaluator.machine ev in
  let space = Evaluator.space ev in
  let rng = Rng.create config.Ensemble.seed in
  let f0 = match start with Some f -> f | None -> Mapping.default_start g machine in
  let p0 = Evaluator.evaluate ev f0 in
  let best = ref (f0, p0) in
  let arms = Array.init 4 (fun _ -> { uses = 0; wins = 0 }) in
  let pattern_cursor = ref 0 in
  (* ranked by the fold-and-sort oracle, not Profiles_db.top: the
     equivalence then also checks the database's kept ranking *)
  let elites () =
    match Rank_oracle.top (Evaluator.db ev) config.Ensemble.elite_size with
    | [] -> [ fst !best ]
    | es -> List.map (fun e -> e.Profiles_db.mapping) es
  in
  let propose arm =
    match arm with
    | 0 -> Space.random_unconstrained space rng
    | 1 -> mutate space rng (Rng.choose_list rng (elites ()))
    | 2 -> (
        match elites () with
        | [ only ] -> mutate space rng only
        | es -> crossover g rng (Rng.choose_list rng es) (Rng.choose_list rng es))
    | 3 ->
        let c = !pattern_cursor in
        incr pattern_cursor;
        pattern_step space c (fst !best)
    | _ -> assert false
  in
  let suggestions = ref 0 in
  while
    !suggestions < config.Ensemble.max_suggestions
    && Evaluator.virtual_time ev <= budget
  do
    incr suggestions;
    let arm_idx = pick_arm rng ~exploration:config.Ensemble.exploration arms in
    let candidate = propose arm_idx in
    Evaluator.note_suggestion_overhead ev config.Ensemble.suggestion_overhead;
    let perf = Evaluator.evaluate ev candidate in
    let arm = arms.(arm_idx) in
    arm.uses <- arm.uses + 1;
    if perf < snd !best then begin
      arm.wins <- arm.wins + 1;
      best := (candidate, perf)
    end
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Portfolio (legacy lib/search/portfolio.ml)                          *)
(* ------------------------------------------------------------------ *)

let portfolio_search ?(members = Portfolio.default_members) ?(budget = infinity)
    ?(seed = 0) ev =
  if members = [] then invalid_arg "Portfolio.search: no members";
  let share =
    if Float.is_finite budget then budget /. float_of_int (List.length members)
    else infinity
  in
  let g = Evaluator.graph ev in
  let machine = Evaluator.machine ev in
  let start0 = Mapping.default_start g machine in
  let p0 = Evaluator.evaluate ev start0 in
  List.fold_left
    (fun (best, perf) member ->
      let deadline = Evaluator.virtual_time ev +. share in
      let result =
        match member with
        | Portfolio.Ccd rotations -> ccd_search ~rotations ~start:best ~budget:deadline ev
        | Portfolio.Cd -> cd_search ~start:best ~budget:deadline ev
        | Portfolio.Annealing ->
            annealing_search ~seed:(seed + 13) ~start:best ~budget:deadline ev
        | Portfolio.Random ->
            random_search ~seed:(seed + 29) ~start:best ~budget:deadline ev
      in
      let m, p = result in
      if p < perf then (m, p) else (best, perf))
    (start0, p0) members
