type member_result = {
  member : string;
  mapping : Mapping.t;
  perf : float;
  evaluated : int;
  suggested : int;
  steps : int;
}

(* Tighten every plain proposal's pruning bound with the best perf any
   member has published so far.  Values at or above the member's own
   bound are decision-equivalent rejections, so a *lower* shared bound
   only converts certain-rejections into cheaper certain-rejections —
   but which candidates get cut depends on cross-domain timing, so
   shared-bound runs trade reproducibility for pruning power.  Batch
   proposals are left untouched: Propose_batch's short-circuit contract
   requires the bound to be exactly the strategy's acceptance
   threshold. *)
let tighten_bounds cell (strat : Engine.strategy) =
  {
    strat with
    Engine.step =
      (fun ctx ->
        match strat.Engine.step ctx with
        | Engine.Propose (c, h) ->
            let shared = Atomic.get cell in
            let bound =
              match h.Engine.bound with
              | Some b -> Some (Float.min b shared)
              | None -> if shared = infinity then None else Some shared
            in
            Engine.Propose (c, { h with Engine.bound })
        | step -> step);
  }

let publish_best cell p =
  let rec go () =
    let cur = Atomic.get cell in
    if p < cur && not (Atomic.compare_and_set cell cur p) then go ()
  in
  go ()

let run_members ?domains ?(members = Portfolio.default_members) ?(budget = infinity)
    ?(seed = 0) ?(runs = 7) ?(noise_sigma = 0.03) ?iterations ?(batch = false)
    ?(share_bound = false) machine graph =
  if members = [] then invalid_arg "Parallel.run_members: no members";
  (* Compile once — the compiled problem is immutable and shared by
     every domain.  Each domain lazily builds ONE scratch and all its
     members reuse it: members on a domain run sequentially (the job
     queue deals one job at a time per worker), so the sharing is safe,
     and it lets Exec's bind cache and noise streams hit across members
     instead of being rebuilt per member.  Both are decision-neutral
     (bit-identical values), so results still match fully-private runs. *)
  let compiled = Exec.compile machine graph in
  let scratch_key = Domain.DLS.new_key (fun () -> Exec.scratch compiled) in
  let best_cell = Atomic.make infinity in
  let job index member () =
    let scratch = Domain.DLS.get scratch_key in
    (* per-member evaluator: profiles db and noise stream stay private;
       only the simulation scratch is per-domain *)
    let ev =
      Evaluator.create ~runs ~noise_sigma ?iterations
        ~seed:(seed + ((index + 1) * 7919))
        ~scratch machine graph
    in
    let start = Mapping.default_start graph machine in
    let p0 = Evaluator.evaluate ev start in
    if share_bound then publish_best best_cell p0;
    let deadline = Evaluator.virtual_time ev +. budget in
    let strat = Portfolio.member_strategy ~batch ~seed member ev in
    let strat = if share_bound then tighten_bounds best_cell strat else strat in
    let on_event =
      if share_bound then fun ev ->
        match ev with
        | Engine.Improve { perf; _ } -> publish_best best_cell perf
        | _ -> ()
      else fun _ -> ()
    in
    (* the engine re-evaluates [start] (a cache hit, keeping legacy
       suggestion counts) and its budget check uses the evaluator's
       absolute virtual clock, so the deadline computed above is the
       member's private budget exactly as before *)
    let o = Engine.run ~budget:(Budget.of_virtual deadline) ~on_event ~start ev strat in
    let m, p = (o.Engine.best, o.Engine.perf) in
    let m, p = if p0 < p then (start, p0) else (m, p) in
    {
      member = Portfolio.member_name member;
      mapping = m;
      perf = p;
      evaluated = Evaluator.evaluated ev;
      suggested = Evaluator.suggested ev;
      steps = o.Engine.steps;
    }
  in
  Par.map ?domains (List.mapi job members)

let best = function
  | [] -> invalid_arg "Parallel.best: empty result list"
  | r :: rest -> List.fold_left (fun acc r -> if r.perf < acc.perf then r else acc) r rest
