(* A batch is a run of single proposals.

   [Engine.run] hands each candidate of a [Propose_batch] to the code
   that handles a [Propose]: under the batch's bound, with the budget
   checked and the seen-set consulted right before it, a checkpoint at
   the same trial boundaries, and the batch ending at its first
   acceptance.  So CCD proposing each task's neighbour set as one batch
   ([~batch:true ~min_batch:1]) must decide exactly what CCD proposing
   one candidate per step ([~batch:false]) decides, and so must a
   ranked pair, which orders each set by a surrogate the engine trains.

   One property per app and pair runs on lassen:4, with the evaluators
   built as [Driver.session] builds them (symmetry and dominance on, so
   the seen-set answers re-proposed keys), under a random virtual-time
   budget (sometimes none) and a random trial cap.  The two runs of a
   pair must agree on trials, evaluations, suggestions, seen-set skips,
   the best key and perf bits, and everything [Evaluator.save_state]
   captures.  A separate batch loop that checked only the trial cap
   between candidates, and asked the seen-set about a whole run of
   candidates before evaluating it, fails every one of them, most under
   any seed: it ran past budgets and evaluated duplicates the
   sequential search skips.

   A scripted strategy then pins each delivery rule on its own: the
   batch ends at its first acceptance, the trial cap and the virtual
   clock are checked before each candidate, the seen-set answers a
   duplicate met earlier in the same batch, and a batch emits the
   events (checkpoints included) of its candidates proposed one at a
   time.  Two cases resume a batched search from a checkpoint written
   between two candidates of one batch, and two last ones run a
   portfolio batched and unbatched. *)

let cases =
  [|
    (App.circuit, "n50w200");
    (App.stencil, "500x500");
    (App.pennant, "320x90");
    (App.htr, "8x8y9z");
    (App.maestro, "lf4r16");
  |]

let problem (app : App.t) input =
  let machine = Presets.lassen ~nodes:4 in
  (machine, app.App.graph ~nodes:4 ~input)

(* One CCD(5) search from the default start, its evaluator, seen-set
   and (ranked) surrogate built as [Driver.session] builds them. *)
let search (machine, g) ~batch ~ranked ~budget =
  let ev = Evaluator.create ~symmetry:true ~dominance:true machine g in
  let space = Evaluator.space ev in
  let seen =
    if Space.symmetry space then Some (Engine.seen_create (Space.canonicalize space))
    else None
  in
  let sg = if ranked then Some (Surrogate.create space) else None in
  let o =
    Engine.run ~budget ?surrogate:sg ?seen ~start:(Mapping.default_start g machine) ev
      (Ccd.make ~batch ~min_batch:1 ?surrogate:sg ev)
  in
  (o, ev)

let signature ((o : Engine.outcome), ev) =
  ( o.Engine.trials,
    Evaluator.evaluated ev,
    Evaluator.suggested ev,
    Evaluator.symmetry_skips ev,
    Mapping.canonical_key o.Engine.best,
    Int64.bits_of_float o.Engine.perf,
    Evaluator.save_state ev )

let pair_agrees p ~ranked ~budget =
  let seq = signature (search p ~batch:false ~ranked ~budget) in
  let bat = signature (search p ~batch:true ~ranked ~budget) in
  let t_s, e_s, s_s, k_s, _, _, _ = seq and t_b, e_b, s_b, k_b, _, _, _ = bat in
  if seq = bat then true
  else
    QCheck.Test.fail_reportf
      "%s: sequential trials %d evaluated %d suggested %d skips %d, batched %d %d %d %d%s"
      (if ranked then "ranked" else "plain")
      t_s e_s s_s k_s t_b e_b s_b k_b
      (if (t_s, e_s, s_s, k_s) = (t_b, e_b, s_b, k_b) then " (best or state differs)"
       else "")

(* (trial cap, virtual-time budget): the cap reaches past the first
   rotations of every app, and the budget spans five orders of
   magnitude, from one Circuit evaluation to most of a Maestro
   search. *)
let gen =
  QCheck.Gen.(
    pair (int_range 1 150)
      (frequency [ (1, return None); (2, map (fun e -> Some (10.0 ** e)) (float_range (-3.0) 2.0)) ]))

let print (cap, budget) =
  Printf.sprintf "cap %d, budget %s" cap
    (match budget with None -> "none" | Some b -> Printf.sprintf "%h" b)

(* One property per app and pair, so every run covers all five apps
   both ways and a failure names the app. *)
let props =
  List.concat_map
    (fun ranked ->
      Array.to_list
        (Array.map
           (fun ((app : App.t), input) ->
             let p = lazy (problem app input) in
             QCheck.Test.make ~count:2
               ~name:
                 (Printf.sprintf "batched CCD decides as sequential CCD%s (%s)"
                    (if ranked then ", ranked" else "")
                    app.App.app_name)
               (QCheck.make ~print gen)
               (fun (cap, budget) ->
                 let budget = Budget.make ~max_trials:cap ?max_virtual:budget () in
                 pair_agrees (Lazy.force p) ~ranked ~budget))
           cases))
    [ false; true ]

(* ---- each delivery rule, on a scripted strategy -------------------------- *)

(* A strategy that takes [steps] in order, then stops, and keeps the
   [Propose_batch] contract: [receive] accepts exactly when the perf
   beats the bound of the step being delivered.  It records every
   verdict. *)
let scripted steps =
  let todo = ref steps and bound = ref infinity and got = ref [] in
  let strat =
    {
      Engine.name = "scripted";
      init = ignore;
      step =
        (fun _ ->
          match !todo with
          | [] -> Engine.Stop
          | s :: rest ->
              todo := rest;
              (bound :=
                 match s with
                 | Engine.Propose_batch (_, b) -> b
                 | Engine.Propose (_, h) -> Option.value h.Engine.bound ~default:infinity
                 | _ -> !bound);
              s);
      receive =
        (fun m perf ->
          got := (m, perf) :: !got;
          perf < !bound);
      encode = (fun () -> []);
    }
  in
  (strat, fun () -> List.rev !got)

(* Noise off throughout, so a probe evaluator that makes the same
   evaluations in the same order reads the values and the clock the
   engine's evaluator will. *)
let evaluator ?symmetry (machine, g) = Evaluator.create ~noise_sigma:0.0 ?symmetry machine g

(* The start, its value and the first [n] of the start's neighbours
   (CD's sweep order) that an evaluation bounded by the start's value
   rejects only after running them, so each advances the clock. *)
let losers ((machine, g) as p) n =
  let start = Mapping.default_start g machine in
  let probe = evaluator p in
  let p0 = Evaluator.evaluate probe start in
  let sweep = Descent.start probe ~overlap:None ~profile:(Evaluator.profile_for probe start) in
  let rec draw acc k =
    if k = n then Array.of_list (List.rev acc)
    else
      match Descent.next sweep ~incumbent:start with
      | None -> Alcotest.failf "fewer than %d costly losers among the start's neighbours" n
      | Some m ->
          let vt = Evaluator.virtual_time probe in
          if Evaluator.evaluate ~bound:p0 probe m >= p0 && Evaluator.virtual_time probe > vt
          then draw (m :: acc) (k + 1)
          else draw acc k
  in
  (start, p0, draw [] 0)

let circuit () = problem App.circuit "n50w200"

let check_delivered what expected verdicts =
  Alcotest.(check (list string))
    what
    (List.map Mapping.canonical_key expected)
    (List.map (fun (m, _) -> Mapping.canonical_key m) (verdicts ()))

(* Four losers, slowest first: the batch's bound sits at the slowest
   one's value, so the fastest, second in the batch, is accepted and
   the third is never delivered; the next batch is. *)
let test_ends_at_acceptance () =
  let p = circuit () in
  let start, _, s = losers p 4 in
  let probe = evaluator p in
  let by_value = Array.map (fun m -> (Evaluator.evaluate probe m, m)) s in
  Array.stable_sort (fun (u, _) (v, _) -> Float.compare v u) by_value;
  let bound, slowest = by_value.(0) and fastest, b = by_value.(3) in
  if not (fastest < bound) then Alcotest.fail "the four losers tie";
  let c = snd by_value.(1) and d = snd by_value.(2) in
  let strat, verdicts =
    scripted
      [ Engine.Propose_batch ([| slowest; b; c |], bound); Engine.Propose_batch ([| d |], bound) ]
  in
  let o = Engine.run ~start (evaluator p) strat in
  check_delivered "candidates delivered" [ slowest; b; d ] verdicts;
  Alcotest.(check (list bool))
    "first batch's verdicts" [ false; true ]
    (List.filteri (fun i _ -> i < 2) (List.map (fun (_, v) -> v < bound) (verdicts ())));
  Alcotest.(check int) "trials: the start and three candidates" 4 o.Engine.trials;
  Alcotest.(check int) "steps: two batches and the stop" 3 o.Engine.steps

let test_trial_cap_inside_batch () =
  let p = circuit () in
  let start, p0, s = losers p 5 in
  let strat, verdicts = scripted [ Engine.Propose_batch (s, p0) ] in
  let o = Engine.run ~budget:(Budget.make ~max_trials:3 ()) ~start (evaluator p) strat in
  check_delivered "candidates delivered" [ s.(0); s.(1) ] verdicts;
  Alcotest.(check int) "trials" 3 o.Engine.trials

(* The cap lies between the clock after the first candidate and after
   the second. *)
let test_virtual_budget_inside_batch () =
  let p = circuit () in
  let start, p0, s = losers p 5 in
  let probe = evaluator p in
  ignore (Evaluator.evaluate probe start : float);
  ignore (Evaluator.evaluate ~bound:p0 probe s.(0) : float);
  let vt1 = Evaluator.virtual_time probe in
  ignore (Evaluator.evaluate ~bound:p0 probe s.(1) : float);
  let vt2 = Evaluator.virtual_time probe in
  Alcotest.(check bool) "each evaluation advances the clock" true (vt1 < vt2);
  let strat, verdicts = scripted [ Engine.Propose_batch (s, p0) ] in
  let ev = evaluator p in
  let budget = Budget.make ~max_virtual:((vt1 +. vt2) /. 2.0) () in
  let o = Engine.run ~budget ~start ev strat in
  check_delivered "candidates delivered" [ s.(0); s.(1) ] verdicts;
  Alcotest.(check int) "trials" 3 o.Engine.trials;
  Alcotest.(check int64) "clock" (Int64.bits_of_float vt2)
    (Int64.bits_of_float (Evaluator.virtual_time ev))

(* A loser twice in one batch: the first copy is evaluated, and its
   seen-set entry answers the second. *)
let test_seen_inside_batch () =
  let p = circuit () in
  let start, p0, s = losers p 1 in
  let strat, verdicts = scripted [ Engine.Propose_batch ([| s.(0); s.(0) |], p0) ] in
  let ev = evaluator ~symmetry:true p in
  let seen = Engine.seen_create (Space.canonicalize (Evaluator.space ev)) in
  let o = Engine.run ~seen ~start ev strat in
  check_delivered "both copies delivered" [ s.(0); s.(0) ] verdicts;
  Alcotest.(check int) "trials: the start and the first copy" 2 o.Engine.trials;
  Alcotest.(check int) "seen-set answers" 1 (Evaluator.symmetry_skips ev)

(* The same candidates (a duplicate last) as one batch and as one
   [Propose] each, under the batch's bound, with a seen-set and a
   checkpoint every two trials: the same events in the same order. *)
let test_events_as_single_proposals () =
  let p = circuit () in
  let start, p0, s = losers p 4 in
  let c = Array.append s [| s.(0) |] in
  let run steps =
    let path = Filename.temp_file "automap_batch" ".ckpt" in
    Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    @@ fun () ->
    let strat, _ = scripted steps in
    let ev = evaluator ~symmetry:true p in
    let seen = Engine.seen_create (Space.canonicalize (Evaluator.space ev)) in
    let events = ref [] in
    let on_event e =
      let line =
        match e with
        | Engine.Eval { trial; mapping; perf; vt; accepted } ->
            Printf.sprintf "eval %d %s %h %h %b" trial (Mapping.canonical_key mapping) perf vt
              accepted
        | Engine.Improve { trial; perf; _ } -> Printf.sprintf "improve %d %h" trial perf
        | Engine.Phase_change { name } -> "phase " ^ name
        | Engine.Checkpointed { trial; _ } -> Printf.sprintf "checkpoint %d" trial
      in
      events := line :: !events
    in
    let checkpoint = { Engine.every = 2; path } in
    let o = Engine.run ~on_event ~checkpoint ~seen ~start ev strat in
    (List.rev !events, o.Engine.trials, Evaluator.symmetry_skips ev, Evaluator.save_state ev)
  in
  let hint = { Engine.bound = Some p0; overhead = 0.0 } in
  let events_b, trials_b, skips_b, state_b = run [ Engine.Propose_batch (c, p0) ] in
  let events_s, trials_s, skips_s, state_s =
    run (Array.to_list (Array.map (fun m -> Engine.Propose (m, hint)) c))
  in
  Alcotest.(check (list string)) "events" events_s events_b;
  Alcotest.(check int) "trials" trials_s trials_b;
  Alcotest.(check int) "seen-set answers" skips_s skips_b;
  Alcotest.(check (list string)) "evaluator state" state_s state_b;
  Alcotest.(check (list string))
    "checkpoints between candidates"
    [ "checkpoint 2"; "checkpoint 4" ]
    (List.filter (fun l -> String.starts_with ~prefix:"checkpoint" l) events_b);
  Alcotest.(check int) "the duplicate answered from the seen-set" 1 skips_b

(* ---- resume from inside a batch ------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A batched search checkpointing every [every] trials, with the first
   checkpoint that falls between two candidates of one batch kept
   aside; resumed from it, the search must end where the uninterrupted
   one did. *)
let resume_inside_batch (app : App.t) input ~ranked ~every () =
  let machine, g = problem app input in
  let cfg =
    { Driver.default_cfg with batch = true; min_batch = 1; surrogate = ranked }
  in
  let path = Filename.temp_file "automap_batch" ".ckpt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let s = Result.get_ok (Driver.session cfg machine g) in
  (* candidates of the current batch still to come, after a verdict *)
  let left = ref 0 and inside = ref None in
  let strat = s.Driver.strat in
  let strat =
    {
      strat with
      Engine.step =
        (fun ctx ->
          let st = strat.Engine.step ctx in
          (left := match st with Engine.Propose_batch (c, _) -> Array.length c | _ -> 0);
          st);
      receive =
        (fun m perf ->
          let accepted = strat.Engine.receive m perf in
          left := if accepted then 0 else !left - 1;
          accepted);
    }
  in
  let on_event = function
    | Engine.Checkpointed { trial; path } when !inside = None && !left > 0 ->
        inside := Some (trial, read_file path)
    | _ -> ()
  in
  let full = Driver.search ~on_event ~checkpoint:{ Engine.every; path } { s with strat } in
  let state = Evaluator.save_state s.Driver.ev in
  let final = Driver.conclude s full in
  let trial, ckpt =
    match !inside with
    | Some c -> c
    | None -> Alcotest.failf "%s: no checkpoint fell inside a batch" app.App.app_name
  in
  let snapshot = Result.get_ok (Engine.snapshot_of_string ckpt) in
  Alcotest.(check int) "checkpoint trial" trial snapshot.Engine.s_trials;
  let r = Result.get_ok (Driver.session ~snapshot cfg machine g) in
  let resumed = Driver.search r in
  let what = Printf.sprintf "%s resumed at trial %d" app.App.app_name trial in
  Alcotest.(check int) (what ^ ": trials") full.Engine.trials resumed.Engine.trials;
  Alcotest.(check string)
    (what ^ ": best")
    (Mapping.canonical_key full.Engine.best)
    (Mapping.canonical_key resumed.Engine.best);
  Alcotest.(check int64)
    (what ^ ": perf")
    (Int64.bits_of_float full.Engine.perf)
    (Int64.bits_of_float resumed.Engine.perf);
  Alcotest.(check (list string))
    (what ^ ": evaluator state") state (Evaluator.save_state r.Driver.ev);
  let final' = Driver.conclude r resumed in
  Alcotest.(check string)
    (what ^ ": final mapping")
    (Mapping.canonical_key (fst final))
    (Mapping.canonical_key (fst final'));
  Alcotest.(check (list int64))
    (what ^ ": final runs")
    (List.map Int64.bits_of_float (snd final))
    (List.map Int64.bits_of_float (snd final'))

(* A portfolio's members run to absolute virtual-time deadlines, and
   a member proposing a whole neighbour set ran its batch past its
   own: with CD/CCD members that batched, a batched portfolio on
   Circuit n50w200 (seed 1, 0.05 s) suggested 127 candidates in
   0.0652 virtual seconds against the unbatched 121 in 0.0574.  The
   portfolio's members now propose one candidate a step, so both
   searches must decide alike. *)
let portfolio_batched_as_unbatched (app : App.t) input () =
  let machine, g = problem app input in
  let run batch =
    Driver.run ~seed:1 ~budget:0.05 ~batch ~min_batch:1 ~surrogate:false Driver.Portfolio
      machine g
  in
  let b = run true and u = run false in
  let name = app.App.app_name in
  Alcotest.(check int) (name ^ " suggested") u.Driver.suggested b.Driver.suggested;
  Alcotest.(check int) (name ^ " evaluated") u.Driver.evaluated b.Driver.evaluated;
  Alcotest.(check int64)
    (name ^ " virtual time bits")
    (Int64.bits_of_float u.Driver.virtual_search_time)
    (Int64.bits_of_float b.Driver.virtual_search_time);
  Alcotest.(check string)
    (name ^ " best key")
    (Mapping.canonical_key u.Driver.best)
    (Mapping.canonical_key b.Driver.best);
  Alcotest.(check int64)
    (name ^ " search perf bits")
    (Int64.bits_of_float u.Driver.search_perf)
    (Int64.bits_of_float b.Driver.search_perf);
  Alcotest.(check int64)
    (name ^ " perf bits")
    (Int64.bits_of_float u.Driver.perf)
    (Int64.bits_of_float b.Driver.perf)

let suite =
  List.map QCheck_alcotest.to_alcotest props
  @ [
    Alcotest.test_case "a batch ends at its first acceptance" `Quick test_ends_at_acceptance;
    Alcotest.test_case "the trial cap is checked before each candidate of a batch" `Quick
      test_trial_cap_inside_batch;
    Alcotest.test_case "a virtual-time budget is checked before each candidate of a batch"
      `Quick test_virtual_budget_inside_batch;
    Alcotest.test_case "the seen-set answers a duplicate inside a batch" `Quick
      test_seen_inside_batch;
    Alcotest.test_case "a batch emits the events of its candidates proposed one at a time"
      `Quick test_events_as_single_proposals;
    Alcotest.test_case "resume inside a batch: circuit" `Quick
      (resume_inside_batch App.circuit "n50w200" ~ranked:false ~every:7);
    Alcotest.test_case "resume inside a ranked batch: stencil" `Quick
      (resume_inside_batch App.stencil "500x500" ~ranked:true ~every:5);
    Alcotest.test_case "a batched portfolio decides as an unbatched one: circuit" `Quick
      (portfolio_batched_as_unbatched App.circuit "n50w200");
    Alcotest.test_case "a batched portfolio decides as an unbatched one: stencil" `Quick
      (portfolio_batched_as_unbatched App.stencil "500x500");
  ]
