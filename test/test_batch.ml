(* Ranked rounds, the one thing a search's [batch] switch still decides.

   With [batch] a search runs an online surrogate, and CD and CCD
   propose each task's candidates best-predicted-first: the sweep
   cursor builds the task's whole round against one incumbent, and the
   engine receives it one candidate per step, like any other proposal
   (test_engine pins the engine's delivery rules).  The checks here:

   - a ranked round is a permutation of what the plain sweep proposes
     for the same task, in the surrogate's order, with the same no-op
     and dead-coordinate accounting (one property per app, lassen:4);
   - a random trial cap and virtual-time budget cut a ranked search
     right after the trial that spends them, mid-round or not, leaving
     it a prefix of the search that ran on (one property per app);
   - an acceptance abandons the rest of the round;
   - a checkpoint written between two candidates of one ranked round
     resumes to the uninterrupted run, one case per app;
   - a sweep line whose queue ends in the word [gated], which
     envelopes written while ranked rounds could also be batched may
     carry, decodes to the cursor of the line without it and resumes
     to the same answer;
   - [batch] changes nothing for a portfolio, whose members rank
     nothing. *)

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

(* The tasks a cursor has entered, and the candidates still queued in
   its ranked round, read off its checkpoint line. *)
let cursor_fields cur =
  match String.split_on_char ' ' (Descent.encode cur) with
  | "sweep" :: n :: rest -> (
      let n = int_of_string n in
      let entered = int_of_string (List.nth rest n) in
      match List.filteri (fun i _ -> i >= n + 2) rest with
      | "queue" :: k :: _ -> (entered, int_of_string k)
      | _ -> (entered, 0))
  | _ -> Alcotest.fail "not a sweep line"

(* ---- a ranked round permutes the plain sweep -------------------------- *)

(* Every candidate a cursor proposes with the incumbent held fixed (no
   acceptance), tagged with the task it came from. *)
let drain ?surrogate ev ~overlap ~profile ~incumbent =
  let cur = Descent.start ?surrogate ev ~overlap ~profile in
  let rec go acc =
    match Descent.next cur ~incumbent with
    | None -> List.rev acc
    | Some m -> go ((fst (cursor_fields cur), m) :: acc)
  in
  go []

let round_permutes_plain (machine, g) seed =
  let start = Mapping.default_start g machine in
  let c0 = Overlap.of_graph g in
  let overlap = if Overlap.is_empty c0 then None else Some c0 in
  let ev_plain = Evaluator.create machine g and ev_ranked = Evaluator.create machine g in
  let space = Evaluator.space ev_ranked in
  let sg = Surrogate.create space in
  (* a few observations, so that the ranking is not the identity *)
  let rng = Rng.create seed in
  for _ = 1 to 12 do
    Surrogate.observe sg (Space.random_unconstrained space rng) (0.001 +. Rng.float rng 0.01)
  done;
  let profile = Evaluator.profile_for ev_plain start in
  let plain = drain ev_plain ~overlap ~profile ~incumbent:start in
  let ranked = drain ~surrogate:sg ev_ranked ~overlap ~profile ~incumbent:start in
  let keyed l = List.sort compare (List.map (fun (t, m) -> (t, Mapping.canonical_key m)) l) in
  let rec in_order = function
    | (t, m) :: ((t', m') :: _ as rest) ->
        (t < t' || (t = t' && Surrogate.predict sg m <= Surrogate.predict sg m'))
        && in_order rest
    | _ -> true
  in
  if keyed plain <> keyed ranked then
    QCheck.Test.fail_reportf "ranked rounds propose %d candidates, the plain sweep %d"
      (List.length ranked) (List.length plain)
  else if not (in_order ranked) then
    QCheck.Test.fail_report "a ranked round is not in predicted order"
  else if
    Evaluator.noop_skips ev_plain <> Evaluator.noop_skips ev_ranked
    || Evaluator.dead_coord_skips ev_plain <> Evaluator.dead_coord_skips ev_ranked
  then QCheck.Test.fail_report "no-op or dead-coordinate counts differ"
  else plain <> []

let permutation_props =
  Array.to_list
    (Array.map
       (fun ((app : App.t), input) ->
         let p = lazy (problem app input) in
         QCheck.Test.make ~count:2
           ~name:(Printf.sprintf "ranked rounds permute the plain sweep (%s)" app.App.app_name)
           QCheck.small_nat
           (fun seed -> round_permutes_plain (Lazy.force p) seed))
       cases)

(* ---- a budget cuts a ranked round between two proposals --------------- *)

(* One ranked CCD(5) search as [Driver.session] builds it (symmetry and
   dominance on, so the seen-set answers re-proposed keys), under a
   trial cap and an optional virtual-time budget: the trials it
   evaluated, and its evaluator's and surrogate's state after trial
   [at] (at its end when [at] is none). *)
let ranked_trials (machine, g) ~cap ~budget ~at =
  let s =
    Result.get_ok (Driver.session { Driver.default_cfg with batch = true; budget } machine g)
  in
  let sg = Option.get s.Driver.sg in
  let state () = (Evaluator.save_state s.Driver.ev, Surrogate.save sg) in
  let trials = ref [] and kept = ref None in
  let on_event = function
    | Engine.Eval { trial; mapping; perf; vt; accepted } ->
        trials :=
          (trial, Mapping.canonical_key mapping, Int64.bits_of_float perf, vt, accepted)
          :: !trials;
        if at = Some trial then kept := Some (state ())
    | _ -> ()
  in
  ignore (Driver.search ~on_event ~max_trials:cap s : Engine.outcome);
  (List.rev !trials, match !kept with Some st -> st | None -> state ())

(* A ranked search under a random cap and virtual-time budget stops
   after the first trial that spends the budget, wherever that falls in
   a ranked round, and up to there it is the search with a larger cap
   and no clock budget: the same trials in the same order, and the
   evaluator and surrogate in the same state. *)
let cut_is_prefix p (cap, budget) =
  let b = Budget.make ~max_trials:cap ?max_virtual:budget () in
  let spent (t, _, _, vt, _) = Budget.exhausted b ~trials:t ~vt ~wall:0.0 in
  let cut, cut_state = ranked_trials p ~cap ~budget ~at:None in
  let n = List.length cut in
  let at = if spent (List.nth cut (n - 1)) then Some n else None in
  let on, on_state = ranked_trials p ~cap:(cap + 25) ~budget:None ~at in
  let expected =
    match List.find_index spent on with Some i -> i + 1 | None -> List.length on
  in
  if n <> expected then
    QCheck.Test.fail_reportf "cut after %d trials; the budget is spent after %d" n expected
  else if cut <> List.filteri (fun i _ -> i < n) on then
    QCheck.Test.fail_report "the cut search's trials are not the first ones of the longer search"
  else if cut_state <> on_state then
    QCheck.Test.fail_report "evaluator or surrogate state differs at the cut"
  else true

(* (trial cap, virtual-time budget): the cap reaches past the first
   rotations of every app, and the budget spans five orders of
   magnitude, from one Circuit evaluation to most of a Maestro
   search. *)
let budget_gen =
  QCheck.Gen.(
    pair (int_range 1 150)
      (frequency [ (1, return None); (2, map (fun e -> Some (10.0 ** e)) (float_range (-3.0) 2.0)) ]))

let print_budget (cap, budget) =
  Printf.sprintf "cap %d, budget %s" cap
    (match budget with None -> "none" | Some b -> Printf.sprintf "%h" b)

let cut_props =
  Array.to_list
    (Array.map
       (fun ((app : App.t), input) ->
         let p = lazy (problem app input) in
         QCheck.Test.make ~count:2
           ~name:
             (Printf.sprintf "a budget cuts a ranked search between proposals (%s)"
                app.App.app_name)
           (QCheck.make ~print:print_budget budget_gen)
           (fun c -> cut_is_prefix (Lazy.force p) c))
       cases)

(* ---- an acceptance abandons the round ---------------------------------- *)

let test_round_ends_at_acceptance () =
  let machine, g = problem App.circuit "n50w200" in
  let ev = Evaluator.create machine g in
  let start = Mapping.default_start g machine in
  let sg = Surrogate.create (Evaluator.space ev) in
  let cur =
    Descent.start ~surrogate:sg ev ~overlap:None ~profile:(Evaluator.profile_for ev start)
  in
  let first = Option.get (Descent.next cur ~incumbent:start) in
  let task, queued = cursor_fields cur in
  Alcotest.(check bool) "the round holds more candidates" true (queued > 0);
  Descent.abandon cur;
  Alcotest.(check int) "abandoned: nothing queued" 0 (snd (cursor_fields cur));
  ignore (Descent.next cur ~incumbent:first : Mapping.t option);
  Alcotest.(check bool) "the next proposal opens a later task's round" true
    (fst (cursor_fields cur) > task)

(* ---- resume from inside a ranked round ---------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The envelope's strategy section, with [f] applied to its sweep line. *)
let map_sweep_line f ckpt =
  String.concat "\n"
    (List.map
       (fun l -> if String.starts_with ~prefix:"sweep " l then f l else l)
       (String.split_on_char '\n' ckpt))

(* A ranked search checkpointing every [every] trials, with the first
   checkpoint whose sweep line carries a queue (one written between two
   candidates of a ranked round) kept aside; resumed from it, with the
   sweep line rewritten by each of [edits], the search must end where
   the uninterrupted one did.  Returns each resumed snapshot with the
   cursor its strategy decoded to. *)
let resume_inside_round ?(edits = [ Fun.id ]) (app : App.t) input ~every () =
  let machine, g = problem app input in
  let cfg = { Driver.default_cfg with batch = true } in
  let path = Filename.temp_file "automap_ranked" ".ckpt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let s = Result.get_ok (Driver.session cfg machine g) in
  let inside = ref None in
  let on_event = function
    | Engine.Checkpointed { trial; path } when !inside = None ->
        let ckpt = read_file path in
        if Str_helpers.contains ckpt " queue " then inside := Some (trial, ckpt)
    | _ -> ()
  in
  let full = Driver.search ~on_event ~checkpoint:{ Engine.every; path } s in
  let state = Evaluator.save_state s.Driver.ev in
  let final = Driver.conclude s full in
  let trial, ckpt =
    match !inside with
    | Some c -> c
    | None -> Alcotest.failf "%s: no checkpoint fell inside a ranked round" app.App.app_name
  in
  List.map
    (fun edit ->
      let snapshot = Result.get_ok (Engine.snapshot_of_string (map_sweep_line edit ckpt)) in
      Alcotest.(check int) "checkpoint trial" trial snapshot.Engine.s_trials;
      let r =
        match Driver.session ~snapshot cfg machine g with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s: %s" app.App.app_name e
      in
      let cursor = r.Driver.strat.Engine.encode () in
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
        (List.map Int64.bits_of_float (snd final'));
      (snapshot, cursor))
    edits

(* Envelopes written while short ranked rounds were proposed one at a
   time end their queue in [gated]: the same checkpoint with that word
   after its queue decodes to the same cursor, and resumes alike. *)
let with_gated = [ Fun.id; (fun l -> l ^ " gated") ]

let gated_as_plain = function
  | [ (_, plain); (gated, cursor) ] ->
      Alcotest.(check bool) "the edited envelope says gated" true
        (List.exists (fun l -> String.ends_with ~suffix:" gated" l) gated.Engine.s_strategy);
      Alcotest.(check (list string)) "the same cursor" plain cursor
  | _ -> Alcotest.fail "two resumes expected"

(* golden/ranked_gated_envelope.txt was written by
   [Driver.run ~seed:0 ~batch:true ~max_trials:40 ~checkpoint_every:5]
   (CCD(5), Stencil 500x500, lassen:4) while ranked rounds under 24
   candidates were proposed one at a time and marked [gated]: the first
   checkpoint inside such a round, at trial 15.  Resumed, it must reach
   that run's answer, which the code that wrote it also reached from
   the envelope. *)
let test_gated_envelope_resumes () =
  let machine, g = problem App.stencil "500x500" in
  let ckpt = In_channel.with_open_bin (Filename.concat "golden" "ranked_gated_envelope.txt") In_channel.input_all in
  Alcotest.(check bool) "the envelope's queue ends in gated" true
    (List.exists
       (fun l -> String.starts_with ~prefix:"sweep " l && String.ends_with ~suffix:" gated" l)
       (String.split_on_char '\n' ckpt));
  let path = Filename.temp_file "automap_gated" ".ckpt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc ckpt);
  let run ?resume_from () =
    Driver.run ~seed:0 ~batch:true ~max_trials:40 ?resume_from (Driver.Ccd { rotations = 5 })
      machine g
  in
  let answer (r : Driver.result) =
    Printf.sprintf "best %s perf %h search %h evaluated %d suggested %d"
      (Mapping.canonical_key r.Driver.best) r.Driver.perf r.Driver.search_perf
      r.Driver.evaluated r.Driver.suggested
  in
  let written =
    "best DD|BB|CC|ZSSSSSZSSSSS perf 0x1.bafa5799aae0cp-14 search 0x1.bb61f6421748ep-14 \
     evaluated 4 suggested 40"
  in
  Alcotest.(check string) "the uninterrupted run" written (answer (run ()));
  Alcotest.(check string) "resumed from the envelope" written (answer (run ~resume_from:path ()))

(* [batch] is the one switch for ranking: a strategy made without it
   proposes in plain sweep order even when handed a model, so it
   decides as the one made without a model. *)
let test_batch_switches_ranking () =
  let machine, g = problem App.pennant "320x90" in
  let run ~batch ~model =
    let ev = Evaluator.create machine g in
    let sg = if model then Some (Surrogate.create (Evaluator.space ev)) else None in
    let strat = Driver.make_strategy ~seed:0 ~batch ?surrogate:sg (Driver.Ccd { rotations = 5 }) ev in
    let o =
      Engine.run ~budget:(Budget.make ~max_trials:120 ()) ?surrogate:sg
        ~start:(Mapping.default_start g machine) ev strat
    in
    (Mapping.canonical_key o.Engine.best, Int64.bits_of_float o.Engine.perf, Evaluator.save_state ev)
  in
  let plain = run ~batch:false ~model:false in
  Alcotest.(check bool) "unbatched with a model = without" true
    (run ~batch:false ~model:true = plain);
  Alcotest.(check bool) "batched with a model ranks" false (run ~batch:true ~model:true = plain);
  Alcotest.(check bool) "batched without a model = plain" true
    (run ~batch:true ~model:false = plain)

(* ---- batch does not reach a portfolio ----------------------------------- *)

let portfolio_batched_as_unbatched (app : App.t) input () =
  let machine, g = problem app input in
  let run batch = Driver.run ~seed:1 ~budget:0.05 ~batch Driver.Portfolio machine g in
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

let resume_case ?edits ?(check = ignore) (app : App.t) input ~every =
  Alcotest.test_case
    (Printf.sprintf "resume inside a ranked round: %s" (String.lowercase_ascii app.App.app_name))
    `Quick
    (fun () -> check (resume_inside_round ?edits app input ~every ()))

let suite =
  List.map QCheck_alcotest.to_alcotest (permutation_props @ cut_props)
  @ [
      Alcotest.test_case "an acceptance abandons the ranked round" `Quick
        test_round_ends_at_acceptance;
      resume_case App.circuit "n50w200" ~every:7;
      resume_case ~edits:with_gated ~check:gated_as_plain App.stencil "500x500" ~every:5;
      resume_case App.pennant "320x90" ~every:5;
      resume_case App.htr "8x8y9z" ~every:5;
      resume_case App.maestro "lf4r16" ~every:5;
      Alcotest.test_case "an envelope with a gated queue resumes to its run's answer" `Quick
        test_gated_envelope_resumes;
      Alcotest.test_case "batch is the one switch for ranking" `Quick
        test_batch_switches_ranking;
      Alcotest.test_case "a batched portfolio decides as an unbatched one: circuit" `Quick
        (portfolio_batched_as_unbatched App.circuit "n50w200");
      Alcotest.test_case "a batched portfolio decides as an unbatched one: stencil" `Quick
        (portfolio_batched_as_unbatched App.stencil "500x500");
    ]
