(* Bounded batch evaluation is the sequential first-improvement loop.

   For a random candidate set (with occasional duplicates, so cache
   hits and partial-evaluation answers come up) and for the order the
   surrogate would rank it in, [Evaluator.evaluate_batch ~bound] must
   return exactly what the loop

     for each candidate in order: v = evaluate ~bound; stop if v < bound

   returns — the same [Evaluated] values bit for bit and the same
   [Skipped] suffix — and leave the evaluator in an identical state
   (clocks, counters, seed cursor, best, trace, partials: everything
   {!Evaluator.save_state} captures).  Exercised across all five
   benchmark apps.

   The bound is taken from the candidates' own values, measured on a
   separate evaluator: either just above one of the first n-1 values
   (some candidate beats it before the end, so the batch
   short-circuits) or the smallest value (nothing beats it, so every
   candidate is evaluated).  Both cases are counted, and the last test
   runs a fixed sweep that fails unless each occurred, so the contract
   cannot pass vacuously. *)

let cases =
  [
    (App.circuit, "n50w200");
    (App.stencil, "500x500");
    (App.pennant, "320x90");
    (App.htr, "8x8y9z");
    (App.maestro, "lf4r16");
  ]

let machine_for (app : App.t) ~nodes =
  (* Maestro's HF sample is sized for a Lassen node's frame buffer *)
  if app.App.app_name = "Maestro" then Presets.lassen ~nodes else Presets.shepard ~nodes

let short_circuits = ref 0
let no_improvements = ref 0

let fresh_evaluator machine g = Evaluator.create ~seed:3 machine g

let bit_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

(* The contract's reference: the sequential loop on its own evaluator. *)
let sequential ev ~bound cands =
  let n = Array.length cands in
  let out = Array.make n Evaluator.Skipped in
  let rec go i =
    if i < n then begin
      let v = Evaluator.evaluate ~bound ev cands.(i) in
      out.(i) <- Evaluator.Evaluated v;
      if not (v < bound) then go (i + 1)
    end
  in
  go 0;
  out

let same_outcome a b =
  match (a, b) with
  | Evaluator.Evaluated x, Evaluator.Evaluated y -> bit_equal x y
  | Evaluator.Skipped, Evaluator.Skipped -> true
  | _ -> false

(* Pick the bound from values measured on a throwaway evaluator
   (common random numbers make them the values the tested evaluators
   see), then compare batch against sequential. *)
let check_against_sequential machine g rng cands =
  let n = Array.length cands in
  let probe = fresh_evaluator machine g in
  let values = Array.map (fun m -> Evaluator.evaluate probe m) cands in
  let finite_prefix =
    List.filter (fun i -> Float.is_finite values.(i)) (List.init (n - 1) Fun.id)
  in
  let bound =
    if finite_prefix <> [] && Rng.bool rng then
      Float.succ values.(List.nth finite_prefix (Rng.int rng (List.length finite_prefix)))
    else Array.fold_left Float.min infinity values
  in
  let ev_seq = fresh_evaluator machine g in
  let expected = sequential ev_seq ~bound cands in
  let ev_bat = fresh_evaluator machine g in
  let got = Evaluator.evaluate_batch ~bound ev_bat cands in
  let ok =
    Array.length got = n
    && Array.for_all2 same_outcome got expected
    && Evaluator.save_state ev_bat = Evaluator.save_state ev_seq
  in
  if ok then begin
    if n > 0 && got.(n - 1) = Evaluator.Skipped then incr short_circuits;
    if
      Array.for_all
        (function Evaluator.Evaluated v -> not (v < bound) | Evaluator.Skipped -> false)
        got
    then incr no_improvements
  end;
  ok

let random_candidates space rng n =
  let cands = Array.make n (Space.random_unconstrained space rng) in
  for i = 1 to n - 1 do
    cands.(i) <-
      (if Rng.int rng 5 = 0 then cands.(Rng.int rng i)
       else Space.random_unconstrained space rng)
  done;
  cands

let problem (app : App.t) input =
  let nodes = 2 in
  let machine = machine_for app ~nodes in
  (machine, app.App.graph ~nodes ~input)

let batch_matches_sequential (app : App.t) input seed =
  let machine, g = problem app input in
  let space = Space.make g machine in
  let rng = Rng.create seed in
  let cands = random_candidates space rng (2 + Rng.int rng 7) in
  check_against_sequential machine g rng cands

(* Same contract in the order the surrogate actually proposes: train a
   model on a few observations and rank the candidate set with it —
   the order Descent's ranked batches hand the engine. *)
let batch_matches_surrogate_order (app : App.t) input seed =
  let machine, g = problem app input in
  let space = Space.make g machine in
  let rng = Rng.create (seed + 100) in
  let cands = random_candidates space rng (2 + Rng.int rng 6) in
  let sg = Surrogate.create space in
  Surrogate.note_incumbent sg (Mapping.default_start g machine);
  for _ = 1 to 12 do
    Surrogate.observe sg (Space.random_unconstrained space rng) (0.001 +. Rng.float rng 0.01)
  done;
  let ranked = Array.map (fun i -> cands.(i)) (Surrogate.rank sg cands) in
  check_against_sequential machine g rng ranked

let props =
  List.map
    (fun ((app : App.t), input) ->
      QCheck.Test.make ~count:8
        ~name:(Printf.sprintf "bounded batch = sequential loop (%s)" app.App.app_name)
        QCheck.small_nat
        (fun seed -> batch_matches_sequential app input seed))
    cases
  @ List.map
      (fun ((app : App.t), input) ->
        QCheck.Test.make ~count:4
          ~name:
            (Printf.sprintf "bounded batch = sequential loop, surrogate order (%s)"
               app.App.app_name)
          QCheck.small_nat
          (fun seed -> batch_matches_surrogate_order app input seed))
      cases

(* A fixed sweep, independent of the qcheck seed: the two bound cases
   the properties rely on must both come up. *)
let test_both_cases_seen () =
  short_circuits := 0;
  no_improvements := 0;
  List.iter
    (fun ((app : App.t), input) ->
      for seed = 0 to 11 do
        if not (batch_matches_sequential app input seed) then
          Alcotest.failf "%s seed %d: batch differs from the sequential loop"
            app.App.app_name seed
      done)
    [ List.nth cases 0; List.nth cases 1 ];
  Alcotest.(check bool) "some batch short-circuited" true (!short_circuits > 0);
  Alcotest.(check bool) "some batch had no improvement" true (!no_improvements > 0)

let suite =
  List.map QCheck_alcotest.to_alcotest props
  @ [ Alcotest.test_case "short-circuit and no-improvement both exercised" `Quick
        test_both_cases_seen ]
