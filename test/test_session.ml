(* One search, three drivers: [Driver.run]; the envelope chain of
   [Slice.start]/[Slice.resume], where every pause is a checkpoint
   envelope the next slice restores; and the serve daemon's live chain
   of [Slice.start_live]/[Slice.continue], where a paused search stays
   in memory without a scratch and each slice runs on a fresh one.  All
   three build, budget and finish a search through the same session, so
   with the same configuration they must return the same answer — final
   mapping, final perf bits, search best and trial count — not only the
   same search decisions.  Each case runs both chains at its own slice
   size, and the live chain also at 1-trial slices, which cut every
   ranked round short.

   The final protocol reads the profiles database, which the envelope
   chain rebuilds from checkpoint text at every slice; the htr case
   below is one where two top candidates tie on search perf, so it
   fails if ties rank by hash-table order instead of by key. *)

let problem ~spec ~nodes ~app ~input =
  let machine =
    match Presets.of_spec spec ~nodes with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  match App.find app with
  | Some a -> (machine, a.App.graph ~nodes ~input)
  | None -> Alcotest.failf "unknown app %s" app

type answer = {
  best : string;       (* canonical key of the final mapping *)
  perf : int64;        (* final perf bits *)
  search_best : string;
  search_perf : int64;
  trials : int;
}

let pp_answer ppf a =
  Format.fprintf ppf "{best=%s perf=%Lx search_best=%s search_perf=%Lx trials=%d}"
    a.best a.perf a.search_best a.search_perf a.trials

let answer_t = Alcotest.testable pp_answer ( = )

(* Driver.run with every field of [cfg] that decides anything passed
   explicitly ([min_batch] decides nothing, and [Driver.run] takes
   none); the trial count and the search best come off the event
   bus. *)
let unsliced (cfg : Slice.cfg) machine graph =
  let trials = ref 0 and search_best = ref None in
  let on_event = function
    | Engine.Eval { trial; _ } -> trials := max !trials trial
    | Engine.Improve { mapping; _ } -> search_best := Some mapping
    | _ -> ()
  in
  let r =
    Driver.run ~runs:cfg.runs ?noise_sigma:cfg.noise_sigma ?iterations:cfg.iterations
      ~seed:cfg.seed ?budget:cfg.budget ?max_trials:cfg.max_trials
      ~heft_seed:cfg.heft_seed ~batch:cfg.batch ~symmetry:cfg.symmetry ~dominance:cfg.dominance ~final_top:cfg.final_top
      ~final_runs:cfg.final_runs ~on_event cfg.algo machine graph
  in
  {
    best = Mapping.canonical_key r.Driver.best;
    perf = Int64.bits_of_float r.Driver.perf;
    search_best = Mapping.canonical_key (Option.get !search_best);
    search_perf = Int64.bits_of_float r.Driver.search_perf;
    trials = !trials;
  }

let answer_of (f : Slice.finished) =
  {
    best = Mapping.canonical_key f.Slice.best;
    perf = Int64.bits_of_float f.Slice.perf;
    search_best = Mapping.canonical_key f.Slice.search_best;
    search_perf = Int64.bits_of_float f.Slice.search_perf;
    trials = f.Slice.trials;
  }

(* The envelope path; also returns how many slices ran. *)
let sliced ~slice_trials (cfg : Slice.cfg) machine graph =
  let rec go n = function
    | Slice.Finished f -> (answer_of f, n)
    | Slice.Paused p -> (
        match Slice.resume ~slice_trials cfg machine graph ~ckpt:p.Slice.ckpt with
        | Ok (st, _) -> go (n + 1) st
        | Error e -> Alcotest.failf "Slice.resume: %s" e)
  in
  go 1 (fst (Slice.start ~slice_trials cfg machine graph))

(* The serve daemon's path: the search stays live between slices, each
   slice runs on a scratch of its own, and no envelope is built. *)
let live ~slice_trials (cfg : Slice.cfg) machine graph =
  let compiled = Exec.compile machine graph in
  let rec go n = function
    | Slice.Done f -> (answer_of f, n)
    | Slice.Suspended s ->
        go (n + 1) (fst (Slice.continue ~scratch:(Exec.scratch compiled) ~slice_trials s))
  in
  go 1 (fst (Slice.start_live ~scratch:(Exec.scratch compiled) ~slice_trials cfg machine graph))

let same_answer ~slice_trials cfg (machine, graph) =
  let reference = unsliced cfg machine graph in
  let a, slices = sliced ~slice_trials cfg machine graph in
  Alcotest.(check bool) "the search spans several slices" true (slices > 1);
  Alcotest.check answer_t "envelope slices = Driver.run" reference a;
  let b, live_slices = live ~slice_trials cfg machine graph in
  Alcotest.(check int) "live and envelope chains pause alike" slices live_slices;
  Alcotest.check answer_t "live slices = Driver.run" reference b;
  let c, _ = live ~slice_trials:1 cfg machine graph in
  Alcotest.check answer_t "live 1-trial slices = Driver.run" reference c

(* small protocol, so the cases stay quick; the htr case keeps the
   serve defaults *)
let quick = { Slice.default_cfg with Slice.runs = 3; final_runs = 5 }
let stencil () = problem ~spec:"shepard" ~nodes:1 ~app:"stencil" ~input:"500x500"
let circuit () = problem ~spec:"lassen" ~nodes:2 ~app:"circuit" ~input:"n50w200"
let pennant () = problem ~spec:"lassen" ~nodes:2 ~app:"pennant" ~input:"320x90"

(* A paused search holds its evaluator, strategy and seen-set, not a
   simulation: on grid:32x32 Circuit a scratch is megabytes, and what a
   live pause retains beyond the compiled problem it shares with every
   other job must stay under a tenth of even a fresh one. *)
let check_paused_footprint () =
  let machine, graph =
    let nodes = 1024 in
    problem ~spec:"grid:32x32" ~nodes ~app:"circuit"
      ~input:(List.hd (App.circuit.App.inputs ~nodes))
  in
  let compiled = Exec.compile machine graph in
  let words v = Obj.reachable_words (Obj.repr v) in
  let beyond_compiled v = words (v, compiled) - words compiled in
  let scratch_words = beyond_compiled (Exec.scratch compiled) in
  match
    fst
      (Slice.start_live ~scratch:(Exec.scratch compiled) ~slice_trials:5
         { quick with Slice.seed = 21 } machine graph)
  with
  | Slice.Done _ -> Alcotest.fail "a 5-trial slice of CCD finished the search"
  | Slice.Suspended live ->
      Alcotest.(check int) "paused after 5 trials" 5 (Slice.live_trials live);
      let retained = beyond_compiled live in
      if retained * 10 >= scratch_words then
        Alcotest.failf "a paused search retains %d words; a fresh scratch is %d" retained
          scratch_words

let case name ~slice_trials cfg pb =
  Alcotest.test_case name `Quick (fun () -> same_answer ~slice_trials cfg (pb ()))

let suite =
  [
    case "ccd: stencil" ~slice_trials:15 { quick with Slice.seed = 11 } stencil;
    case "ccd: circuit" ~slice_trials:15 { quick with Slice.seed = 12 } circuit;
    case "portfolio under a virtual budget: stencil" ~slice_trials:10
      { quick with Slice.algo = Driver.Portfolio; budget = Some 0.05; seed = 13 }
      stencil;
    case "portfolio under a virtual budget: pennant" ~slice_trials:10
      { quick with Slice.algo = Driver.Portfolio; budget = Some 0.05; seed = 14 }
      pennant;
    case "random walk: stencil" ~slice_trials:10
      { quick with Slice.algo = Driver.Random_walk { max_evals = 40 }; seed = 15 }
      stencil;
    case "random walk: circuit" ~slice_trials:10
      { quick with Slice.algo = Driver.Random_walk { max_evals = 40 }; seed = 16 }
      circuit;
    case "htr on lassen:2, tied top candidates" ~slice_trials:40
      { Slice.default_cfg with Slice.seed = 5003 }
      (fun () -> problem ~spec:"lassen" ~nodes:2 ~app:"htr" ~input:"8x16y9z");
    Alcotest.test_case "a paused search holds no scratch" `Quick check_paused_footprint;
  ]
