(* One scheduling quantum of a search, for the serve daemon: run the
   engine for at most [slice_trials] evaluated proposals, then either
   finish (strategy stopped or the request's own budget ran out) or
   pause.  Every slice is a Driver session — the same build, budget
   rule and final protocol as Driver.run.  A paused search stays live:
   the session carries on with its carry advanced (Driver.advance) and
   its scratch detached, and the next slice, on whichever worker,
   attaches a fresh one.  The envelope — the engine's decision-identical
   checkpoint codec — is built only where it is read: by [start] and
   [resume], the restart-recovery path, and by the server when it
   persists a paused job.  So a search chopped into slices takes exactly
   the trial sequence the unsliced run would and returns the same
   answer, whether it pauses live or through envelopes.

   The only approximation is the wall clock: each slice accumulates its
   own elapsed time into the carry's wall field.  Wall is not
   decision-relevant here (slice budgets are trial-counted and requests
   carry no max_wall), so the accumulated value is telemetry. *)

type cfg = Driver.cfg = {
  algo : Driver.algo;
  runs : int;
  noise_sigma : float option;
  iterations : int option;
  seed : int;
  budget : float option;
  max_trials : int option;
  batch : bool;
  min_batch : int;
  symmetry : bool;
  dominance : bool;
  heft_seed : bool;
  final_top : int;
  final_runs : int;
}

let default_cfg = Driver.default_cfg

let algo_spec = function
  | Driver.Cd -> "cd"
  | Driver.Ccd { rotations } -> Printf.sprintf "ccd:%d" rotations
  | Driver.Ensemble_tuner -> "ensemble"
  | Driver.Random_walk { max_evals } -> Printf.sprintf "random:%d" max_evals
  | Driver.Annealing { max_evals } -> Printf.sprintf "annealing:%d" max_evals
  | Driver.Portfolio -> "portfolio"
  | Driver.Heft -> "heft"

let opt_f = function None -> "none" | Some v -> Printf.sprintf "%h" v
let opt_i = function None -> "none" | Some v -> string_of_int v

(* The full search identity, for the result memo: every field but
   [min_batch], which decides nothing. *)
let fingerprint cfg =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf
          "algo=%s runs=%d noise=%s iters=%s seed=%d budget=%s trials=%s batch=%b \
           symmetry=%b dominance=%b heft=%b top=%d final_runs=%d"
          (algo_spec cfg.algo) cfg.runs (opt_f cfg.noise_sigma) (opt_i cfg.iterations)
          cfg.seed (opt_f cfg.budget) (opt_i cfg.max_trials) cfg.batch cfg.symmetry
          cfg.dominance cfg.heft_seed cfg.final_top cfg.final_runs))

type finished = {
  best : Mapping.t;
  perf : float;
  best_runs : float list;
  search_best : Mapping.t;
  search_perf : float;
  trials : int;
}

type progress = { ckpt : string; p_trials : int; p_best_perf : float }
type status = Finished of finished | Paused of progress

type live = Driver.session
(* invariant: [carry] is set (a slice ran) and the evaluator holds no
   scratch *)

type live_status = Done of finished | Suspended of live

(* One slice of a session: at most [slice_trials] more trials, then the
   answer or a pause.  Hitting the slice cap with the request's own
   limits still open means "more work"; anything else — strategy stop,
   request trial cap, virtual budget overrun — is final.  A strategy
   that stops exactly on the cap is indistinguishable from a truncated
   one; it costs one extra no-op slice that stops immediately,
   evaluating nothing. *)
let run_slice ~slice_trials (s : Driver.session) =
  let done_trials, wall =
    match s.carry with Some c -> (c.Engine.c_trials, c.Engine.c_wall) | None -> (0, 0.0)
  in
  let cap =
    let c = done_trials + slice_trials in
    match s.cfg.max_trials with Some m -> min m c | None -> c
  in
  let t0 = Unix.gettimeofday () in
  let o = Driver.search ~max_trials:cap s in
  let finished =
    o.Engine.trials < cap
    || Budget.exhausted
         (Driver.budget ?max_trials:s.cfg.max_trials s)
         ~trials:o.Engine.trials ~vt:(Evaluator.virtual_time s.ev) ~wall:0.0
  in
  if finished then
    let best, best_runs = Driver.conclude s o in
    Done
      {
        best;
        perf = Stats.mean best_runs;
        best_runs;
        search_best = o.Engine.best;
        search_perf = o.Engine.perf;
        trials = o.Engine.trials;
      }
  else begin
    Evaluator.detach_scratch s.ev;
    Suspended (Driver.advance s o ~wall:(wall +. (Unix.gettimeofday () -. t0)))
  end

let carry (s : live) = Option.get s.carry
let live_trials s = (carry s).Engine.c_trials
let live_best_perf s = snd (carry s).Engine.c_best

let envelope (s : live) =
  let c = carry s in
  Engine.checkpoint_string ?surrogate:s.sg ?seen:s.seen s.ev s.strat
    ~trials:c.Engine.c_trials ~steps:c.Engine.c_steps ~wall:c.Engine.c_wall
    ~best:c.Engine.c_best

let start_live ?scratch ?warm_start ~slice_trials cfg machine graph =
  (* a fresh session restores nothing, so it cannot fail *)
  let s = Result.get_ok (Driver.session ?scratch ?start:warm_start cfg machine graph) in
  (run_slice ~slice_trials s, s.ev)

let resume_live ?scratch ~slice_trials cfg machine graph ~ckpt =
  let ( let* ) = Result.bind in
  let* snapshot = Engine.snapshot_of_string ckpt in
  match Driver.session ?scratch ~snapshot cfg machine graph with
  | Ok s -> Ok (run_slice ~slice_trials s, s.ev)
  | Error e -> Error ("Slice.resume: " ^ e)

let continue ~scratch ~slice_trials (s : live) =
  Evaluator.attach_scratch s.ev scratch;
  (run_slice ~slice_trials s, s.ev)

let to_status (st, ev) =
  match st with
  | Done f -> (Finished f, ev)
  | Suspended s ->
      (Paused { ckpt = envelope s; p_trials = live_trials s; p_best_perf = live_best_perf s }, ev)

let start ?warm_start ~slice_trials cfg machine graph =
  to_status (start_live ?warm_start ~slice_trials cfg machine graph)

let resume ~slice_trials cfg machine graph ~ckpt =
  Result.map to_status (resume_live ~slice_trials cfg machine graph ~ckpt)
