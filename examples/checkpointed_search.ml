(* Checkpointed, resumable and portfolio search.

     dune exec examples/checkpointed_search.exe

   Long offline searches (the paper's Pennant/HTR searches ran for
   hours, Figure 5) benefit from the strategy engine's persistence:
   a checkpoint file carries the full decision state — strategy
   cursors, RNG streams, evaluator counters and the profiles
   database — so an interrupted search resumes decision-identically,
   not merely warm-started. *)

let () =
  let machine = Presets.shepard ~nodes:1 in
  let g = App.pennant.App.graph ~nodes:1 ~input:"320x90" in
  let ckpt = Filename.temp_file "automap_example" ".ckpt" in

  (* session 1: CCD capped at 80 trials — an "interrupted" search that
     left a checkpoint behind (written every 20 evaluated trials) *)
  let r1 =
    Driver.run ~runs:3 ~noise_sigma:0.02 ~seed:0 ~max_trials:80 ~checkpoint:ckpt
      ~checkpoint_every:20
      (Driver.Ccd { rotations = 5 })
      machine g
  in
  Printf.printf
    "session 1 (CCD, interrupted): best %.3f ms after %d executions; %d checkpoint(s)\n"
    (r1.Driver.search_perf *. 1e3)
    r1.Driver.evaluated r1.Driver.checkpoints_written;

  (* session 2: resume from the file.  The engine replays nothing — it
     restores the sweep cursor, incumbent and RNG state and continues
     with the exact decision sequence the uninterrupted search would
     have made, streaming improvements as events. *)
  let improvements = ref 0 in
  let r2 =
    Driver.run ~runs:3 ~noise_sigma:0.02 ~seed:0 ~resume_from:ckpt
      ~on_event:(function Engine.Improve _ -> incr improvements | _ -> ())
      (Driver.Ccd { rotations = 5 })
      machine g
  in
  Printf.printf
    "session 2 (resumed): best %.3f ms, %d engine steps total, %d further improvements\n"
    (r2.Driver.search_perf *. 1e3)
    r2.Driver.engine_steps !improvements;
  Sys.remove ckpt;

  (* portfolio: CCD + annealing + random over one shared evaluator,
     under a 30-virtual-second budget split equally *)
  let ev3 = Evaluator.create ~runs:3 ~noise_sigma:0.02 ~seed:1 machine g in
  let o =
    Engine.run ~start:(Mapping.default_start g machine) ev3
      (Portfolio.make ~seed:1 ~budget:30.0 ev3)
  in
  Printf.printf "portfolio (%s): best %.3f ms — %s\n"
    (String.concat "+" (List.map Portfolio.member_name Portfolio.default_members))
    (o.Engine.perf *. 1e3)
    (Report.placement_summary g o.Engine.best)
