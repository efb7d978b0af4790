(* The surrogate contract (DESIGN.md §12), in three layers:

   1. Model properties (qcheck, all five apps): feature extraction is
      total and stable on arbitrary — even invalid — mappings, [rank]
      always returns a permutation, and the checkpoint codec
      round-trips bit-exactly (save → restore → save is the identity,
      and a restored model predicts bit-identically).

   2. Identity: CCD proposing surrogate-ranked *batches* is
      decision-identical — same best, bit-equal perf, identical
      evaluator counters, identical surrogate state — to CCD proposing
      the same ranked candidates one at a time.  This is the ranked
      analogue of the plain batch ≡ sequential property (test_batch),
      valid for the same reason: common random numbers make each
      candidate's result order-independent.

   3. Never-worse golden gate: at the same trial budget, surrogate
      reranking and top-K skimming must end with a final best no worse
      than the exact batched CCD, on every app.  Reranking and
      skimming change the *trajectory* (a different neighbour may be
      accepted first), so this is an empirical quality gate, not an
      identity — the bench (surrogaterate) holds the same line.

   The driver cases below add that a fresh search runs a model only
   where it ranks (batched), and that on resume the snapshot decides. *)

let cases =
  [
    (App.circuit, "n50w200");
    (App.stencil, "500x500");
    (App.pennant, "320x90");
    (App.htr, "8x8y9z");
    (App.maestro, "lf4r16");
  ]

let machine_for (app : App.t) ~nodes =
  if app.App.app_name = "Maestro" then Presets.lassen ~nodes else Presets.shepard ~nodes

let space_of (app : App.t) input =
  let machine = machine_for app ~nodes:1 in
  let g = app.App.graph ~nodes:1 ~input in
  (machine, g, Space.make g machine)

(* ---- 1. model properties -------------------------------------------- *)

let features_total_and_stable (app : App.t) input seed =
  let _, _, space = space_of app input in
  let sg = Surrogate.create space in
  let rng = Rng.create seed in
  (* exercise the diff features too: half the time set a reference *)
  if Rng.bool rng then
    Surrogate.note_incumbent sg (Space.random_unconstrained space rng);
  let m = Space.random_unconstrained space rng in
  let f1 = Surrogate.features sg m in
  let f2 = Surrogate.features sg m in
  let p1 = Surrogate.predict sg m in
  let p2 = Surrogate.predict sg m in
  let rec ascending = function
    | (i, _) :: ((j, _) :: _ as rest) -> i < j && ascending rest
    | _ -> true
  in
  f1 = f2
  && f1 <> []
  && List.for_all (fun (i, v) -> i >= 0 && i < 512 && Float.is_finite v) f1
  && ascending f1
  && Int64.bits_of_float p1 = Int64.bits_of_float p2

let rank_is_permutation (app : App.t) input seed =
  let _, _, space = space_of app input in
  let sg = Surrogate.create space in
  let rng = Rng.create (seed + 1) in
  (* a few observations so the weights are non-trivial *)
  for _ = 1 to 10 do
    Surrogate.observe sg
      (Space.random_unconstrained space rng)
      (0.001 +. Rng.float rng 0.01)
  done;
  let n = 1 + Rng.int rng 12 in
  let cands = Array.init n (fun _ -> Space.random_unconstrained space rng) in
  let perm = Surrogate.rank sg cands in
  let perm' = Surrogate.rank sg cands in
  let sorted = Array.copy perm in
  Array.sort compare sorted;
  Array.length perm = n
  && sorted = Array.init n Fun.id
  && perm = perm' (* deterministic in the model state *)

let roundtrip_bit_exact (app : App.t) input seed =
  let _, _, space = space_of app input in
  let sg = Surrogate.create ~window:16 ~skim:3 space in
  let rng = Rng.create (seed + 2) in
  Surrogate.note_incumbent sg (Space.random_unconstrained space rng);
  for _ = 1 to 25 do
    Surrogate.observe sg
      (Space.random_unconstrained space rng)
      (0.001 +. Rng.float rng 0.01)
  done;
  let saved = Surrogate.save sg in
  let sg2 = Surrogate.create ~window:16 ~skim:3 space in
  (match Surrogate.restore sg2 saved with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let probe = Array.init 6 (fun _ -> Space.random_unconstrained space rng) in
  Surrogate.save sg2 = saved
  && Surrogate.trained sg2 = Surrogate.trained sg
  && Array.for_all
       (fun m ->
         Int64.bits_of_float (Surrogate.predict sg m)
         = Int64.bits_of_float (Surrogate.predict sg2 m))
       probe
  && Float.equal (Surrogate.spearman sg) (Surrogate.spearman sg2)
     || (Float.is_nan (Surrogate.spearman sg) && Float.is_nan (Surrogate.spearman sg2))

let test_restore_mismatch () =
  let _, _, space = space_of App.stencil "500x500" in
  let sg = Surrogate.create space in
  let saved = Surrogate.save sg in
  (* different dims, different window, different skim: all must refuse *)
  List.iter
    (fun other ->
      match Surrogate.restore other saved with
      | Ok () -> Alcotest.fail "mismatched restore must fail"
      | Error e ->
          Alcotest.(check bool) "mentions mismatch" true
            (Str_helpers.contains e "mismatch"))
    [
      Surrogate.create ~dims:256 space;
      Surrogate.create ~window:8 space;
      Surrogate.create ~skim:4 space;
    ]

let test_warmup_gates_skim () =
  let _, _, space = space_of App.stencil "500x500" in
  let sg = Surrogate.create ~window:4 ~skim:2 space in
  Alcotest.(check bool) "skim configured" true (Surrogate.skim sg = Some 2);
  Alcotest.(check bool) "inactive untrained" true (Surrogate.skim_active sg = None);
  let rng = Rng.create 9 in
  for _ = 1 to 8 do
    Surrogate.observe sg (Space.random_unconstrained space rng) 0.002
  done;
  Alcotest.(check bool) "active past 2*window" true
    (Surrogate.skim_active sg = Some 2)

(* ---- 2. ranked batch = ranked sequential ---------------------------- *)

type counters = {
  suggested : int;
  evaluated : int;
  cache_hits : int;
  invalid : int;
  oom : int;
  noop : int;
  dead : int;
  vt_bits : int64;
}

let counters ev =
  {
    suggested = Evaluator.suggested ev;
    evaluated = Evaluator.evaluated ev;
    cache_hits = Evaluator.cache_hits ev;
    invalid = Evaluator.invalid_count ev;
    oom = Evaluator.oom_count ev;
    noop = Evaluator.noop_skips ev;
    dead = Evaluator.dead_coord_skips ev;
    vt_bits = Int64.bits_of_float (Evaluator.virtual_time ev);
  }

let ranked_modes_identical (app : App.t) input ~skim ~max_trials =
  let machine = machine_for app ~nodes:1 in
  let g = app.App.graph ~nodes:1 ~input in
  let start = Mapping.default_start g machine in
  let run ~batch =
    let ev = Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:1 machine g in
    let sg = Surrogate.create ~window:4 ?skim (Evaluator.space ev) in
    let o =
      Engine.run
        ~budget:(Budget.make ~max_trials ())
        ~surrogate:sg ~start ev
        (Ccd.make ~batch ~surrogate:sg ~rotations:3 ev)
    in
    (o, ev, sg)
  in
  let o_b, ev_b, sg_b = run ~batch:true in
  let o_s, ev_s, sg_s = run ~batch:false in
  Mapping.equal o_b.Engine.best o_s.Engine.best
  && Int64.bits_of_float o_b.Engine.perf = Int64.bits_of_float o_s.Engine.perf
  && o_b.Engine.trials = o_s.Engine.trials
  && counters ev_b = counters ev_s
  && Surrogate.save sg_b = Surrogate.save sg_s
  && Evaluator.save_state ev_b = Evaluator.save_state ev_s

let ranked_identity_props =
  List.map
    (fun ((app : App.t), input) ->
      QCheck.Test.make ~count:4
        ~name:
          (Printf.sprintf "ranked batch = ranked sequential (%s)" app.App.app_name)
        QCheck.(int_range 10 60)
        (fun max_trials ->
          (* odd budgets exercise mid-batch truncation; skim on half *)
          let skim = if max_trials mod 2 = 0 then Some 3 else None in
          ranked_modes_identical app input ~skim ~max_trials))
    cases

(* ---- 3. never-worse golden gate ------------------------------------- *)

let never_worse (app : App.t) input =
  let machine = machine_for app ~nodes:1 in
  let g = app.App.graph ~nodes:1 ~input in
  let start = Mapping.default_start g machine in
  let max_trials = 120 in
  let run surrogate =
    let ev = Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:1 machine g in
    let sg =
      Option.map (fun skim -> Surrogate.create ~window:8 ?skim (Evaluator.space ev))
        surrogate
    in
    let o =
      Engine.run
        ~budget:(Budget.make ~max_trials ())
        ?surrogate:sg ~start ev
        (Ccd.make ~batch:true ?surrogate:sg ~rotations:5 ev)
    in
    o.Engine.perf
  in
  let exact = run None in
  let rerank = run (Some None) in
  let skim = run (Some (Some 4)) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: rerank never worse (%.6g vs exact %.6g)" app.App.app_name
       rerank exact)
    true (rerank <= exact);
  Alcotest.(check bool)
    (Printf.sprintf "%s: skim never worse (%.6g vs exact %.6g)" app.App.app_name skim
       exact)
    true (skim <= exact)

let test_never_worse () = List.iter (fun (app, input) -> never_worse app input) cases

(* ---- 4. driver resume with a surrogate ------------------------------ *)

let test_driver_surrogate_resume () =
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let path = Filename.temp_file "automap_sg" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let run ?checkpoint ?resume_from ~max_trials () =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials
          ~batch:true ~surrogate:true ?checkpoint ~checkpoint_every:20
          ?resume_from
          (Driver.Ccd { rotations = 5 })
          m g
      in
      let full = run ~max_trials:40 () in
      let truncated = run ~checkpoint:path ~max_trials:20 () in
      Alcotest.(check bool) "checkpoint written" true
        (truncated.Driver.checkpoints_written >= 1);
      let resumed = run ~resume_from:path ~max_trials:40 () in
      Alcotest.(check bool) "same best mapping" true
        (Mapping.equal full.Driver.best resumed.Driver.best);
      Alcotest.(check (float 0.0)) "same search perf" full.Driver.search_perf
        resumed.Driver.search_perf;
      Alcotest.(check int) "same evaluation count" full.Driver.evaluated
        resumed.Driver.evaluated;
      Alcotest.(check int) "same surrogate observations" full.Driver.surrogate_trained
        resumed.Driver.surrogate_trained;
      Alcotest.(check bool) "surrogate actually ran" true
        (full.Driver.surrogate_trained > 0);
      Alcotest.(check bool) "and ranked" true (full.Driver.surrogate_reranks > 0))

let test_driver_surrogate_free_checkpoint () =
  (* a checkpoint written without a surrogate resumes surrogate-free
     even when the resuming run would default one on: the snapshot is
     the decision record *)
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let path = Filename.temp_file "automap_sgfree" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let full =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:40
          ~batch:true ~surrogate:false
          (Driver.Ccd { rotations = 5 })
          m g
      in
      ignore
        (Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:20
           ~batch:true ~surrogate:false ~checkpoint:path ~checkpoint_every:20
           (Driver.Ccd { rotations = 5 })
           m g);
      let resumed =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:40
          ~batch:true ~surrogate:true ~resume_from:path
          (Driver.Ccd { rotations = 5 })
          m g
      in
      Alcotest.(check int) "resumes surrogate-free" 0 resumed.Driver.surrogate_trained;
      Alcotest.(check bool) "same best mapping" true
        (Mapping.equal full.Driver.best resumed.Driver.best);
      Alcotest.(check (float 0.0)) "same search perf" full.Driver.search_perf
        resumed.Driver.search_perf)

let test_driver_skim_mismatch () =
  (* resuming a surrogate checkpoint under a different skim config must
     fail loudly, not silently change the decision sequence *)
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let path = Filename.temp_file "automap_skim" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      ignore
        (Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:20
           ~batch:true ~surrogate:true ~checkpoint:path ~checkpoint_every:20
           (Driver.Ccd { rotations = 5 })
           m g);
      match
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:40
          ~surrogate_skim:7 ~resume_from:path
          (Driver.Ccd { rotations = 5 })
          m g
      with
      | _ -> Alcotest.fail "skim-mismatched resume must raise"
      | exception Failure msg ->
          Alcotest.(check bool) "mentions mismatch" true
            (Str_helpers.contains msg "mismatch"))

(* ---- 5. a surrogate exists only where it ranks ----------------------- *)

(* An unbatched search reads no model: asked for one, it trains none,
   checkpoints none, and decides bit for bit as the run without one. *)
let test_unbatched_trains_none () =
  List.iter
    (fun (algo, (app : App.t), input) ->
      let m = machine_for app ~nodes:1 in
      let g = app.App.graph ~nodes:1 ~input in
      let path = Filename.temp_file "automap_unbatched" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let run ~surrogate ?checkpoint () =
            Driver.run ~runs:2 ~final_runs:2 ~seed:0 ~max_trials:60 ~surrogate
              ?checkpoint ~checkpoint_every:20 algo m g
          in
          let asked = run ~surrogate:true ~checkpoint:path () in
          let off = run ~surrogate:false () in
          let name = Driver.algo_name algo ^ " " ^ app.App.app_name in
          Alcotest.(check int) (name ^ ": no observations") 0 asked.Driver.surrogate_trained;
          (match Engine.load_snapshot path with
          | Ok s -> Alcotest.(check (list string)) (name ^ ": no section") [] s.Engine.s_surrogate
          | Error e -> Alcotest.fail e);
          Alcotest.(check string) (name ^ ": same best mapping")
            (Mapping.canonical_key off.Driver.best)
            (Mapping.canonical_key asked.Driver.best);
          Alcotest.(check int64) (name ^ ": same perf bits")
            (Int64.bits_of_float off.Driver.perf)
            (Int64.bits_of_float asked.Driver.perf)))
    [
      (Driver.Ccd { rotations = 5 }, App.stencil, "500x500");
      (Driver.Ccd { rotations = 5 }, App.circuit, "n50w200");
      (Driver.Ensemble_tuner, App.stencil, "500x500");
      (Driver.Ensemble_tuner, App.maestro, "lf4r16");
    ]

let props =
  List.concat
    [
      List.map
        (fun ((app : App.t), input) ->
          QCheck.Test.make ~count:10
            ~name:(Printf.sprintf "features total and stable (%s)" app.App.app_name)
            QCheck.small_nat
            (fun seed -> features_total_and_stable app input seed))
        cases;
      List.map
        (fun ((app : App.t), input) ->
          QCheck.Test.make ~count:10
            ~name:(Printf.sprintf "rank is a permutation (%s)" app.App.app_name)
            QCheck.small_nat
            (fun seed -> rank_is_permutation app input seed))
        cases;
      List.map
        (fun ((app : App.t), input) ->
          QCheck.Test.make ~count:6
            ~name:(Printf.sprintf "checkpoint round-trips bit-exactly (%s)" app.App.app_name)
            QCheck.small_nat
            (fun seed -> roundtrip_bit_exact app input seed))
        cases;
      ranked_identity_props;
    ]

let suite =
  List.map QCheck_alcotest.to_alcotest props
  @ [
      Alcotest.test_case "restore refuses config mismatch" `Quick test_restore_mismatch;
      Alcotest.test_case "warmup gates skim" `Quick test_warmup_gates_skim;
      Alcotest.test_case "never worse than exact (all apps)" `Quick test_never_worse;
      Alcotest.test_case "driver resume with surrogate" `Quick
        test_driver_surrogate_resume;
      Alcotest.test_case "surrogate-free checkpoint resumes free" `Quick
        test_driver_surrogate_free_checkpoint;
      Alcotest.test_case "skim-mismatched resume fails" `Quick test_driver_skim_mismatch;
      Alcotest.test_case "unbatched search trains no surrogate" `Quick
        test_unbatched_trains_none;
    ]
