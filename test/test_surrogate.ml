(* The surrogate contract (DESIGN.md §12), in two layers:

   1. Model properties (qcheck, all five apps): feature extraction is
      total and stable on arbitrary — even invalid — mappings, [rank]
      always returns a permutation, and the checkpoint codec
      round-trips bit-exactly (save → restore → save is the identity,
      and a restored model predicts bit-identically), and the section
      keeps the fields skim mode filled.

   2. Never-worse golden gate: at the same trial budget, surrogate
      ranking must end with a final best no worse than plain CCD, on
      every app.  Ranking changes the *trajectory* (a different
      neighbour may be accepted first), so this is an empirical quality
      gate, not an identity — the bench (surrogaterate) holds the same
      line.

   The driver cases below add that a fresh search runs a model only
   where it ranks (batched), and that on resume the snapshot decides.
   test_batch checks what a ranked round proposes. *)

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

(* 100 observations wrap the 64-slot window, so [save] has to write the
   ring oldest first and [restore] to rebuild its write position; one
   more observation on each model then evicts the same slot. *)
let roundtrip_bit_exact (app : App.t) input seed =
  let _, _, space = space_of app input in
  let sg = Surrogate.create space in
  let rng = Rng.create (seed + 2) in
  Surrogate.note_incumbent sg (Space.random_unconstrained space rng);
  let observe_random () =
    let m = Space.random_unconstrained space rng in
    let perf = 0.001 +. Rng.float rng 0.01 in
    fun sg -> Surrogate.observe sg m perf
  in
  for _ = 1 to 100 do
    observe_random () sg
  done;
  let saved = Surrogate.save sg in
  let sg2 = Surrogate.create space in
  (match Surrogate.restore sg2 saved with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let resaved = Surrogate.save sg2 in
  let once_more = observe_random () in
  once_more sg;
  once_more sg2;
  let probe = Array.init 6 (fun _ -> Space.random_unconstrained space rng) in
  List.mem "window 64" saved
  && resaved = saved
  && Surrogate.save sg2 = Surrogate.save sg
  && Surrogate.trained sg2 = Surrogate.trained sg
  && Array.for_all
       (fun m ->
         Int64.bits_of_float (Surrogate.predict sg m)
         = Int64.bits_of_float (Surrogate.predict sg2 m))
       probe
  && (Float.equal (Surrogate.spearman sg) (Surrogate.spearman sg2)
     || (Float.is_nan (Surrogate.spearman sg) && Float.is_nan (Surrogate.spearman sg2)))

(* A model for another graph, or for the same graph on another
   machine, must refuse the section, and so must one whose header
   disagrees with the fixed configuration. *)
let test_restore_mismatch () =
  let _, _, space = space_of App.stencil "500x500" in
  let saved = Surrogate.save (Surrogate.create space) in
  let refuses what other lines =
    match Surrogate.restore other lines with
    | Ok () -> Alcotest.failf "%s: mismatched restore must fail" what
    | Error e ->
        Alcotest.(check bool) (what ^ ": mentions mismatch") true
          (Str_helpers.contains e "mismatch")
  in
  let _, _, circuit = space_of App.circuit "n50w200" in
  refuses "another graph" (Surrogate.create circuit) saved;
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  refuses "another machine" (Surrogate.create (Space.make g (Presets.lassen ~nodes:1))) saved;
  let header = String.split_on_char ' ' (List.hd saved) in
  let other_dims = String.concat " " (List.mapi (fun i w -> if i = 2 then "256" else w) header) in
  refuses "other dims" (Surrogate.create space) (other_dims :: List.tl saved)

(* The section keeps the layout skim mode wrote: [-] for no skim in the
   header and a third counter of 0, so sections written while skim
   mode existed restore (one written with a skim setting is refused:
   see the driver case below). *)
let test_skim_layout () =
  let _, _, space = space_of App.stencil "500x500" in
  let sg = Surrogate.create space in
  let rng = Rng.create 9 in
  for _ = 1 to 8 do
    Surrogate.observe sg (Space.random_unconstrained space rng) 0.002
  done;
  let saved = Surrogate.save sg in
  (match saved with
  | header :: counters :: _ -> (
      Alcotest.(check string) "counters" "counters 8 0 0" counters;
      match String.split_on_char ' ' header with
      | [ "surrogate"; "1"; "512"; "64"; _; "-"; _; _ ] -> ()
      | _ -> Alcotest.failf "unexpected header %S" header)
  | _ -> Alcotest.fail "truncated section")

(* ---- 2. never-worse golden gate ------------------------------------- *)

let never_worse (app : App.t) input =
  let machine = machine_for app ~nodes:1 in
  let g = app.App.graph ~nodes:1 ~input in
  let start = Mapping.default_start g machine in
  let max_trials = 120 in
  let run ~rank =
    let ev = Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:1 machine g in
    let sg = if rank then Some (Surrogate.create (Evaluator.space ev)) else None in
    let o =
      Engine.run
        ~budget:(Budget.make ~max_trials ())
        ?surrogate:sg ~start ev
        (Ccd.make ?surrogate:sg ~rotations:5 ev)
    in
    o.Engine.perf
  in
  let exact = run ~rank:false in
  let rerank = run ~rank:true in
  Alcotest.(check bool)
    (Printf.sprintf "%s: rerank never worse (%.6g vs exact %.6g)" app.App.app_name
       rerank exact)
    true (rerank <= exact)

let test_never_worse () = List.iter (fun (app, input) -> never_worse app input) cases

(* ---- 3. driver resume with a surrogate ------------------------------ *)

let test_driver_surrogate_resume () =
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let path = Filename.temp_file "automap_sg" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let run ?checkpoint ?resume_from ~max_trials () =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials
          ~batch:true ?checkpoint ~checkpoint_every:20
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
     even when the resuming run would rank: the snapshot is the
     decision record *)
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let path = Filename.temp_file "automap_sgfree" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let full =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:40
          (Driver.Ccd { rotations = 5 })
          m g
      in
      ignore
        (Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:20
           ~checkpoint:path ~checkpoint_every:20
           (Driver.Ccd { rotations = 5 })
           m g);
      let resumed =
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:40
          ~batch:true ~resume_from:path
          (Driver.Ccd { rotations = 5 })
          m g
      in
      Alcotest.(check int) "resumes surrogate-free" 0 resumed.Driver.surrogate_trained;
      Alcotest.(check bool) "same best mapping" true
        (Mapping.equal full.Driver.best resumed.Driver.best);
      Alcotest.(check (float 0.0)) "same search perf" full.Driver.search_perf
        resumed.Driver.search_perf)

let test_driver_skim_refused () =
  (* a checkpoint whose surrogate ranked in skim mode cannot resume:
     its decisions read a truncation no search makes any more *)
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let path = Filename.temp_file "automap_skim" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      ignore
        (Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:20
           ~batch:true ~checkpoint:path ~checkpoint_every:20
           (Driver.Ccd { rotations = 5 })
           m g);
      let ckpt = In_channel.with_open_bin path In_channel.input_all in
      let skim_header l =
        match String.split_on_char ' ' l with
        | [ "surrogate"; "1"; d; w; eta; "-"; gid; mid ] ->
            String.concat " " [ "surrogate"; "1"; d; w; eta; "7"; gid; mid ]
        | _ -> l
      in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (String.concat "\n" (List.map skim_header (String.split_on_char '\n' ckpt))));
      match
        Driver.run ~runs:2 ~final_runs:2 ~noise_sigma:0.0 ~seed:0 ~max_trials:40
          ~batch:true ~resume_from:path
          (Driver.Ccd { rotations = 5 })
          m g
      with
      | _ -> Alcotest.fail "a skim checkpoint must be refused"
      | exception Failure msg ->
          Alcotest.(check bool) ("says skim mode is gone: " ^ msg) true
            (Str_helpers.contains msg "skim mode is gone"))

(* ---- 4. a surrogate exists only where it ranks ----------------------- *)

(* An unbatched search reads no model: it trains none and checkpoints
   none. *)
let test_unbatched_trains_none () =
  List.iter
    (fun (algo, (app : App.t), input) ->
      let m = machine_for app ~nodes:1 in
      let g = app.App.graph ~nodes:1 ~input in
      let path = Filename.temp_file "automap_unbatched" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let r =
            Driver.run ~runs:2 ~final_runs:2 ~seed:0 ~max_trials:60 ~checkpoint:path
              ~checkpoint_every:20 algo m g
          in
          let name = Driver.algo_name algo ^ " " ^ app.App.app_name in
          Alcotest.(check int) (name ^ ": no observations") 0 r.Driver.surrogate_trained;
          match Engine.load_snapshot path with
          | Ok s -> Alcotest.(check (list string)) (name ^ ": no section") [] s.Engine.s_surrogate
          | Error e -> Alcotest.fail e))
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
    ]

let suite =
  List.map QCheck_alcotest.to_alcotest props
  @ [
      Alcotest.test_case "restore refuses config mismatch" `Quick test_restore_mismatch;
      Alcotest.test_case "the section keeps skim's fields" `Quick test_skim_layout;
      Alcotest.test_case "never worse than exact (all apps)" `Quick test_never_worse;
      Alcotest.test_case "driver resume with surrogate" `Quick
        test_driver_surrogate_resume;
      Alcotest.test_case "surrogate-free checkpoint resumes free" `Quick
        test_driver_surrogate_free_checkpoint;
      Alcotest.test_case "a skim checkpoint does not resume" `Quick test_driver_skim_refused;
      Alcotest.test_case "unbatched search trains no surrogate" `Quick
        test_unbatched_trains_none;
    ]
