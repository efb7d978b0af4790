(* Bechamel microbenchmarks: one [Test.make] per paper table/figure,
   each timing the hot kernel its harness leans on —

     FIG5  search-space statistics        (Space.log2_size)
     FIG6  simulator execution            (Exec.run, Circuit default)
     FIG7  ensemble-workload simulation   (Exec.run, Maestro)
     FIG8  capacity check / OOM detection (Placement.resolve)
     FIG9  Algorithm 2 fixed point        (Colocation.apply)
           overlap-graph construction     (Overlap.of_graph)
     T53   cached evaluation (dedup path) (Evaluator.evaluate)
     FIG23 mapping visualization          (Report.mapping)           *)

open Bechamel
open Toolkit

let pennant = lazy (App.pennant.App.graph ~nodes:1 ~input:"320x90")
let circuit = lazy (App.circuit.App.graph ~nodes:1 ~input:"n100w400")
let shepard = lazy (Presets.shepard ~nodes:1)

let test_fig5_space =
  Test.make ~name:"fig5: space log2 size"
    (Staged.stage (fun () ->
         let g = Lazy.force pennant in
         Space.log2_size (Space.make g (Lazy.force shepard))))

let test_fig6_sim =
  Test.make ~name:"fig6: simulate circuit"
    (Staged.stage (fun () ->
         let g = Lazy.force circuit in
         let machine = Lazy.force shepard in
         Exec.run ~noise_sigma:0.0 machine g (Mapping.default_start g machine)))

let maestro_g = lazy (Maestro.graph ~nodes:1 ~n_lf:8 ~resolution:16)
let lassen = lazy (Presets.lassen ~nodes:1)

let test_fig7_sim =
  Test.make ~name:"fig7: simulate maestro"
    (Staged.stage (fun () ->
         let g = Lazy.force maestro_g in
         let machine = Lazy.force lassen in
         Exec.run ~noise_sigma:0.0 machine g (Maestro.lf_gpu_zc g machine)))

let oversized_pennant =
  lazy
    (let machine = Lazy.force shepard in
     let fb = Machine.mem_kind_capacity machine Kinds.Frame_buffer in
     Pennant.graph_of_zones ~nodes:1 ~zones:(1.013 *. fb /. Pennant.bytes_per_zone))

let test_fig8_oom =
  Test.make ~name:"fig8: placement capacity check"
    (Staged.stage (fun () ->
         let g = Lazy.force oversized_pennant in
         let machine = Lazy.force shepard in
         Placement.resolve machine g (Mapping.default_start g machine)))

let test_fig9_colocation =
  Test.make ~name:"fig9: colocation fixed point"
    (Staged.stage (fun () ->
         let g = Lazy.force pennant in
         let machine = Lazy.force shepard in
         let overlap = Overlap.of_graph g in
         let base = Mapping.default_start g machine in
         let c = (List.hd (Graph.collections g)).Graph.cid in
         let t = (Graph.collection g c).Graph.owner in
         let f' = Mapping.set_mem (Mapping.set_proc base t Kinds.Gpu) c Kinds.Zero_copy in
         Colocation.apply g machine ~overlap ~mapping:f' ~t ~c ~k:Kinds.Gpu
           ~r:Kinds.Zero_copy))

let test_fig9_overlap =
  Test.make ~name:"fig9: overlap graph build"
    (Staged.stage (fun () -> Overlap.of_graph (Lazy.force pennant)))

let cached_ev =
  lazy
    (let g = Lazy.force pennant in
     let machine = Lazy.force shepard in
     let ev = Evaluator.create ~runs:2 ~seed:0 machine g in
     let m = Mapping.default_start g machine in
     ignore (Evaluator.evaluate ev m);
     (ev, m))

let test_t53_cached =
  Test.make ~name:"t53: cached evaluation (dedup)"
    (Staged.stage (fun () ->
         let ev, m = Lazy.force cached_ev in
         Evaluator.evaluate ev m))

let test_fig23_report =
  Test.make ~name:"fig23: mapping report"
    (Staged.stage (fun () ->
         let g = Lazy.force pennant in
         Report.mapping g (Mapping.default_start g (Lazy.force shepard))))

let tests =
  Test.make_grouped ~name:"automap" ~fmt:"%s %s"
    [
      test_fig5_space;
      test_fig6_sim;
      test_fig7_sim;
      test_fig8_oom;
      test_fig9_colocation;
      test_fig9_overlap;
      test_t53_cached;
      test_fig23_report;
    ]

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  Analyze.merge ols instances results

let img (window, results) =
  Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run
    results

let run () =
  Bench_common.section "Bechamel microbenchmarks (one per table/figure kernel)";
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ monotonic_clock ];
  let results = benchmark () in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  Notty_unix.output_image (Notty_unix.eol (img (window, results)))
