(* Multi-fidelity ensemble co-scheduling (the §5.1 / Figure 7
   scenario).

     dune exec examples/maestro_ensemble.exe

   One high-fidelity CFD sample fills the GPUs' Frame-Buffers; 32
   low-fidelity samples must run somewhere without slowing it down.
   Neither standard strategy (all-LF on CPU+System, all-LF on
   GPU+Zero-Copy) is right for every configuration; AutoMap finds a
   placement at least as good as both. *)

let () =
  let machine = Presets.lassen ~nodes:1 in
  Format.printf "machine: %a@.@." Machine.pp machine;
  let degradation ~n_lf ~resolution =
    let hf_alone = Maestro.graph ~nodes:1 ~n_lf:0 ~resolution in
    let base =
      Automap_api.measure_mapping machine hf_alone
        (Mapping.default_start hf_alone machine)
    in
    let g = Maestro.graph ~nodes:1 ~n_lf ~resolution in
    let relative mapping = Automap_api.measure_mapping machine g mapping /. base in
    let cpu = relative (Maestro.lf_cpu_sys g machine) in
    let zc = relative (Maestro.lf_gpu_zc g machine) in
    let r =
      Driver.run ~seed:0 ~runs:3 ~final_runs:7
        ~start:(Maestro.lf_gpu_zc g machine)
        (Driver.Ccd { rotations = 5 })
        machine g
    in
    (cpu, zc, r.Driver.perf /. base, r.Driver.best, g)
  in
  List.iter
    (fun (n_lf, resolution) ->
      let cpu, zc, am, best, g = degradation ~n_lf ~resolution in
      Printf.printf "%2d LF samples @ %d^3:\n" n_lf resolution;
      Printf.printf "  LF on CPU+SYS : %.3fx of HF-alone\n" cpu;
      Printf.printf "  LF on GPU+ZC  : %.3fx\n" zc;
      Printf.printf "  AutoMap       : %.3fx  (%s)\n\n" am
        (Report.placement_summary g best))
    [ (8, 16); (32, 16); (64, 32) ]
