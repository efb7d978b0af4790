(* Figure 7: multi-fidelity ensemble CFD (Maestro) on the Lassen
   machine model.  For each (LF count, resolution, node count) we
   report the *degradation* of the ensemble relative to the
   high-fidelity sample running alone, for the two standard strategies
   (all-LF on CPU+System, all-LF on GPU+Zero-Copy) and for AutoMap;
   values near 1.0 mean the low-fidelity samples ride along for free. *)

let lf_counts () = if !Bench_common.scale.full then [ 4; 8; 16; 32; 64 ] else [ 8; 32; 64 ]
let resolutions = [ 16; 32 ]
let nodes_list () = if !Bench_common.scale.full then [ 1; 2 ] else [ 1 ]

let run () =
  List.iter
    (fun nodes ->
      Bench_common.section
        (Printf.sprintf "Figure 7: Maestro degradation vs HF-alone (%d node%s, Lassen)"
           nodes (if nodes = 1 then "" else "s"));
      let machine = Presets.lassen ~nodes in
      let seed = !Bench_common.scale.seed in
      let hf_alone =
        let g = Maestro.graph ~nodes ~n_lf:0 ~resolution:16 in
        match
          Bench_common.measure_mapping ~runs:(Bench_common.runs ()) machine g
            (Mapping.default_start g machine) ~seed
        with
        | Some v -> v
        | None -> failwith "HF-alone baseline failed"
      in
      Bench_common.note "HF alone: %.2f ms/iter" (hf_alone *. 1e3);
      let t = Table.create [ "config"; "LF on CPU+SYS"; "LF on GPU+ZC"; "AM-CCD" ] in
      let rows =
        List.concat_map
          (fun resolution ->
            List.map
              (fun n_lf ->
                let g = Maestro.graph ~nodes ~n_lf ~resolution in
                let deg mapping =
                  match
                    Bench_common.measure_mapping ~runs:(Bench_common.runs ()) machine g
                      mapping ~seed
                  with
                  | Some v -> v /. hf_alone
                  | None -> nan
                in
                let r =
                  Driver.run ~runs:(Bench_common.runs ())
                    ~final_runs:(Bench_common.final_runs ())
                    ~seed
                    ~start:(Maestro.lf_gpu_zc g machine)
                    (Driver.Ccd { rotations = 5 })
                    machine g
                in
                ( Printf.sprintf "%d LFs @ %d^3" n_lf resolution,
                  deg (Maestro.lf_cpu_sys g machine),
                  deg (Maestro.lf_gpu_zc g machine),
                  r.Driver.perf /. hf_alone ))
              (lf_counts ()))
          resolutions
      in
      let cell v = if Float.is_nan v then "OOM" else Printf.sprintf "%.3f" v in
      List.iter
        (fun (config, cpu, zc, am) ->
          Table.add_row t [ config; cell cpu; cell zc; cell am ])
        rows;
      Table.print t;
      let cats = List.map (fun (c, _, _, _) -> c) rows in
      let series label f =
        { Svg_plot.label; points = List.mapi (fun i r -> (float_of_int i, f r)) rows }
      in
      Bench_common.save_plot
        (Printf.sprintf "fig7_%dn" nodes)
        (Svg_plot.line_chart ~x_categories:cats ~y_min:0.9
           ~title:(Printf.sprintf "Maestro: degradation vs HF-alone (%d node(s))" nodes)
           ~xlabel:"low-fidelity configuration" ~ylabel:"degradation"
           [
             series "LF on CPU+SYS" (fun (_, v, _, _) -> v);
             series "LF on GPU+ZC" (fun (_, _, v, _) -> v);
             series "AutoMap" (fun (_, _, _, v) -> v);
           ]))
    (nodes_list ())
