let name = "Maestro"

let hf_comps =
  [ ("hf_cons", 10); ("hf_prim", 12); ("hf_flux", 10); ("hf_rhs", 10); ("hf_props", 4) ]

let lf_task_names =
  [ "lf_bc"; "lf_props"; "lf_eos"; "lf_grad"; "lf_flux_x"; "lf_flux_y"; "lf_flux_z";
    "lf_chem"; "lf_sum"; "lf_update"; "lf_prim_up"; "lf_dt"; "lf_out" ]

(* The HF sample fills 99.8% of each node's Frame-Buffer capacity: a
   Lassen node's four 16 GB V100s. *)
let hf_frac = 0.998
let fb_per_node = 64e9

let graph ~nodes ~n_lf ~resolution =
  if n_lf < 0 then invalid_arg "Maestro.graph: n_lf must be non-negative";
  if resolution <= 0 then invalid_arg "Maestro.graph: resolution must be positive";
  let shards = App_util.pieces_per_node * nodes in
  let comps_total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 hf_comps |> float_of_int
  in
  let hf_cells =
    hf_frac *. fb_per_node *. float_of_int nodes /. (comps_total *. 8.0)
  in
  let hf_halo = Float.min 0.3 (2.0 *. float_of_int shards /. (hf_cells ** (1.0 /. 3.0))) in
  let a ?(comps = 1) ?(halo_frac = 0.0) n elems =
    Workload.array_decl ~name:n ~elems ~comps ~halo_frac ()
  in
  let hf_arrays =
    List.map
      (fun (n, c) ->
        a n hf_cells ~comps:c ~halo_frac:(if n = "hf_prim" then hf_halo else 0.0))
      hf_comps
    @ [ a "hf_diag" (float_of_int shards *. 8.0) ]
  in
  let r = Workload.read and w = Workload.write and rw = Workload.read_write in
  let gpu_only = [ Kinds.Gpu ] in
  let hf_task tname scale flops accesses =
    Workload.task_decl ~name:tname ~work_elems:(scale *. hf_cells) ~flops_per_elem:flops
      ~group_size:shards ~variants:gpu_only ~gpu_eff:1.0 ~accesses ()
  in
  let hf_tasks =
    [
      hf_task "hf_flux" 1.0 150.0 [ r ~ghosted:true "hf_prim"; r "hf_props"; w "hf_flux" ];
      hf_task "hf_chem" 1.0 3000.0 [ r "hf_prim"; r "hf_props"; w "hf_rhs" ];
      hf_task "hf_sum" 1.0 40.0 [ r "hf_flux"; rw "hf_rhs" ];
      hf_task "hf_update" 1.0 30.0 [ r "hf_rhs"; rw "hf_cons" ];
      hf_task "hf_prim_up" 1.0 100.0 [ r "hf_cons"; w "hf_prim" ];
      hf_task "hf_diag_out" 0.05 10.0 [ r "hf_cons"; w "hf_diag" ];
    ]
  in
  let lf_arrays, lf_tasks =
    if n_lf = 0 then ([], [])
    else begin
      let cells = float_of_int n_lf *. float_of_int (resolution * resolution * resolution) in
      let arrays =
        [
          a "lf_cons" cells ~comps:10;
          a "lf_prim" cells ~comps:12;
          a "lf_grad" cells ~comps:9;
          a "lf_flux" cells ~comps:10;
          a "lf_rhs" cells ~comps:10;
          a "lf_src" cells ~comps:10;
          a "lf_props" cells ~comps:4;
          a "lf_temp" cells ~comps:1;
          a "lf_diag" (float_of_int n_lf *. 8.0);
        ]
      in
      let lf_task tname scale flops accesses =
        Workload.task_decl ~name:tname ~work_elems:(scale *. cells) ~flops_per_elem:flops
          ~group_size:n_lf ~gpu_eff:0.9 ~cpu_eff:1.0 ~accesses ()
      in
      let tasks =
        [
          lf_task "lf_bc" 0.1 60.0 [ rw "lf_prim"; r "lf_diag" ];
          lf_task "lf_props" 1.0 180.0 [ r "lf_prim"; w "lf_props"; w "lf_temp" ];
          lf_task "lf_eos" 1.0 300.0 [ r "lf_cons"; w "lf_prim" ];
          lf_task "lf_grad" 1.0 240.0 [ r "lf_prim"; w "lf_grad" ];
          lf_task "lf_flux_x" 1.0 450.0 [ r "lf_prim"; r "lf_grad"; w "lf_flux" ];
          lf_task "lf_flux_y" 1.0 450.0 [ r "lf_prim"; rw "lf_flux" ];
          lf_task "lf_flux_z" 1.0 450.0 [ r "lf_prim"; rw "lf_flux" ];
          lf_task "lf_chem" 1.0 40000.0 [ r "lf_prim"; r "lf_temp"; w "lf_src" ];
          lf_task "lf_sum" 1.0 120.0 [ r "lf_flux"; r "lf_src"; w "lf_rhs" ];
          lf_task "lf_update" 1.0 90.0 [ r "lf_rhs"; rw "lf_cons" ];
          lf_task "lf_prim_up" 1.0 300.0 [ r "lf_cons"; w "lf_prim" ];
          lf_task "lf_dt" 0.2 60.0 [ r "lf_prim"; w "lf_diag" ];
          lf_task "lf_out" 0.1 30.0 [ r "lf_cons"; rw "lf_diag" ];
        ]
      in
      (arrays, tasks)
    end
  in
  Workload.build
    ~name:(Printf.sprintf "Maestro-lf%dr%d" n_lf resolution)
    ~iterations:3
    ~arrays:(hf_arrays @ lf_arrays)
    ~tasks:(hf_tasks @ lf_tasks)

let graph_of_input ~nodes ~input =
  match App_util.parse_pair ~tag1:'l' ~tag2:'r' (String.concat "" (String.split_on_char 'f' input)) with
  | Some (n_lf, resolution) -> graph ~nodes ~n_lf ~resolution
  | None -> invalid_arg ("Maestro.graph_of_input: bad input " ^ input)

let inputs ~nodes:_ =
  List.concat_map
    (fun r -> List.map (fun n -> Printf.sprintf "lf%dr%d" n r) [ 4; 8; 16; 32; 64 ])
    [ 16; 32 ]

let is_lf (t : Graph.task) = List.mem t.tname lf_task_names

let strategy ~proc ~mem g machine =
  let base = Mapping.default_start g machine in
  Mapping.make g
    ~distribute:(fun t -> Mapping.distribute_of base t.tid)
    ~proc:(fun t -> if is_lf t then proc else Mapping.proc_of base t.tid)
    ~mem:(fun c ->
      if is_lf (Graph.task g c.owner) then mem else Mapping.mem_of base c.cid)

let lf_cpu_sys g machine = strategy ~proc:Kinds.Cpu ~mem:Kinds.System g machine
let lf_gpu_zc g machine = strategy ~proc:Kinds.Gpu ~mem:Kinds.Zero_copy g machine
let custom_mapping = lf_gpu_zc
