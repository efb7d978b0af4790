(* ---------------------------------------------------------------- *)
(* Reference BFS over the link graph: validates the arithmetic      *)
(* routers against an independent shortest-path oracle.             *)
(* ---------------------------------------------------------------- *)

let bfs_dist topo src =
  let nv = Topology.n_vertices topo in
  let dist = Array.make nv (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun l ->
        if l.Topology.lsrc = v && dist.(l.Topology.ldst) < 0 then begin
          dist.(l.Topology.ldst) <- dist.(v) + 1;
          Queue.add l.Topology.ldst q
        end)
      (Topology.links topo)
  done;
  dist

let check_routes_valid topo =
  let n = Topology.n_nodes topo in
  for src = 0 to n - 1 do
    let dist = bfs_dist topo src in
    for dst = 0 to n - 1 do
      let d = Topology.distance topo ~src ~dst in
      Alcotest.(check int)
        (Printf.sprintf "%s: dist %d->%d matches BFS" (Topology.name topo) src dst)
        dist.(dst) d;
      if d >= 0 then begin
        (* the route must be a connected src->dst path of exactly d links *)
        let pos = ref src and hops = ref 0 in
        Topology.route_iter topo ~src ~dst ~f:(fun l ->
            Alcotest.(check int) "hop continues from current vertex" !pos
              l.Topology.lsrc;
            pos := l.Topology.ldst;
            incr hops);
        Alcotest.(check int) "route ends at dst" dst !pos;
        Alcotest.(check int) "route length = distance" d !hops
      end
    done
  done

let test_routes_match_bfs () =
  List.iter check_routes_valid
    [
      Topology.grid ~w:4 ~h:3 ~link_bw:1e9 ~link_latency:1e-6 ();
      Topology.grid ~w:1 ~h:5 ~link_bw:1e9 ~link_latency:1e-6 ();
      Topology.grid ~w:5 ~h:1 ~link_bw:1e9 ~link_latency:1e-6 ();
      Topology.grid ~w:4 ~h:4 ~wrap:true ~link_bw:1e9 ~link_latency:1e-6 ();
      Topology.grid ~w:3 ~h:5 ~wrap:true ~link_bw:1e9 ~link_latency:1e-6 ();
      Topology.fattree ~levels:2 ~arity:3 ~link_bw:1e9 ~link_latency:1e-6;
      Topology.fattree ~levels:3 ~arity:2 ~link_bw:1e9 ~link_latency:1e-6;
      Topology.custom ~name:"ring4" ~n_nodes:4
        ~links:
          [ (0, 1, 1e9, 1e-6); (1, 2, 1e9, 1e-6); (2, 3, 1e9, 1e-6); (3, 0, 1e9, 1e-6) ]
        ();
    ]

(* Random topologies of every family, each with a seed for the node
   pairs it is checked on.  Custom link lists join all their vertices
   with a random bidirectional spanning tree, so every node pair is
   connected, then add random directed links (parallel ones included,
   so the smallest-id tie-break is exercised). *)
let random_topology =
  let open QCheck.Gen in
  let bw = 1e9 and lat = 1e-6 in
  let custom =
    int_range 1 8 >>= fun n_nodes ->
    int_range 0 3 >>= fun switches ->
    let nv = n_nodes + switches in
    list_repeat (nv - 1) (int_range 0 1_000_000) >>= fun parents ->
    list_size (int_range 0 12) (pair (int_bound (nv - 1)) (int_bound (nv - 1)))
    >|= fun extra ->
    let tree =
      List.concat
        (List.mapi
           (fun i r ->
             let v = i + 1 and p = r mod (i + 1) in
             [ (p, v, bw, lat); (v, p, bw, lat) ])
           parents)
    in
    let extra =
      List.filter_map (fun (a, b) -> if a = b then None else Some (a, b, bw, lat)) extra
    in
    Topology.custom ~name:"random" ~n_nodes ~n_vertices:nv ~links:(tree @ extra) ()
  in
  let family =
    frequency
      [
        ( 3,
          map2 (fun w h -> Topology.grid ~w ~h ~link_bw:bw ~link_latency:lat ())
            (int_range 1 9) (int_range 1 9) );
        ( 3,
          map2
            (fun w h -> Topology.grid ~w ~h ~wrap:true ~link_bw:bw ~link_latency:lat ())
            (int_range 2 9) (int_range 2 9) );
        ( 2,
          map2
            (fun levels arity ->
              Topology.fattree ~levels ~arity ~link_bw:bw ~link_latency:lat)
            (int_range 1 3) (int_range 2 4) );
        ( 1,
          map (fun nodes -> Topology.direct ~nodes ~link_bw:bw ~link_latency:lat)
            (int_range 1 16) );
        (3, custom);
      ]
  in
  QCheck.make
    ~print:(fun (t, seed) -> Printf.sprintf "%s (pair seed %d)" (Topology.name t) seed)
    (pair family (int_bound 1_000_000))

(* every pair when there are at most 256, else 256 drawn from [seed] *)
let node_pairs n seed =
  if n * n <= 256 then List.concat (List.init n (fun s -> List.init n (fun d -> (s, d))))
  else
    let rng = Rng.create seed in
    List.init 256 (fun _ ->
        let s = Rng.int rng n in
        (s, Rng.int rng n))

let prop_route_links =
  QCheck.Test.make ~count:100
    ~name:"route_links: every family's route, in order, within diameter, allocating nothing"
    random_topology (fun (topo, seed) ->
      let buf = Array.make (Topology.diameter topo) (-1) in
      List.for_all
        (fun (src, dst) ->
          let w0 = Gc.minor_words () in
          let n = Topology.route_links topo ~src ~dst buf in
          let words = Gc.minor_words () -. w0 in
          let got = Array.to_list (Array.sub buf 0 n) in
          let fail what =
            QCheck.Test.fail_reportf "%s %d->%d: %s" (Topology.name topo) src dst what
          in
          if n <> Topology.distance topo ~src ~dst then fail "count <> distance"
          else if got <> Route_oracle.route topo ~src ~dst then fail "ids <> oracle walk"
          else if got <> List.map (fun l -> l.Topology.lid) (Topology.route topo ~src ~dst)
          then fail "ids <> Topology.route"
          else if Sys.backend_type = Sys.Native && words <> 0.0 then
            fail (Printf.sprintf "allocated %.0f minor words" words)
          else true)
        (node_pairs (Topology.n_nodes topo) seed))

let test_direct_single_hop () =
  (* Direct is a modeling shortcut, not a BFS-faithful graph: every
     cross-node copy is one hop on the SOURCE node's NIC link (the
     ether vertex absorbs it), mirroring the kind-level per-source
     Network slot the bit-identity argument relies on *)
  let topo = Topology.direct ~nodes:5 ~link_bw:1e9 ~link_latency:1e-6 in
  Alcotest.(check int) "one ether vertex" 6 (Topology.n_vertices topo);
  for src = 0 to 4 do
    for dst = 0 to 4 do
      if src <> dst then begin
        Alcotest.(check int) "single hop" 1 (Topology.distance topo ~src ~dst);
        let path = Topology.route topo ~src ~dst in
        Alcotest.(check (list int)) "source NIC link" [ src ]
          (List.map (fun l -> l.Topology.lid) path)
      end
    done
  done

let test_grid_dimension_order () =
  (* X-then-Y: from (0,0) to (2,1) on a 3x3 mesh the route is
     east,east,south — never interleaved *)
  let topo = Topology.grid ~w:3 ~h:3 ~link_bw:1e9 ~link_latency:1e-6 () in
  let path = Topology.route topo ~src:0 ~dst:5 in
  let verts = List.map (fun l -> l.Topology.ldst) path in
  Alcotest.(check (list int)) "dimension-order X then Y" [ 1; 2; 5 ] verts

let test_torus_shorter_ring () =
  let topo = Topology.grid ~w:4 ~h:4 ~wrap:true ~link_bw:1e9 ~link_latency:1e-6 () in
  (* x: 0 -> 3 is one hop westward around the wrap link *)
  Alcotest.(check int) "wrap distance" 1 (Topology.distance topo ~src:0 ~dst:3);
  (* equidistant x: 0 -> 2 ties break eastward *)
  let path = Topology.route topo ~src:0 ~dst:2 in
  Alcotest.(check (list int)) "eastward tie-break" [ 1; 2 ]
    (List.map (fun l -> l.Topology.ldst) path)

let test_fattree_shape () =
  let topo = Topology.fattree ~levels:2 ~arity:2 ~link_bw:1e9 ~link_latency:1e-6 in
  Alcotest.(check int) "leaves" 4 (Topology.n_nodes topo);
  (* 4 leaves + 2 level-1 switches + 1 root *)
  Alcotest.(check int) "vertices" 7 (Topology.n_vertices topo);
  (* up+down links: level1 4+4, level2 2+2 *)
  Alcotest.(check int) "links" 12 (Topology.n_links topo);
  Alcotest.(check int) "diameter" 4 (Topology.diameter topo);
  (* capacity fattens toward the root: level-2 links carry 2x *)
  let bws =
    Array.to_list (Topology.links topo) |> List.map (fun l -> l.Topology.lbw)
  in
  Alcotest.(check int) "fat level-2 links" 4
    (List.length (List.filter (fun b -> b = 2e9) bws));
  (* siblings share only the leaf links; cousins transit the root *)
  Alcotest.(check int) "sibling distance" 2 (Topology.distance topo ~src:0 ~dst:1);
  Alcotest.(check int) "cousin distance" 4 (Topology.distance topo ~src:0 ~dst:3)

let test_bisection () =
  let grid = Topology.grid ~w:4 ~h:4 ~link_bw:1e9 ~link_latency:1e-6 () in
  Alcotest.(check (float 1.0)) "grid 4x4 bisection" 8e9 (Topology.bisection_bw grid);
  let torus = Topology.grid ~w:4 ~h:4 ~wrap:true ~link_bw:1e9 ~link_latency:1e-6 () in
  Alcotest.(check (float 1.0)) "torus 4x4 bisection" 16e9 (Topology.bisection_bw torus);
  let ft = Topology.fattree ~levels:2 ~arity:2 ~link_bw:1e9 ~link_latency:1e-6 in
  Alcotest.(check (float 1.0)) "fattree 2:2 bisection" 4e9 (Topology.bisection_bw ft);
  let dir = Topology.direct ~nodes:4 ~link_bw:1e9 ~link_latency:1e-6 in
  Alcotest.(check (float 0.0)) "direct has no cut" 0.0 (Topology.bisection_bw dir);
  (* sides partition the nodes evenly on the 4x4 grid *)
  let zero = ref 0 in
  for n = 0 to Topology.n_nodes grid - 1 do
    if Topology.side grid n = 0 then incr zero
  done;
  Alcotest.(check int) "grid sides balanced" 8 !zero

let test_lint_queries () =
  let ok = Topology.grid ~w:2 ~h:2 ~link_bw:1e9 ~link_latency:1e-6 () in
  Alcotest.(check int) "grid fully connected" 0 (Topology.unreachable_pairs ok);
  Alcotest.(check (list int)) "no dead links" [] (Topology.zero_bw_links ok);
  (* 0->1 exists, 1->0 does not; link 1 is dead *)
  let bad =
    Topology.custom ~name:"oneway" ~n_nodes:2
      ~links:[ (0, 1, 1e9, 1e-6); (1, 0, 0.0, 1e-6) ] ()
  in
  Alcotest.(check (list int)) "zero-bw link flagged" [ 1 ] (Topology.zero_bw_links bad);
  let disc =
    Topology.custom ~name:"split" ~n_nodes:3 ~links:[ (0, 1, 1e9, 1e-6) ] ()
  in
  (* reachable: 0->1 only; unreachable ordered pairs: 1->0, 0->2, 2->0, 1->2, 2->1 *)
  Alcotest.(check int) "unreachable pairs" 5 (Topology.unreachable_pairs disc);
  Alcotest.(check int) "unreachable distance" (-1)
    (Topology.distance disc ~src:2 ~dst:0)

let test_custom_deterministic_tie_break () =
  (* two parallel 0->1 links: routing must always take the smaller id *)
  let topo =
    Topology.custom ~name:"par" ~n_nodes:2
      ~links:[ (0, 1, 1e9, 1e-6); (0, 1, 2e9, 1e-6) ] ()
  in
  let path = Topology.route topo ~src:0 ~dst:1 in
  Alcotest.(check (list int)) "smallest lid wins" [ 0 ]
    (List.map (fun l -> l.Topology.lid) path)

let test_spec_round_trip () =
  List.iter
    (fun spec ->
      match Topology.of_spec spec ~link_bw:1e9 ~link_latency:1e-6 with
      | Error e -> Alcotest.failf "of_spec %s: %s" spec e
      | Ok topo -> (
          Alcotest.(check (option string)) "spec canonical" (Some spec)
            (Topology.to_spec topo);
          match Topology.of_spec spec ~link_bw:1e9 ~link_latency:1e-6 with
          | Error e -> Alcotest.failf "re-parse %s: %s" spec e
          | Ok topo' ->
              Alcotest.(check bool) "round-trip structural equality" true
                (Topology.equal_structure topo topo')))
    [
      "grid:4x3"; "torus:4x4"; "fattree:3:4"; "direct:8"; "grid:8x8:free";
      "fattree:2:2:free";
    ];
  (match Topology.of_spec "grid:4x4:free" ~link_bw:1e9 ~link_latency:1e-6 with
  | Ok topo -> Alcotest.(check bool) "free = uncontended" false (Topology.contended topo)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Topology.of_spec bad ~link_bw:1e9 ~link_latency:1e-6 with
      | Ok _ -> Alcotest.failf "of_spec %S should fail" bad
      | Error _ -> ())
    [ "grid:4"; "grid:0x4"; "torus:1x4"; "fattree:3"; "ring:5"; "fattree:0:2"; "" ]

let test_machine_integration () =
  (* node-count agreement is validated by Machine.make; 4e9/2e-6 are
     the mesh-tile preset's link rates *)
  let topo = Topology.grid ~w:2 ~h:2 ~link_bw:4e9 ~link_latency:2e-6 () in
  (match Presets.of_spec "grid:2x2" ~nodes:1 with
  | Error e -> Alcotest.fail e
  | Ok m -> (
      Alcotest.(check int) "preset picks up node count" 4 m.Machine.nodes;
      Alcotest.(check string) "named by spec" "grid:2x2" m.Machine.name;
      match m.Machine.topology with
      | Some t ->
          Alcotest.(check bool) "same structure" true (Topology.equal_structure t topo)
      | None -> Alcotest.fail "preset lost its topology"));
  (match Presets.of_spec "grid:2x2" ~nodes:3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "node-count mismatch must be rejected");
  match Presets.of_spec "shepard" ~nodes:2 with
  | Ok m -> Alcotest.(check bool) "legacy presets have no topology" true
              (m.Machine.topology = None)
  | Error e -> Alcotest.fail e

let test_routed_copy_cost () =
  (* 2x1 grid: one hop; 3x1 grid src 0 dst 2: two hops — copy_cost must
     scale with the path, unlike the kind-level flat Network charge *)
  let machine spec =
    match Presets.of_spec spec ~nodes:1 with Ok m -> m | Error e -> Alcotest.fail e
  in
  let m2 = machine "grid:2x1" and m3 = machine "grid:3x1" in
  let mem (m : Machine.t) node =
    Machine.closest_memory m (Machine.proc m ~node ~kind:Kinds.Cpu ~local:0) Kinds.System
  in
  let bytes = 1e6 in
  let c1 = Machine.copy_cost m2 ~src:(mem m2 0) ~dst:(mem m2 1) ~bytes in
  let c2 = Machine.copy_cost m3 ~src:(mem m3 0) ~dst:(mem m3 2) ~bytes in
  let hop = 2e-6 +. (bytes /. 4e9) in
  Alcotest.(check (float 1e-12)) "one routed hop" hop c1;
  Alcotest.(check (float 1e-12)) "two routed hops" (2.0 *. hop) c2

(* ---------------------------------------------------------------- *)
(* Routed DES: the compiled simulator must reproduce the reference  *)
(* interpreter bit-for-bit on topology machines too, and the Direct *)
(* family must stay bit-identical to the topology-less preset it    *)
(* degenerates to.                                                  *)
(* ---------------------------------------------------------------- *)

let exact = Alcotest.float 0.0

let topo_machine spec =
  match Presets.of_spec spec ~nodes:1 with Ok m -> m | Error e -> Alcotest.fail e

let test_routed_compile_identity () =
  List.iter
    (fun spec ->
      let machine = topo_machine spec in
      let app = List.find (fun a -> a.App.app_name = "Stencil") App.all in
      let input = List.hd (app.App.inputs ~nodes:machine.Machine.nodes) in
      let g = app.App.graph ~nodes:machine.Machine.nodes ~input in
      let sc = Exec.scratch (Exec.compile machine g) in
      List.iter
        (fun (mname, mapping) ->
          List.iter
            (fun seed ->
              let name = Printf.sprintf "%s/%s seed=%d" spec mname seed in
              match
                ( Oracle.run ~noise_sigma:0.03 ~seed ~fallback:true machine g
                    mapping,
                  Exec.simulate ~noise_sigma:0.03 ~seed ~fallback:true sc mapping )
              with
              | Ok a, Ok b ->
                  Alcotest.(check exact)
                    (name ^ ": makespan") a.Exec.makespan b.Exec.makespan;
                  Alcotest.(check exact)
                    (name ^ ": bytes") a.Exec.bytes_moved b.Exec.bytes_moved;
                  Alcotest.(check int) (name ^ ": copies") a.Exec.n_copies b.Exec.n_copies;
                  Alcotest.(check (array exact))
                    (name ^ ": channel_bytes") a.Exec.channel_bytes b.Exec.channel_bytes
              | Error ea, Error eb ->
                  Alcotest.(check string)
                    (name ^ ": same error")
                    (Placement.error_to_string ea)
                    (Placement.error_to_string eb)
              | Ok _, Error e | Error e, Ok _ ->
                  Alcotest.failf "%s: one side failed: %s" name
                    (Placement.error_to_string e))
            [ 0; 7 ])
        [
          ("default", Mapping.default_start g machine);
          ("custom", app.App.custom g machine);
          ("all_cpu", Mapping.all_cpu g machine);
        ])
    [ "grid:4x4"; "torus:3x3"; "fattree:2:2"; "grid:4x4:free"; "direct:4" ]

let test_direct_degenerate_identity () =
  (* direct:N folds the legacy Network cost into one link per source
     node — a slot bijection, so makespans must equal the topology-less
     shepard preset bit for bit. *)
  let m_topo = topo_machine "direct:4" in
  let m_legacy = Presets.shepard ~nodes:4 in
  List.iter
    (fun (app : App.t) ->
      let input = List.hd (app.App.inputs ~nodes:4) in
      let g = app.App.graph ~nodes:4 ~input in
      let sc_t = Exec.scratch (Exec.compile m_topo g) in
      let sc_l = Exec.scratch (Exec.compile m_legacy g) in
      List.iter
        (fun (mname, mapping) ->
          let name = Printf.sprintf "direct:4 %s/%s" app.App.app_name mname in
          match
            ( Exec.simulate ~noise_sigma:0.03 ~seed:11 ~fallback:true sc_t mapping,
              Exec.simulate ~noise_sigma:0.03 ~seed:11 ~fallback:true sc_l mapping )
          with
          | Ok a, Ok b ->
              Alcotest.(check exact) (name ^ ": makespan") b.Exec.makespan a.Exec.makespan
          | Error ea, Error eb ->
              Alcotest.(check string)
                (name ^ ": same error")
                (Placement.error_to_string eb)
                (Placement.error_to_string ea)
          | Ok _, Error e | Error e, Ok _ ->
              Alcotest.failf "%s: one side failed: %s" name
                (Placement.error_to_string e))
        [
          ("default", Mapping.default_start g m_legacy);
          ("all_cpu", Mapping.all_cpu g m_legacy);
        ])
    App.all

let test_contention_matters () =
  (* the same mapping on the same grid must get strictly slower once
     link clocks serialize, and never faster.  A halo-heavy,
     compute-light exchange makes row-crossing copies queue behind
     in-row halo copies on the shared mesh links. *)
  let m_hot = topo_machine "grid:4x4" in
  let m_free = topo_machine "grid:4x4:free" in
  let g =
    let cells = 64e6 in
    let arrays =
      [
        Workload.array_decl ~name:"u" ~elems:cells ~halo_frac:0.5 ();
        Workload.array_decl ~name:"v" ~elems:cells ();
      ]
    in
    let tasks =
      [
        Workload.task_decl ~name:"exchange" ~work_elems:cells ~flops_per_elem:0.5
          ~group_size:16 ~gpu_eff:1.0 ~cpu_eff:1.0
          ~accesses:[ Workload.read ~ghosted:true "u"; Workload.read_write "v" ]
          ();
        Workload.task_decl ~name:"update" ~work_elems:cells ~flops_per_elem:0.5
          ~group_size:16 ~gpu_eff:1.0 ~cpu_eff:1.0
          ~accesses:[ Workload.read "v"; Workload.read_write "u" ]
          ();
      ]
    in
    Workload.build ~name:"halo-hot" ~iterations:3 ~arrays ~tasks
  in
  let mapping = Mapping.default_start g m_hot in
  let run m =
    let sc = Exec.scratch (Exec.compile m g) in
    match Exec.simulate ~noise_sigma:0.0 ~seed:0 ~fallback:true sc mapping with
    | Ok r -> r.Exec.makespan
    | Error e -> Alcotest.fail (Placement.error_to_string e)
  in
  let hot = run m_hot and free = run m_free in
  if hot < free then
    Alcotest.failf "contended grid faster than free: %.9g < %.9g" hot free;
  if not (hot > free) then
    Alcotest.failf "link contention has no effect on Stencil: %.9g = %.9g" hot free

let test_contention_flips_search () =
  (* congestion is load-bearing: on the same workload, CCD picks a
     different best mapping on the contended grid than on the
     contention-free one.  stepA (24 shards over 16 nodes) exchanges a
     wide halo with stepB (8 shards); scattering stepA cyclically
     shortens the shard-to-shard paths, so the contention-free model
     prefers it — but the scattered copies pile onto shared mesh links,
     so the contended model keeps the blocked layout instead. *)
  let g =
    let cells = 32e6 in
    let arrays =
      [
        Workload.array_decl ~name:"u" ~elems:cells ~halo_frac:0.6 ();
        Workload.array_decl ~name:"v" ~elems:cells ();
      ]
    in
    let tasks =
      [
        Workload.task_decl ~name:"stepA" ~work_elems:cells ~flops_per_elem:0.5
          ~group_size:24 ~variants:[ Kinds.Cpu ]
          ~accesses:[ Workload.read ~ghosted:true "u"; Workload.read_write "v" ]
          ();
        Workload.task_decl ~name:"stepB" ~work_elems:cells ~flops_per_elem:0.5
          ~group_size:8 ~variants:[ Kinds.Cpu ]
          ~accesses:[ Workload.read "v"; Workload.read_write ~ghosted:true "u" ]
          ();
      ]
    in
    Workload.build ~name:"shifted-halo" ~iterations:3 ~arrays ~tasks
  in
  let m_hot = topo_machine "grid:4x4" in
  let m_free = topo_machine "grid:4x4:free" in
  let search m =
    Driver.run ~runs:1 ~final_runs:1 ~noise_sigma:0.0 ~seed:0 ~max_trials:300
      ~symmetry:false ~extended:true
      (Driver.Ccd { rotations = 5 })
      m g
  in
  let hot = search m_hot and free = search m_free in
  Alcotest.(check bool)
    "best-found mappings differ" false
    (Mapping.equal hot.Driver.best free.Driver.best);
  (* pin the decision that flips: stepA's distribution strategy *)
  let strat (r : Driver.result) =
    match Mapping.strategy_of r.Driver.best 0 with
    | Mapping.Blocked -> "blocked"
    | Mapping.Cyclic -> "cyclic"
  in
  Alcotest.(check string) "contended keeps stepA blocked" "blocked" (strat hot);
  Alcotest.(check string) "contention-free scatters stepA" "cyclic" (strat free);
  (* and each winner must actually beat the other machine's winner when
     re-simulated under its own model — the flip is not a search
     artifact *)
  let time m mapping =
    let sc = Exec.scratch (Exec.compile m g) in
    match Exec.simulate ~noise_sigma:0.0 ~seed:0 ~fallback:true sc mapping with
    | Ok r -> r.Exec.makespan
    | Error e -> Alcotest.fail (Placement.error_to_string e)
  in
  if not (time m_hot hot.Driver.best < time m_hot free.Driver.best) then
    Alcotest.failf "contended: free winner not slower (%.9g vs %.9g)"
      (time m_hot hot.Driver.best)
      (time m_hot free.Driver.best);
  if not (time m_free free.Driver.best < time m_free hot.Driver.best) then
    Alcotest.failf "free: contended winner not slower (%.9g vs %.9g)"
      (time m_free free.Driver.best)
      (time m_free hot.Driver.best)

(* A bound scratch holds what its routes depend on, not the routes:
   after binding every neighbour of the default mapping that puts one
   task's shards all on node 0 (the longest routes CCD's first moves
   bind) and returning to the default, it is no larger than before. *)
let test_scratch_keeps_no_route () =
  let machine = topo_machine "grid:8x8" in
  let g =
    App.circuit.App.graph ~nodes:64 ~input:(List.hd (App.circuit.App.inputs ~nodes:64))
  in
  let sc = Exec.scratch (Exec.compile machine g) in
  let default = Mapping.default_start g machine in
  let bind m = ignore (Exec.static_lower_bound sc m) in
  bind default;
  let before = Obj.reachable_words (Obj.repr sc) in
  let moved = ref 0 in
  for tid = 0 to Graph.n_tasks g - 1 do
    if Mapping.distribute_of default tid then begin
      incr moved;
      bind (Mapping.set_distribute default tid false)
    end
  done;
  bind default;
  Alcotest.(check bool) "some task was undistributed" true (!moved > 0);
  Alcotest.(check bool) "delta binds" true (Exec.delta_binds sc > 0);
  let after = Obj.reachable_words (Obj.repr sc) in
  if after > before then
    Alcotest.failf "scratch grew from %d to %d words (%.2fx)" before after
      (float_of_int after /. float_of_int before)

let test_routed_lower_bound_holds () =
  (* static floor (incl. per-link busy + bisection) must never exceed
     the simulated makespan on topology machines *)
  List.iter
    (fun spec ->
      let machine = topo_machine spec in
      let app = List.find (fun a -> a.App.app_name = "Stencil") App.all in
      let input = List.hd (app.App.inputs ~nodes:machine.Machine.nodes) in
      let g = app.App.graph ~nodes:machine.Machine.nodes ~input in
      let sc = Exec.scratch (Exec.compile machine g) in
      List.iter
        (fun (mname, mapping) ->
          let name = Printf.sprintf "%s/%s" spec mname in
          match
            ( Exec.static_lower_bound ~fallback:true sc mapping,
              Exec.simulate ~noise_sigma:0.0 ~seed:0 ~fallback:true sc mapping )
          with
          | Ok lb, Ok r ->
              if lb > r.Exec.makespan +. 1e-9 then
                Alcotest.failf "%s: floor %.9g above makespan %.9g" name lb
                  r.Exec.makespan
          | _ -> Alcotest.failf "%s: failed" name)
        [
          ("default", Mapping.default_start g machine);
          ("all_cpu", Mapping.all_cpu g machine);
        ])
    [ "grid:4x4"; "torus:3x3"; "fattree:2:2"; "grid:4x4:free"; "direct:4" ]

let suite =
  [
    Alcotest.test_case "routes match BFS oracle" `Quick test_routes_match_bfs;
    QCheck_alcotest.to_alcotest prop_route_links;
    Alcotest.test_case "direct single-hop shortcut" `Quick test_direct_single_hop;
    Alcotest.test_case "grid dimension-order routing" `Quick test_grid_dimension_order;
    Alcotest.test_case "torus shorter ring + tie-break" `Quick test_torus_shorter_ring;
    Alcotest.test_case "fattree shape and fattening" `Quick test_fattree_shape;
    Alcotest.test_case "bisection cuts" `Quick test_bisection;
    Alcotest.test_case "lint queries" `Quick test_lint_queries;
    Alcotest.test_case "custom tie-break determinism" `Quick
      test_custom_deterministic_tie_break;
    Alcotest.test_case "spec round-trip" `Quick test_spec_round_trip;
    Alcotest.test_case "machine integration" `Quick test_machine_integration;
    Alcotest.test_case "routed copy cost" `Quick test_routed_copy_cost;
    Alcotest.test_case "routed DES: compiled = reference" `Quick
      test_routed_compile_identity;
    Alcotest.test_case "direct family degenerates to legacy" `Quick
      test_direct_degenerate_identity;
    Alcotest.test_case "link contention changes makespan" `Quick test_contention_matters;
    Alcotest.test_case "link contention changes the best-found mapping" `Quick
      test_contention_flips_search;
    Alcotest.test_case "routed static floor holds" `Quick test_routed_lower_bound_holds;
    Alcotest.test_case "a scratch keeps no route it bound" `Quick
      test_scratch_keeps_no_route;
  ]
