(* Trust boundary of the inline codecs.  The serve daemon takes machine
   and graph text and preset specs with a node count straight off the
   socket, so

   - [Graph_codec.of_string], [Machine_codec.of_string] and
     [Presets.of_spec] answer [Ok] or [Error] and never raise, on
     arbitrary bytes and on line-level mutations of real encodings
     (dropped or duplicated lines, counts of 10^9 and negative counts,
     nan/inf floats, huge topology dimensions);
   - no count a request claims reaches an allocation past
     [Topology.max_gen_nodes] slots: [Machine.make] and
     [Topology.custom] refuse before allocating, and the server answers
     with an error;
   - no request makes a worker simulate without bound: the server
     refuses graphs (and cfg iteration overrides) past its
     instances-per-simulation cap, and [runs], [final_top] and
     [final_runs] outside [1..1000]. *)

open QCheck

let never_raises f = match f () with _ -> true | exception _ -> false

let app name input =
  match App.find name with
  | Some a -> a.App.graph ~nodes:2 ~input
  | None -> failwith ("unknown app " ^ name)

let ring3 =
  Topology.custom ~name:"ring3" ~n_nodes:3
    ~links:[ (0, 1, 1e9, 1e-6); (1, 2, 1e9, 1e-6); (2, 0, 1e9, 1e-6) ]
    ()

let preset spec ~nodes = Result.get_ok (Presets.of_spec spec ~nodes)

let graph_texts =
  lazy (List.map Graph_codec.to_string [ app "stencil" "500x500"; app "circuit" "n50w200" ])

let machine_texts =
  lazy
    (List.map Machine_codec.to_string
       [
         preset "shepard" ~nodes:2;
         preset "lassen" ~nodes:2;
         preset "grid:4x4" ~nodes:1;
         preset "fattree:2:4" ~nodes:1;
         Presets.of_topology ring3;
       ])

let specs =
  [| "shepard"; "lassen"; "testbed"; "cpu_only"; "headless"; "grid:4x4"; "torus:4x4:free";
     "fattree:2:4"; "direct:4" |]

let huge_ints =
  [| "1000000000"; "-1"; "-1000000000"; "0"; "4611686018427387903"; "4611686018427387904" |]

let poison_floats = [| "nan"; "-nan"; "inf"; "-inf"; "infinity"; "-1e308" |]

let huge_topologies =
  [| "grid:1000000000x1000000000"; "grid:4611686018427387903x4";
     "torus:4611686018427387904x2"; "grid:-1x4"; "fattree:1000000000:2"; "fattree:2:1000000000";
     "fattree:4611686018427387903:4611686018427387903"; "direct:1000000000"; "direct:-1" |]

let pick rng a = a.(Random.State.int rng (Array.length a))

(* One token, poisoned by its shape: integers get huge or negative
   counts, floats nan/inf, halo fractions fall out of range, topology
   specs get huge dimensions. *)
let poison_value rng v =
  if int_of_string_opt v <> None then pick rng huge_ints
  else if String.starts_with ~prefix:"halo:" v then "halo:" ^ pick rng [| "2"; "-1"; "0" |]
  else if String.contains v ':' then pick rng huge_topologies
  else if float_of_string_opt v <> None then pick rng poison_floats
  else v

let poison_token rng tok =
  match String.index_opt tok '=' with
  | Some i ->
      String.sub tok 0 (i + 1)
      ^ poison_value rng (String.sub tok (i + 1) (String.length tok - i - 1))
  | None -> poison_value rng tok

(* One line-level mutation, chosen and placed by [rng]. *)
let mutate rng lines =
  let n = Array.length lines in
  let i = Random.State.int rng n in
  match Random.State.int rng 3 with
  | 0 -> Array.append (Array.sub lines 0 i) (Array.sub lines (i + 1) (n - i - 1))
  | 1 ->
      Array.concat
        [ Array.sub lines 0 (i + 1); [| lines.(i) |]; Array.sub lines (i + 1) (n - i - 1) ]
  | _ ->
      let l = Array.copy lines in
      let words = Array.of_list (String.split_on_char ' ' lines.(i)) in
      let j = Random.State.int rng (Array.length words) in
      words.(j) <- poison_token rng words.(j);
      l.(i) <- String.concat " " (Array.to_list words);
      l

(* one to four mutations of one of [texts] *)
let mutated texts =
  make ~print:Fun.id (fun rng ->
      let texts = Lazy.force texts in
      let base = List.nth texts (Random.State.int rng (List.length texts)) in
      let lines = ref (Array.of_list (String.split_on_char '\n' base)) in
      for _ = 0 to Random.State.int rng 3 do
        if Array.length !lines > 0 then lines := mutate rng !lines
      done;
      String.concat "\n" (Array.to_list !lines))

let bytes = make Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 256))

let prop_graph_bytes =
  Test.make ~count:300 ~name:"Graph_codec.of_string never raises on arbitrary bytes" bytes
    (fun s ->
      never_raises (fun () -> Graph_codec.of_string s)
      && never_raises (fun () -> Graph_codec.of_string ("graph g iterations=2\n" ^ s)))

let prop_graph_mutated =
  Test.make ~count:300 ~name:"Graph_codec.of_string never raises on mutated encodings"
    (mutated graph_texts) (fun s -> never_raises (fun () -> Graph_codec.of_string s))

let prop_machine_bytes =
  Test.make ~count:300 ~name:"Machine_codec.of_string never raises on arbitrary bytes" bytes
    (fun s ->
      never_raises (fun () -> Machine_codec.of_string s)
      && never_raises (fun () -> Machine_codec.of_string ("machine m nodes=2\n" ^ s)))

let prop_machine_mutated =
  Test.make ~count:300 ~name:"Machine_codec.of_string never raises on mutated encodings"
    (mutated machine_texts) (fun s -> never_raises (fun () -> Machine_codec.of_string s))

(* a real spec, poisoned or not, or arbitrary text; a node count that is
   sane, huge or negative *)
let spec_and_nodes =
  make
    ~print:(fun (s, n) -> Printf.sprintf "%S ~nodes:%d" s n)
    (fun rng ->
      let spec =
        match Random.State.int rng 3 with
        | 0 -> pick rng specs
        | 1 -> pick rng huge_topologies
        | _ ->
            String.init (Random.State.int rng 16) (fun _ ->
                Char.chr (Random.State.int rng 256))
      in
      let nodes =
        match Random.State.int rng 3 with
        | 0 -> 1 + Random.State.int rng 4
        | 1 -> int_of_string (pick rng (Array.sub huge_ints 0 5))
        | _ -> min_int
      in
      (spec, nodes))

let prop_presets =
  Test.make ~count:300 ~name:"Presets.of_spec never raises" spec_and_nodes
    (fun (spec, nodes) -> never_raises (fun () -> Presets.of_spec spec ~nodes))

let is_error = function Ok _ -> false | Error _ -> true

(* The properties above only mean something if both outcomes are
   reachable: every real encoding parses, and each bound refuses. *)
let test_baseline () =
  let parses what parse s = Alcotest.(check bool) what false (is_error (parse s)) in
  List.iter (parses "real graph parses" Graph_codec.of_string) (Lazy.force graph_texts);
  List.iter (parses "real machine parses" Machine_codec.of_string) (Lazy.force machine_texts);
  Alcotest.(check bool) "10^9 lassen nodes refused" true
    (is_error (Presets.of_spec "lassen" ~nodes:1_000_000_000));
  Alcotest.(check bool) "grid past the cap refused" true
    (is_error (Presets.of_spec "grid:4611686018427387903x4" ~nodes:1));
  Alcotest.(check bool) "fattree with 10^9 levels refused" true
    (is_error (Presets.of_spec "fattree:1000000000:2" ~nodes:1));
  Alcotest.(check bool) "halo fraction out of range is an error" true
    (is_error
       (Graph_codec.of_string
          "graph g\ntask a group=1 flops=1\narg a x bytes=8 mode=RW\n\
           dep a x a x pattern=halo:2"))

let test_bounds () =
  let lassen = preset "lassen" ~nodes:1 in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "Machine.make: 10^9 nodes" true
    (raises (fun () ->
         Machine.make ~name:"big" ~nodes:1_000_000_000 ~node:lassen.Machine.node
           ~exec_bw:lassen.Machine.exec_bw ~compute:lassen.Machine.compute
           ~copy:lassen.Machine.copy ()));
  Alcotest.(check bool) "Machine.make: 10^9 cores per socket" true
    (raises (fun () ->
         Machine.make ~name:"wide" ~nodes:1
           ~node:{ lassen.Machine.node with Machine.cores_per_socket = 1_000_000_000 }
           ~exec_bw:lassen.Machine.exec_bw ~compute:lassen.Machine.compute
           ~copy:lassen.Machine.copy ()));
  Alcotest.(check bool) "Topology.custom: 10^5 nodes" true
    (raises (fun () -> Topology.custom ~name:"big" ~n_nodes:100_000 ~links:[] ()));
  Alcotest.(check bool) "Topology.custom: 10^3 nodes fit" false
    (raises (fun () -> Topology.custom ~name:"ok" ~n_nodes:1000 ~links:[] ()))

let error_mentions srv line word =
  match Server.handle_line srv line with
  | Wire.R_error { message; _ } ->
      Alcotest.(check bool) (Printf.sprintf "%S mentions %s" message word) true
        (Str_helpers.contains message word)
  | _ -> Alcotest.failf "must be an error: %s" line

let test_server () =
  let srv = Server.create () in
  error_mentions srv
    {|{"type":"map","id":"huge","app":"stencil","nodes":1000000000}|}
    "slots";
  let big =
    String.concat "\n"
      [
        "machine big nodes=100000";
        "node sockets=2 cores_per_socket=1 gpus=1 sysmem=1e11 zc=6e10 fb=1.6e10";
        "exec_bw cpu_sys=8e10 cpu_zc=5.5e10 gpu_fb=5e11 gpu_zc=1e10";
        "compute cpu_flops=7.2e11 gpu_flops=4e12 cpu_launch=1e-5 gpu_launch=3e-5 \
         dispatch=1.2e-5";
        "copy memcpy=2e10 cross_socket=1e10 pcie=1.2e10 gpu_peer=1.2e10 local_latency=5e-6 \
         net_bw=1e10 net_latency=3e-6";
        "topology custom=big nodes=100000 vertices=100000 contended=true";
        "topolink src=0 dst=1 bw=1e9 lat=1e-6";
      ]
  in
  let workload =
    { Wire.default_workload with Wire.w_app = Some "stencil"; w_machine = Some big }
  in
  let cfg = Slice.default_cfg in
  error_mentions srv
    (Wire.request_to_string
       (Wire.Map { m_id = "big-topology"; workload; cfg; wait = false; warm = true }))
    "route table"

let accepted srv line =
  match Server.handle_line srv line with
  | Wire.R_accepted _ -> ()
  | _ -> Alcotest.failf "must be accepted: %s" line

let map_line ~id ?(extra = "") workload =
  Printf.sprintf {|{"type":"map","id":%S,%s%s}|} id workload extra

let inline_graph ?(iterations = 1) ~group () =
  Printf.sprintf {|"graph":%S|}
    (Printf.sprintf "graph g iterations=%d\ntask a group=%d flops=1\narg a x bytes=8 mode=RW"
       iterations group)

(* Each bound refuses its oversized request, and the same request
   inside the bound is accepted, so neither outcome is vacuous. *)
let test_server_work () =
  let srv = Server.create () in
  accepted srv (map_line ~id:"small-group" (inline_graph ~group:4 ()));
  error_mentions srv (map_line ~id:"huge-group" (inline_graph ~group:1_000_000_000 ())) "instances";
  error_mentions srv
    (map_line ~id:"huge-iters" (inline_graph ~iterations:1_000_000_000 ~group:1 ()))
    "instances";
  let stencil = {|"app":"stencil"|} in
  accepted srv (map_line ~id:"iters-10" ~extra:{|,"iterations":10|} stencil);
  error_mentions srv (map_line ~id:"iters-1e9" ~extra:{|,"iterations":1000000000|} stencil)
    "instances";
  error_mentions srv (map_line ~id:"iters-0" ~extra:{|,"iterations":0|} stencil) "iterations";
  accepted srv (map_line ~id:"runs-7" ~extra:{|,"runs":7,"final_runs":30|} stencil);
  error_mentions srv (map_line ~id:"runs-0" ~extra:{|,"runs":0|} stencil) "runs";
  error_mentions srv (map_line ~id:"runs-1e9" ~extra:{|,"runs":1000000000|} stencil) "runs";
  error_mentions srv (map_line ~id:"final-0" ~extra:{|,"final_runs":0|} stencil) "final_runs";
  error_mentions srv (map_line ~id:"top-0" ~extra:{|,"final_top":0|} stencil) "final_top"

let suite =
  [
    Alcotest.test_case "both outcomes reachable" `Quick test_baseline;
    Alcotest.test_case "allocations bounded" `Quick test_bounds;
    Alcotest.test_case "server refuses oversized machines" `Quick test_server;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_graph_bytes; prop_graph_mutated; prop_machine_bytes; prop_machine_mutated;
        prop_presets;
      ]
  @ [ Alcotest.test_case "server bounds simulation work" `Quick test_server_work ]
