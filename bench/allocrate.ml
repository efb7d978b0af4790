(* Allocation-rate benchmark: how many minor-heap words does the search
   allocate per suggested candidate, and at what candidate throughput,
   for each evaluation mode?

   For Stencil and Circuit it runs one full CCD search per leg —

     reference    reference mode: no pruning, full simulation
     default      the default evaluator (bound-pruning)
     batched      the default + whole-neighbour-set batch evaluation

   — and reports Gc.minor_words per suggested candidate alongside
   candidates/sec.

   The grid leg runs one CCD(5) search as bench/e2e's ccd-mesh runs it
   (Driver.default_cfg unbatched, seed 0: session, search and final
   protocol) on Stencil and on Circuit over grid:32x32 (grid:8x8 under
   --smoke), and reports the minor, promoted and major words the
   calling domain allocates for it.  Minor words are what the binds of
   a mesh search allocated; promoted and major words depend on when
   collections fall, so they are read, not gated.  Allocation counts are deterministic for a fixed
   build (unlike wall clock), so the words/candidate trajectory across
   PRs is noise-free; the committed budget in
   test/golden/alloc_budget.txt gates the batched leg's steady state.

   Each leg's search runs twice: the first pass warms code pages and
   the allocator, the second is measured (steady state — the same
   discipline as evalrate and searchrate).

   Results go to stdout and BENCH_allocrate.json.

   Usage: dune exec bench/allocrate.exe [-- --smoke] [-- --out FILE] *)

let out_file = ref "BENCH_allocrate.json"
let smoke = ref false

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out" :: f :: rest ->
        out_file := f;
        parse rest
    | unknown :: _ ->
        Printf.eprintf "allocrate: unknown argument %S\n" unknown;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let now = Unix.gettimeofday

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

type leg = {
  leg_name : string;
  words_per_cand : float;
  cands_per_sec : float;
  suggested : int;
  minor_words : float;
  perf : float;
}

let run_leg ~name ~batch ~reference ~rotations machine g =
  let search () =
    let ev = Evaluator.create ~reference ~seed:3 machine g in
    let t0 = now () in
    let w0 = Gc.minor_words () in
    let o =
      Engine.run ~start:(Mapping.default_start g machine) ev (Ccd.make ~batch ~rotations ev)
    in
    let words = Gc.minor_words () -. w0 in
    let wall = now () -. t0 in
    (words, wall, o.Engine.perf, (Evaluator.stats ev).Evaluator.s_suggested)
  in
  ignore (search ());
  let words, wall, perf, suggested = search () in
  {
    leg_name = name;
    words_per_cand = words /. float_of_int suggested;
    cands_per_sec = float_of_int suggested /. wall;
    suggested;
    minor_words = words;
    perf;
  }

let bench_app (app : App.t) machine ~input ~rotations =
  let g = app.App.graph ~nodes:machine.Machine.nodes ~input in
  let legs =
    [
      run_leg ~name:"reference" ~batch:false ~reference:true ~rotations machine g;
      run_leg ~name:"default" ~batch:false ~reference:false ~rotations machine g;
      run_leg ~name:"batched" ~batch:true ~reference:false ~rotations machine g;
    ]
  in
  (* allocation discipline must never trade away decisions *)
  (match legs with
  | first :: rest ->
      List.iter
        (fun l ->
          if l.perf <> first.perf then
            failwith (app.App.app_name ^ ": " ^ l.leg_name ^ " found a different best perf");
          if l.suggested <> first.suggested then
            failwith
              (app.App.app_name ^ ": " ^ l.leg_name
             ^ " made a different number of suggestions"))
        rest
  | [] -> assert false);
  Printf.printf "%-8s %-10s" app.App.app_name input;
  List.iter
    (fun l ->
      Printf.printf " | %s %8.1f w/cand %9.1f cand/s" l.leg_name l.words_per_cand
        l.cands_per_sec)
    legs;
  print_newline ();
  (app.App.app_name, input, legs)

type grid_row = {
  g_app : string;
  g_minor : float;
  g_promoted : float;
  g_major : float;
  g_suggested : int;
  g_perf : float;
}

let grid_leg spec =
  let machine =
    match Presets.of_spec spec ~nodes:1 with
    | Ok m -> m
    | Error e -> failwith ("allocrate: " ^ e)
  in
  let nodes = machine.Machine.nodes in
  List.map
    (fun (app : App.t) ->
      let g = app.App.graph ~nodes ~input:(List.hd (app.App.inputs ~nodes)) in
      let cfg = { Driver.default_cfg with Driver.batch = false } in
      let before = Gc.quick_stat () in
      let suggested, perf =
        match Driver.session cfg machine g with
        | Ok s ->
            let o = Driver.search s in
            ignore (Driver.conclude s o);
            ((Evaluator.stats s.Driver.ev).Evaluator.s_suggested, o.Engine.perf)
        | Error e -> failwith ("allocrate: " ^ e)
      in
      let after = Gc.quick_stat () in
      let row =
        {
          g_app = app.App.app_name;
          g_minor = after.Gc.minor_words -. before.Gc.minor_words;
          g_promoted = after.Gc.promoted_words -. before.Gc.promoted_words;
          g_major = after.Gc.major_words -. before.Gc.major_words;
          g_suggested = suggested;
          g_perf = perf;
        }
      in
      Printf.printf
        "grid %s %-8s: %.2fM minor, %.2fM promoted, %.2fM major words per search (%d suggested)\n%!"
        spec row.g_app (row.g_minor /. 1e6) (row.g_promoted /. 1e6) (row.g_major /. 1e6)
        row.g_suggested;
      row)
    [ App.stencil; App.circuit ]

let json_leg l =
  Printf.sprintf
    {|{"leg": %S, "minor_words_per_candidate": %.2f, "cands_per_sec": %.2f, "suggested": %d, "minor_words": %.0f}|}
    l.leg_name l.words_per_cand l.cands_per_sec l.suggested l.minor_words

let () =
  let nodes = 4 in
  let machine = Presets.shepard ~nodes in
  let rotations = if !smoke then 2 else 5 in
  let apps =
    [ (App.stencil, if !smoke then "500x500" else "2000x2000");
      (App.circuit, if !smoke then "n100w400" else "n200w800") ]
  in
  Printf.printf "allocrate: %s mode, shepard x%d, CCD(%d), minor words per candidate\n%!"
    (if !smoke then "smoke" else "bench")
    nodes rotations;
  let rows = List.map (fun (app, input) -> bench_app app machine ~input ~rotations) apps in
  let grid_spec = if !smoke then "grid:8x8" else "grid:32x32" in
  let grid = grid_leg grid_spec in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"bench\": \"allocrate\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"commit\": %S,\n" (git_commit ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"smoke\": %b,\n  \"nodes\": %d,\n  \"rotations\": %d,\n  \"apps\": [\n"
       !smoke nodes rotations);
  List.iteri
    (fun i (name, input, legs) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"app\": %S, \"input\": %S, \"legs\": [\n%s\n     ],
     \"decision_identical\": true}%s\n"
           name input
           (String.concat ",\n" (List.map (fun l -> "      " ^ json_leg l) legs))
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "  ],\n  \"grid\": {\"spec\": %S, \"searches\": [\n%s\n  ]}\n}\n" grid_spec
       (String.concat ",\n"
          (List.map
             (fun r ->
               Printf.sprintf
                 {|    {"app": %S, "minor_words": %.0f, "promoted_words": %.0f, "major_words": %.0f, "suggested": %d, "perf": %.6e}|}
                 r.g_app r.g_minor r.g_promoted r.g_major r.g_suggested r.g_perf)
             grid)));
  let oc = open_out !out_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" !out_file
