(* Topology-routed DES throughput benchmark.

   Two questions after the link-level routing refactor:

   1. What does search throughput look like when every copy is
      resolved to a link path and charged per-link?  The scaling leg
      runs the same CCD search on Stencil over mesh machines from
      grid:4x4 (16 nodes) to grid:32x32 (1024 nodes) and reports two
      rates at each size: suggestions per second (every candidate the
      strategy proposed, no-op neighbours included) and simulated
      candidates per second (those the evaluator actually ran).  CCD
      makes ~700 suggestions per search but simulates only a handful,
      so the two differ by orders of magnitude.  The 32x32 point is
      gated on suggestions: below 1000 suggestions/sec topology-aware
      search is impractical and the bench hard-fails.

   2. Did the degenerate path stay the legacy path?  A direct:N
      machine routes every copy over a single per-source link whose
      slot and cost are a bijection of the legacy kind-level Network
      channel, so a search on direct:4 must be decision-identical to
      one on the 4-node shepard preset and do the same work: equal
      suggestions, simulations and delta binds.  Those counters are deterministic, so the gate cannot
      flake; the speed ratio of the two legs (fastest of several
      interleaved repeats each) is printed but not gated.

   3. What does a search leave in the heap?  The memory leg runs one
      CCD(5) search per app (Stencil, then Circuit) as Driver.run makes
      it, CLI defaults and seed 0, on grid:32x32 (grid:8x8 with
      --smoke), and reports the search's major-heap words, its
      top-heap growth (Gc.quick_stat) and the evaluator scratch's
      reachable words at the end.  Both searches run in one process, so
      Circuit's growth is what it adds to the heap Stencil's left.
      Reported, not gated.

   Results go to stdout and to BENCH_toporate.json.

   Usage: dune exec bench/toporate.exe [-- --smoke] [-- --out FILE]
     --smoke   2 rotations + fewer repeats (CI gate check)            *)

let out_file = ref "BENCH_toporate.json"
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
        Printf.eprintf "toporate: unknown argument %S\n" unknown;
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
  wall : float;
  best : Mapping.t;
  perf : float;
  suggested : int;
  evaluated : int;
  delta_binds : int;
}

let suggestions_per_sec l = float_of_int l.suggested /. l.wall
let simulated_per_sec l = float_of_int l.evaluated /. l.wall

(* One CCD search on a fresh evaluator; only the engine run is timed
   (Evaluator.create's one-time compile stays outside, as in
   searchrate).  Single-run noise-free evaluation: the throughput
   question is how fast candidates move through bind/bound/prune
   with routed copies, not how much the measurement protocol repeats
   each one — and it is the same setting the decision-identity gates
   compare under. *)
let search_once ~rotations machine g =
  let ev = Evaluator.create ~runs:1 ~noise_sigma:0.0 ~seed:3 machine g in
  let t0 = now () in
  let o =
    Engine.run ~start:(Mapping.default_start g machine) ev
      (Ccd.make ~rotations ev)
  in
  let wall = now () -. t0 in
  let s = Evaluator.stats ev in
  {
    wall;
    best = o.Engine.best;
    perf = o.Engine.perf;
    suggested = s.Evaluator.s_suggested;
    evaluated = s.Evaluator.s_evaluated;
    delta_binds = s.Evaluator.s_delta_binds;
  }

let min_leg a b = if b.wall < a.wall then b else a

(* ------------------------------------------------------------------ *)
(* Scaling leg: Stencil over growing meshes                            *)
(* ------------------------------------------------------------------ *)

type grid_row = {
  gr_spec : string;
  gr_nodes : int;
  gr_links : int;
  gr_leg : leg;
}

let bench_grid ~rotations ~repeats spec =
  let machine =
    match Presets.of_spec spec ~nodes:1 with
    | Ok m -> m
    | Error e -> failwith ("toporate: " ^ e)
  in
  let g =
    App.stencil.App.graph ~nodes:machine.Machine.nodes ~input:"500x500"
  in
  let best = ref (search_once ~rotations machine g) in
  for _ = 2 to repeats do
    best := min_leg !best (search_once ~rotations machine g)
  done;
  let links =
    match machine.Machine.topology with
    | Some topo -> Topology.n_links topo
    | None -> 0
  in
  Printf.printf
    "%-11s %5d nodes %5d links: %8.2fms, %8.1f suggestions/s, %6.1f simulated/s \
     (%d suggested, %d evaluated)\n%!"
    spec machine.Machine.nodes links
    (1e3 *. !best.wall)
    (suggestions_per_sec !best) (simulated_per_sec !best) !best.suggested
    !best.evaluated;
  { gr_spec = spec; gr_nodes = machine.Machine.nodes; gr_links = links;
    gr_leg = !best }

(* ------------------------------------------------------------------ *)
(* Degenerate gate: direct:4 vs the legacy 4-node shepard              *)
(* ------------------------------------------------------------------ *)

let degenerate_gate ~repeats =
  (* deep legs (50 rotations, ~5ms each), so the printed speed ratio
     is not swamped by scheduler noise *)
  let rotations = 50 in
  let repeats = max repeats 8 in
  let legacy = Presets.shepard ~nodes:4 in
  let routed =
    match Presets.of_spec "direct:4" ~nodes:1 with
    | Ok m -> m
    | Error e -> failwith ("toporate: " ^ e)
  in
  let g = App.stencil.App.graph ~nodes:4 ~input:"2000x2000" in
  let l = ref (search_once ~rotations legacy g) in
  let r = ref (search_once ~rotations routed g) in
  for _ = 2 to repeats do
    l := min_leg !l (search_once ~rotations legacy g);
    r := min_leg !r (search_once ~rotations routed g)
  done;
  let l = !l and r = !r in
  if not (Mapping.equal l.best r.best) then
    failwith "toporate: direct:4 search found a different best mapping than shepard";
  if l.perf <> r.perf then
    failwith "toporate: direct:4 search found a different best perf than shepard";
  List.iter
    (fun (what, count) ->
      if count l <> count r then
        failwith
          (Printf.sprintf "toporate: direct:4 search made %d %s, shepard x4 made %d" (count r)
             what (count l)))
    [
      ("suggestions", fun x -> x.suggested);
      ("simulations", fun x -> x.evaluated);
      ("delta binds", fun x -> x.delta_binds);
    ];
  if l.evaluated = 0 then failwith "toporate: degenerate legs simulated nothing";
  let ratio = suggestions_per_sec r /. suggestions_per_sec l in
  Printf.printf
    "degenerate gate: decision-identical, equal work (%d suggested, %d simulated, %d delta \
     binds); speed ratio direct:4 / shepard x4 = %.3f (not gated)\n%!"
    l.suggested l.evaluated l.delta_binds ratio;
  (l, r, ratio)

(* ------------------------------------------------------------------ *)
(* Memory leg: one CCD(5) search per app                                *)
(* ------------------------------------------------------------------ *)

type mem_row = {
  m_app : string;
  m_major_words : float;
  m_top_heap_mb : float;  (* top-heap growth over the search *)
  m_scratch_words : int;  (* the evaluator scratch's, after the search *)
}

(* The session, search and final protocol of [Driver.run], over a
   scratch the leg keeps so that its size can be read afterwards.  Set-up
   (compile) stays outside the measured window. *)
let memory_leg spec =
  let machine =
    match Presets.of_spec spec ~nodes:1 with
    | Ok m -> m
    | Error e -> failwith ("toporate: " ^ e)
  in
  let nodes = machine.Machine.nodes in
  let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6 in
  List.map
    (fun (app : App.t) ->
      let g = app.App.graph ~nodes ~input:(List.hd (app.App.inputs ~nodes)) in
      let sc = Exec.scratch (Exec.compile machine g) in
      let cfg = { Driver.default_cfg with Driver.batch = false } in
      let before = Gc.quick_stat () in
      (match Driver.session ~scratch:sc cfg machine g with
      | Ok s -> ignore (Driver.conclude s (Driver.search s))
      | Error e -> failwith ("toporate: " ^ e));
      let after = Gc.quick_stat () in
      let row =
        {
          m_app = app.App.app_name;
          m_major_words = after.Gc.major_words -. before.Gc.major_words;
          m_top_heap_mb =
            mb (float_of_int (after.Gc.top_heap_words - before.Gc.top_heap_words));
          m_scratch_words = Obj.reachable_words (Obj.repr sc);
        }
      in
      Printf.printf
        "memory %s %-8s: %.2fM major words, top heap +%.1f MB, scratch %d words\n%!" spec
        row.m_app (row.m_major_words /. 1e6) row.m_top_heap_mb row.m_scratch_words;
      row)
    [ App.stencil; App.circuit ]

let json_leg l =
  Printf.sprintf
    {|{"wall": %.5f, "suggestions_per_sec": %.2f, "simulated_per_sec": %.2f, "perf": %.6e, "suggested": %d, "evaluated": %d, "delta_binds": %d}|}
    l.wall (suggestions_per_sec l) (simulated_per_sec l) l.perf l.suggested l.evaluated
    l.delta_binds

let () =
  let rotations = 50 in
  let repeats = if !smoke then 3 else 8 in
  Printf.printf "toporate: %s mode, CCD(%d), Stencil over routed meshes\n%!"
    (if !smoke then "smoke" else "bench")
    rotations;
  (* first, so that no earlier leg has grown the heap *)
  let mem_spec = if !smoke then "grid:8x8" else "grid:32x32" in
  let memory = memory_leg mem_spec in
  (* The searches are deep (50 rotations): the candidate rate only
     means something in steady state, where the per-candidate
     simulations and delta binds dominate the one-time full bind of
     the start mapping rather than drowning in it. *)
  let grids = [ "grid:4x4"; "grid:8x8"; "grid:16x16"; "grid:32x32" ] in
  let rows =
    List.map (bench_grid ~rotations ~repeats:(if !smoke then 1 else 3)) grids
  in
  let last = List.nth rows (List.length rows - 1) in
  let sugg = suggestions_per_sec last.gr_leg in
  if sugg < 1000.0 then
    failwith
      (Printf.sprintf
         "toporate: %s search made %.1f suggestions/s, below the 1000 suggestions/s gate"
         last.gr_spec sugg);
  Printf.printf "%s suggestion-rate gate: %.1f suggestions/s >= 1000 ok (%.1f simulated/s)\n%!"
    last.gr_spec sugg (simulated_per_sec last.gr_leg);
  let legacy, routed, ratio = degenerate_gate ~repeats in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"bench\": \"toporate\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"commit\": %S,\n" (git_commit ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"smoke\": %b,\n  \"rotations\": %d,\n  \"grids\": [\n" !smoke
       rotations);
  List.iteri
    (fun i row ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"spec\": %S, \"nodes\": %d, \"links\": %d, \"search\": %s}%s\n"
           row.gr_spec row.gr_nodes row.gr_links (json_leg row.gr_leg)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf
    (Printf.sprintf
       "  ],\n  \"suggestion_rate_gate\": {\"spec\": %S, \"suggestions_per_sec\": %.2f, \
        \"simulated_per_sec\": %.2f, \"minimum_suggestions_per_sec\": 1000.0, \"pass\": true},\n  \
        \"degenerate\": {\"legacy\": %s,\n                 \"routed\": %s,\n                 \
        \"speed_ratio\": %.4f, \"decision_identical\": true, \"equal_work\": true},\n"
       last.gr_spec sugg (simulated_per_sec last.gr_leg) (json_leg legacy) (json_leg routed)
       ratio);
  Buffer.add_string buf
    (Printf.sprintf "  \"memory\": {\"spec\": %S, \"searches\": [\n" mem_spec);
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"app\": %S, \"major_words\": %.0f, \"top_heap_growth_mb\": %.2f, \
            \"scratch_words\": %d}%s\n"
           r.m_app r.m_major_words r.m_top_heap_mb r.m_scratch_words
           (if i = List.length memory - 1 then "" else ",")))
    memory;
  Buffer.add_string buf "  ]}\n}\n";
  let oc = open_out !out_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" !out_file
