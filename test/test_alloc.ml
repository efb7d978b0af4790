(* Allocation discipline of the hot evaluation path.

   The gates:

   - the event loop proper: once the scratch is warm (bind cached,
     noise stream cached, heaps grown), re-simulating a candidate
     allocates exactly zero minor-heap words — the property Exec's
     quiet interface documents and the GC-quiet steady state rests on —
     on a legacy preset and on a contended routed grid, whose copies
     walk their hops through per-link busy-until clocks;

   - the whole search: minor words per suggested candidate of a full
     CCD run stays within the budget committed in
     golden/alloc_budget.txt, so allocation regressions anywhere in
     the suggest/build/evaluate cycle fail loudly instead of slowly
     eroding the steady state;

   - the validity check the evaluator runs on every candidate its
     profiles database cannot answer allocates nothing for a valid
     mapping;

   - the ensemble's proposals: minor words per step do not grow with
     the profiles database, whose ranking the elites are read from;

   - a routed copy's cost, summed at every bind of a routed dep:
     the words it allocates do not grow with the route's length, and a
     delta rebind of routed deps allocates no more than the same rebind
     on the kind-level channel;

   - the fresh-seed runs of a measurement: a warm run allocates its
     noise generator's state, not its draws, and a domain's share of a
     measurement spread over domains allocates no scratch, placement
     or bind;

   - a delta bind: a near neighbour of the bound mapping is diffed,
     its placement patched in place and its tables rebound without
     allocating a word.

   All these measurements only make sense compiled to native code —
   bytecode boxes freely — so the tests skip under other backends. *)

let native = match Sys.backend_type with Sys.Native -> true | _ -> false

let skip_unless_native () =
  if not native then Alcotest.skip ()

let problem () =
  let machine = Presets.shepard ~nodes:4 in
  let g = App.stencil.App.graph ~nodes:4 ~input:"500x500" in
  (machine, g)

(* Gc.minor_words is [@@noalloc] with an unboxed float result: reading
   the counter does not itself disturb the measurement. *)
let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let routed_problem () =
  let machine = Result.get_ok (Presets.of_spec "grid:4x4" ~nodes:1) in
  let g = App.stencil.App.graph ~nodes:machine.Machine.nodes ~input:"500x500" in
  (machine, g)

let quiet_steady_state_zero_alloc problem () =
  skip_unless_native ();
  let machine, g = problem () in
  let sc = Exec.scratch (Exec.compile machine g) in
  let m = Mapping.default_start g machine in
  let run seed =
    Exec.simulate_quiet sc m ~noise_sigma:0.03 ~seed ~fallback:false
      ~iterations:g.Graph.iterations ~cutoff:infinity
  in
  (* warm-up: first run binds and grows every pool; a second run under
     a different seed fills that seed's noise stream *)
  Alcotest.(check int) "finished" Exec.st_finished (run 1);
  Alcotest.(check int) "finished" Exec.st_finished (run 2);
  (* steady state: same mapping, already-filled seeds.  Nothing but the
     simulation itself may sit inside the measured window — even an
     Alcotest check allocates hundreds of words. *)
  for trial = 1 to 50 do
    let seed = 1 + (trial mod 2) in
    let w0 = Gc.minor_words () in
    let st = run seed in
    let w = Gc.minor_words () -. w0 in
    if st <> Exec.st_finished then Alcotest.failf "simulation failed (trial %d)" trial;
    if w <> 0.0 then
      Alcotest.failf "steady-state simulate_quiet allocated %.0f minor words (trial %d)"
        w trial
  done

(* Budget gate: a full CCD search's minor-heap traffic per
   suggested candidate, measured over the second (steady-state) search
   on a process that has already run one.  The committed budget is
   generous against run-to-run jitter but small enough that an
   accidental per-candidate record or closure (tens of words x
   thousands of candidates) trips it. *)
let read_budget () =
  let path = Filename.concat "golden" "alloc_budget.txt" in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec next () =
        match String.trim (input_line ic) with
        | "" -> next ()
        | line when line.[0] = '#' -> next ()
        | line -> float_of_string line
      in
      next ())

let search_words_per_candidate () =
  let machine, g = problem () in
  let ev = Evaluator.create ~seed:3 machine g in
  let out =
    Engine.run
      ~start:(Mapping.default_start g machine)
      ev
      (Ccd.make ~rotations:2 ev)
  in
  let suggested = (Evaluator.stats ev).Evaluator.s_suggested in
  Alcotest.(check bool) "searched" true (suggested > 0 && out.Engine.trials > 0);
  let ev2 = Evaluator.create ~seed:3 machine g in
  let words =
    minor_words_during (fun () ->
        ignore
          (Engine.run
             ~start:(Mapping.default_start g machine)
             ev2
             (Ccd.make ~rotations:2 ev2)))
  in
  words /. float_of_int suggested

let test_search_alloc_budget () =
  skip_unless_native ();
  let budget = read_budget () in
  let per_cand = search_words_per_candidate () in
  if per_cand > budget then
    Alcotest.failf
      "CCD search allocates %.1f minor words per suggested candidate, over \
       the committed budget of %.1f (golden/alloc_budget.txt)"
      per_cand budget

let maestro_lassen () =
  let machine = Presets.lassen ~nodes:4 in
  let g =
    App.maestro.App.graph ~nodes:4 ~input:(List.hd (App.maestro.App.inputs ~nodes:4))
  in
  (machine, g)

let test_is_valid_zero_alloc () =
  skip_unless_native ();
  let machine, g = maestro_lassen () in
  let m = Mapping.default_start g machine in
  let w0 = Gc.minor_words () in
  let valid = Mapping.is_valid g machine m in
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "default start is valid" true valid;
  if w <> 0.0 then Alcotest.failf "Mapping.is_valid allocated %.0f minor words" w

(* The engine canonicalizes and keys every proposal.  On a graph
   without an orbit of two or more tasks (every bundled app) the
   canonicalizer answers its argument and allocates nothing, and the
   key is one string of its own length. *)
let test_canonicalize_orbit_free_zero_alloc () =
  skip_unless_native ();
  let machine, g = maestro_lassen () in
  Alcotest.(check int) "orbit-free" 0 (Symmetry.n_nontrivial (Symmetry.build g));
  let space = Space.make ~symmetry:true g machine in
  let m = Mapping.default_start g machine in
  let w0 = Gc.minor_words () in
  let c = Space.canonicalize space m in
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "answers its argument" true (c == m);
  if w <> 0.0 then Alcotest.failf "Space.canonicalize allocated %.0f minor words" w

let test_canonical_key_one_string () =
  skip_unless_native ();
  let machine, g = maestro_lassen () in
  let m = Mapping.default_start g machine in
  let len = (3 * Graph.n_tasks g) + Graph.n_collections g + 3 in
  let words = minor_words_during (fun () -> ignore (Mapping.canonical_key m)) in
  (* a string of [len] bytes: a header word and len / 8 + 1 words *)
  let one_string = float_of_int (1 + (len / 8) + 1) in
  Alcotest.(check int) "key length" len (String.length (Mapping.canonical_key m));
  if words > one_string then
    Alcotest.failf "Mapping.canonical_key allocated %.0f minor words, over the %.0f of one string"
      words one_string

(* Ensemble gate: a step (proposal only, no evaluation) reads its
   elites from the profiles database's ranking, which must cost
   O(elite_size + log n), not a fold over the whole table.  Minor
   words are deterministic for a fixed build, so a 5% margin between
   a 100-entry and a 1600-entry database is not flaky, and a per-step
   sort of the table (several thousand words at 1600 entries) trips
   it. *)
let ensemble_step_words ~entries =
  let machine, g = maestro_lassen () in
  let ev = Evaluator.create ~seed:0 machine g in
  let db = Evaluator.db ev in
  let rng = Rng.create 11 in
  while Profiles_db.size db < entries do
    ignore
      (Profiles_db.record db
         (Space.random_unconstrained (Evaluator.space ev) rng)
         [ Rng.float rng 1.0 ])
  done;
  (* every arm equally often: half the steps read the elites *)
  let config = { Ensemble.default_config with seed = 5; exploration = 1.0 } in
  let strategy = Ensemble.make ~config ev in
  let start = Mapping.default_start g machine in
  strategy.Engine.init (start, 1.0);
  let ctx = { Engine.trials = 1; vt = 0.0; best = (start, 1.0) } in
  let step () = ignore (strategy.Engine.step ctx) in
  for _ = 1 to 200 do step () done;
  let steps = 2000 in
  minor_words_during (fun () -> for _ = 1 to steps do step () done)
  /. float_of_int steps

let test_ensemble_step_words () =
  skip_unless_native ();
  let small = ensemble_step_words ~entries:100 in
  let large = ensemble_step_words ~entries:1600 in
  if large > small *. 1.05 then
    Alcotest.failf
      "an ensemble step allocates %.1f minor words with 1600 profiles recorded, over \
       5%% more than the %.1f it allocates with 100"
      large small

(* Fresh-seed runs: [Evaluator.measure] and the final protocol give
   every run a seed of its own, so no cached stream serves them and
   each run draws its whole noise stream.  The bulk fill
   ({!Rng.fill_lognormal}) keeps those draws off the heap: a warm run
   may allocate a small constant plus one word per 128 instances (the
   generator's state is written back once per filled block), where one
   [Rng.lognormal] call per instance cost ~24 words each. *)
let fresh_words_constant = 128.0

let instances g =
  let per_iter = ref 0 in
  for tid = 0 to Graph.n_tasks g - 1 do
    per_iter := !per_iter + (Graph.task g tid).Graph.group_size
  done;
  g.Graph.iterations * !per_iter

let fresh_allowance g = fresh_words_constant +. (float_of_int (instances g) /. 128.0)

let lassen_app app () =
  let machine = Presets.lassen ~nodes:4 in
  (machine, app.App.graph ~nodes:4 ~input:(List.hd (app.App.inputs ~nodes:4)))

(* One run per call keeps the measurement on the calling domain: a
   single job is never fanned out. *)
let test_measure_fresh_seed_alloc problem () =
  skip_unless_native ();
  let machine, g = problem () in
  let ev = Evaluator.create ~seed:1 machine g in
  let m = Mapping.default_start g machine in
  (* warm-up: binds the mapping and grows the scratch *)
  ignore (Evaluator.measure ev ~runs:1 m);
  let allowance = fresh_allowance g in
  for trial = 1 to 5 do
    let w = minor_words_during (fun () -> ignore (Evaluator.measure ev ~runs:1 m)) in
    if w > allowance then
      Alcotest.failf
        "a warm fresh-seed Evaluator.measure run allocated %.0f minor words, over the \
         %.0f allowed for %d instances (trial %d)"
        w allowance (instances g) trial
  done

let test_simulate_fresh_seed_alloc problem () =
  skip_unless_native ();
  let machine, g = problem () in
  let sc = Exec.scratch (Exec.compile machine g) in
  let m = Mapping.default_start g machine in
  let sim seed = Exec.simulate ~noise_sigma:0.03 ~seed sc m in
  ignore (sim 1);
  let allowance = fresh_allowance g in
  for trial = 2 to 6 do
    let w0 = Gc.minor_words () in
    let r = sim trial in
    let w = Gc.minor_words () -. w0 in
    let record =
      match r with
      | Ok r -> float_of_int (Obj.reachable_words (Obj.repr r))
      | Error _ -> Alcotest.failf "simulation failed (trial %d)" trial
    in
    if w -. record > allowance then
      Alcotest.failf
        "a warm fresh-seed Exec.simulate allocated %.0f minor words beyond its %.0f-word \
         result, over the %.0f allowed for %d instances (trial %d)"
        (w -. record) record allowance (instances g) trial
  done

(* Each domain's share of a measurement: 30 fresh-seed runs of
   Stencil on grid:32x32, 737,280 instance-runs (ccd-mesh's Stencil
   final protocol), past twice Par.work_per_domain, so they split
   into one chunk per domain.  The chunk after the first runs on a
   runner of its own, reading the bind the calling domain made, and
   whichever domain takes it — a worker, or the calling one when it
   gets there first — builds nothing else.  A
   custom objective runs on the domain that ran each run, so it reads
   that domain's own minor-word counter (which starts near zero on a
   spawned domain, and is read just before the call on the calling
   one) without allocating: a float array store and an atomic
   increment.  Each domain's first call also waits until another
   domain has called it, so the runs land on two domains.  A domain
   may allocate, per run, the fresh-seed allowance plus the result
   record the objective is handed, and nothing for a scratch, a
   placement or a bind: a fresh scratch's resolve and bind of this
   mapping alone exceed every run's allowance together. *)
let test_measure_share_alloc () =
  skip_unless_native ();
  if Domain.recommended_domain_count () = 1 then begin
    print_endline "one domain recommended: the measurement runs inline, nothing to share";
    Alcotest.skip ()
  end;
  let machine = Result.get_ok (Presets.of_spec "grid:32x32" ~nodes:1) in
  let nodes = machine.Machine.nodes in
  let g = App.stencil.App.graph ~nodes ~input:(List.hd (App.stencil.App.inputs ~nodes)) in
  let m = Mapping.default_start g machine in
  let runs = 30 in
  let readings = Array.make runs 0.0 and domains = Array.make runs 0 in
  let next = Atomic.make 0 and wait = ref None in
  let objective _ (r : Exec.result) =
    let w = Gc.minor_words () in
    let i = Atomic.fetch_and_add next 1 in
    readings.(i) <- w;
    domains.(i) <- (Domain.self () :> int);
    Option.iter Fixtures.note_domain !wait;
    r.Exec.per_iteration
  in
  let ev = Evaluator.create ~seed:1 ~objective machine g in
  (* warm-up: binds the mapping and grows the scratch's runner *)
  ignore (Evaluator.measure_objective ev ~runs:1 m);
  (* the minor words of the record the objective is handed *)
  let record =
    let sc = Exec.scratch (Exec.compile machine g) in
    ignore (Exec.simulate ~seed:1 sc m);
    minor_words_during (fun () -> ignore (Exec.quiet_result sc))
  in
  let allowance = fresh_allowance g +. record in
  Atomic.set next 0;
  wait := Some (Fixtures.worker_wait ());
  let main = (Domain.self () :> int) in
  let main_base = Gc.minor_words () in
  ignore (Evaluator.measure_objective ev ~runs m);
  if Atomic.get next <> runs then
    Alcotest.failf "%d objective calls for %d runs" (Atomic.get next) runs;
  let ran = List.sort_uniq compare (Array.to_list domains) in
  if List.length ran < 2 then Alcotest.fail "every run stayed on one domain";
  List.iter
    (fun d ->
      let n = ref 0 and last = ref 0.0 in
      Array.iteri
        (fun i w ->
          if domains.(i) = d then begin
            incr n;
            if w > !last then last := w
          end)
        readings;
      let words = !last -. if d = main then main_base else 0.0 in
      let per_run = words /. float_of_int !n in
      if per_run > allowance then
        Alcotest.failf
          "the %s domain allocated %.0f minor words over its %d runs, %.0f a run, over the \
           %.0f allowed (%.0f for %d instances, %.0f for the result record)"
          (if d = main then "calling" else "worker")
          words !n per_run allowance (fresh_allowance g) (instances g) record)
    ran

(* On grid:8x8 node 0 to node 1 is one hop and node 0 to node 63 is
   fourteen: summing the longer route may allocate no more. *)
let test_copy_cost_words_flat () =
  skip_unless_native ();
  let machine = Result.get_ok (Presets.of_spec "grid:8x8" ~nodes:1) in
  let mem node =
    Machine.closest_memory machine (Machine.proc machine ~node ~kind:Kinds.Cpu ~local:0)
      Kinds.System
  in
  let src = mem 0 in
  let words dst =
    minor_words_during (fun () -> ignore (Machine.copy_cost machine ~src ~dst ~bytes:1e6))
  in
  let near = mem 1 and far = mem 63 in
  ignore (words near, words far);
  let w1 = words near and w14 = words far in
  if w14 <> w1 then
    Alcotest.failf "copy_cost allocated %.0f minor words for 1 hop and %.0f for 14" w1 w14

(* One collection's memory flipped back and forth on Stencil over 64
   nodes: each flip is a delta rebind of that collection's deps, many
   of them cross-node copies.  On grid:8x8 those route over up to 14
   links; on direct:64 — the same nodes, graph and placements — they
   take the kind-level channel and route nothing.  A routed dep is
   routed once, into the scratch's own walk buffer, so the two rebinds
   allocate the same words: none per dep for its route. *)
let test_routed_rebind_words () =
  skip_unless_native ();
  let rebind_words spec =
    let machine = Result.get_ok (Presets.of_spec spec ~nodes:1) in
    let nodes = machine.Machine.nodes in
    let g = App.stencil.App.graph ~nodes ~input:(List.hd (App.stencil.App.inputs ~nodes)) in
    let sc = Exec.scratch (Exec.compile machine g) in
    let m0 = Mapping.default_start g machine in
    let cid = (List.hd (Graph.task g 0).Graph.args).Graph.cid in
    let flipped =
      if Mapping.mem_of m0 cid = Kinds.Zero_copy then Kinds.Frame_buffer else Kinds.Zero_copy
    in
    let m1 = Mapping.set_mem m0 cid flipped in
    if not (Mapping.is_valid g machine m1) then Alcotest.failf "%s: flipped mapping invalid" spec;
    let bind m = ignore (Exec.static_lower_bound sc m) in
    bind m0;
    bind m1;
    bind m0;
    let d0 = Exec.delta_binds sc in
    let w = minor_words_during (fun () -> for _ = 1 to 5 do bind m1; bind m0 done) in
    if Exec.delta_binds sc - d0 <> 10 then
      Alcotest.failf "%s: expected 10 delta rebinds, got %d" spec (Exec.delta_binds sc - d0);
    w /. 10.0
  in
  let direct = rebind_words "direct:64" and grid = rebind_words "grid:8x8" in
  if grid > direct then
    Alcotest.failf
      "a routed delta rebind allocated %.0f minor words on grid:8x8, %.0f more than on direct:64"
      grid (grid -. direct)

(* A warm delta bind: the two mappings diffed into the binder's
   buffers, the placement planes patched in place, the changed tasks'
   slots and the moved collections' deps rebound, and the bind
   answered — all without a word.  One collection's memory flipped on
   Stencil and on Circuit over grid:32x32 (4096-shard collections,
   copies routed over the mesh), and one Pennant task moved from GPU to
   CPU on lassen:4, with its arguments in System memory. *)
let delta_bind_zero_alloc ~name machine g m0 m1 =
  let sc = Exec.scratch (Exec.compile machine g) in
  let bind m =
    match Exec.bind sc ~fallback:false m with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" name (Placement.error_to_string e)
  in
  bind m0;
  bind m1;
  bind m0;
  let d0 = Exec.delta_binds sc in
  for trial = 1 to 10 do
    let m = if trial mod 2 = 1 then m1 else m0 in
    let w0 = Gc.minor_words () in
    let r = Exec.bind sc ~fallback:false m in
    let w = Gc.minor_words () -. w0 in
    if Result.is_error r then Alcotest.failf "%s: bind failed (trial %d)" name trial;
    if w <> 0.0 then
      Alcotest.failf "%s: a warm delta bind allocated %.0f minor words (trial %d)" name w
        trial
  done;
  Alcotest.(check int) (name ^ ": delta binds") (d0 + 10) (Exec.delta_binds sc)

let mesh_memory_flip (app : App.t) () =
  skip_unless_native ();
  let machine = Result.get_ok (Presets.of_spec "grid:32x32" ~nodes:1) in
  let nodes = machine.Machine.nodes in
  let g = app.App.graph ~nodes ~input:(List.hd (app.App.inputs ~nodes)) in
  let m0 = Mapping.default_start g machine in
  let cid = (List.hd (Graph.task g 0).Graph.args).Graph.cid in
  let owner_kind = Mapping.proc_of m0 (Graph.collection g cid).Graph.owner in
  let other =
    List.find (fun k -> k <> Mapping.mem_of m0 cid) (Kinds.accessible_mem_kinds owner_kind)
  in
  delta_bind_zero_alloc ~name:app.App.app_name machine g m0 (Mapping.set_mem m0 cid other)

let pennant_processor_flip () =
  skip_unless_native ();
  let machine, g = lassen_app App.pennant () in
  let m0 = Mapping.default_start g machine in
  let task =
    List.find
      (fun (t : Graph.task) ->
        Mapping.proc_of m0 t.Graph.tid = Kinds.Gpu && Graph.has_variant t Kinds.Cpu)
      (Array.to_list g.Graph.tasks)
  in
  let m1 =
    List.fold_left
      (fun m (c : Graph.collection) -> Mapping.set_mem m c.Graph.cid Kinds.System)
      (Mapping.set_proc m0 task.Graph.tid Kinds.Cpu)
      task.Graph.args
  in
  delta_bind_zero_alloc ~name:"Pennant" machine g m0 m1

(* A neighbour the delta patch refuses because it overflows a memory:
   the verdict and its message come from a full resolve into the
   binder's spare planes, so the refused bind builds no placement.  On
   Maestro lassen:4 a fresh placement's collection-shard plane alone is
   past the minor heap's direct-allocation limit, so building one per
   refused neighbour went straight to the major heap: the words counted
   here are minor words plus those allocated directly in the major
   heap. *)
let test_refused_delta_bind_words () =
  skip_unless_native ();
  let machine, g = maestro_lassen () in
  let m0 = Mapping.default_start g machine in
  let overflows m =
    match Placement.resolve machine g m with
    | Error (Placement.Out_of_memory _) -> true
    | _ -> false
  in
  (* the default start's collections moved into zero-copy memory one
     by one, until the moves overflow it (the tenth, on this input) *)
  let m1 =
    let rec grow m = function
      | [] -> Alcotest.fail "zero-copy memory never overflows"
      | (c : Graph.collection) :: rest ->
          let m = Mapping.set_mem m c.Graph.cid Kinds.Zero_copy in
          if overflows m then m else grow m rest
    in
    grow m0 (Graph.collections g)
  in
  let sc = Exec.scratch (Exec.compile machine g) in
  let refused () =
    match Exec.bind sc ~fallback:false m1 with
    | Error (Placement.Out_of_memory _) -> ()
    | _ -> Alcotest.fail "the neighbour must overflow a memory"
  in
  (match Exec.bind sc ~fallback:false m0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Placement.error_to_string e));
  refused ();
  let shards = Array.length (Bind.planes (Exec.binder sc)).Placement.mem in
  let delta = Exec.delta_binds sc and full = Exec.full_binds sc in
  for trial = 1 to 5 do
    let mi0, pr0, ma0 = Gc.counters () in
    refused ();
    let mi1, pr1, ma1 = Gc.counters () in
    let words = mi1 -. mi0 +. (ma1 -. ma0 -. (pr1 -. pr0)) in
    if words >= float_of_int shards then
      Alcotest.failf
        "a refused delta bind allocated %.0f words (trial %d); a collection-shard plane \
         holds %d"
        words trial shards
  done;
  Alcotest.(check (pair int int)) "no bind succeeded" (delta, full)
    (Exec.delta_binds sc, Exec.full_binds sc)

let suite =
  [
    Alcotest.test_case "quiet steady state allocates zero minor words" `Quick
      (quiet_steady_state_zero_alloc problem);
    Alcotest.test_case "routed quiet steady state allocates zero minor words" `Quick
      (quiet_steady_state_zero_alloc routed_problem);
    Alcotest.test_case "search minor words per candidate within budget" `Quick
      test_search_alloc_budget;
    Alcotest.test_case "is_valid allocates nothing" `Quick test_is_valid_zero_alloc;
    Alcotest.test_case "orbit-free canonicalize allocates nothing" `Quick
      test_canonicalize_orbit_free_zero_alloc;
    Alcotest.test_case "canonical key allocates one string" `Quick
      test_canonical_key_one_string;
    Alcotest.test_case "ensemble step minor words independent of database size" `Quick
      test_ensemble_step_words;
    Alcotest.test_case "fresh-seed measure run allocates no noise (Stencil lassen:4)"
      `Quick (test_measure_fresh_seed_alloc (lassen_app App.stencil));
    Alcotest.test_case "fresh-seed measure run allocates no noise (Pennant lassen:4)"
      `Quick (test_measure_fresh_seed_alloc (lassen_app App.pennant));
    Alcotest.test_case "fresh-seed simulate allocates its result only (Stencil lassen:4)"
      `Quick (test_simulate_fresh_seed_alloc (lassen_app App.stencil));
    Alcotest.test_case "fresh-seed simulate allocates its result only (Pennant lassen:4)"
      `Quick (test_simulate_fresh_seed_alloc (lassen_app App.pennant));
    Alcotest.test_case "a measurement's domains allocate no scratch, placement or bind"
      `Quick test_measure_share_alloc;
    Alcotest.test_case "routed copy cost words do not grow with the route" `Quick
      test_copy_cost_words_flat;
    Alcotest.test_case "a routed rebind allocates nothing per dep for its route" `Quick
      test_routed_rebind_words;
    Alcotest.test_case "a delta bind allocates nothing (Stencil grid:32x32)" `Quick
      (mesh_memory_flip App.stencil);
    Alcotest.test_case "a delta bind allocates nothing (Circuit grid:32x32)" `Quick
      (mesh_memory_flip App.circuit);
    Alcotest.test_case "a delta bind allocates nothing (Pennant lassen:4)" `Quick
      pennant_processor_flip;
    Alcotest.test_case "a refused delta bind builds no placement (Maestro lassen:4)" `Quick
      test_refused_delta_bind_words;
  ]
