(* A scratch reused along a search's neighbour chain carries state from
   run to run: the bind cache, delta binds (a near neighbour's placement
   patched instead of re-resolved) and the shared per-seed noise
   streams.  None of it may show: every run on the reused scratch must
   be bit-identical to the same run on a fresh scratch — same
   makespans, per-instance statistics, RNG streams and Cut decisions
   for every mapping the search can visit. *)

let bits = Int64.bits_of_float

let check_float name a b =
  if bits a <> bits b then
    Alcotest.failf "%s: %.17g <> %.17g (bit mismatch)" name a b

let check_farray name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri (fun i x -> check_float (Printf.sprintf "%s.(%d)" name i) x b.(i)) a

let check_result name (a : Exec.result) (b : Exec.result) =
  check_float (name ^ " makespan") a.Exec.makespan b.Exec.makespan;
  check_float (name ^ " per_iteration") a.Exec.per_iteration b.Exec.per_iteration;
  check_farray (name ^ " task_times") a.Exec.task_times b.Exec.task_times;
  check_farray (name ^ " proc_busy") a.Exec.proc_busy b.Exec.proc_busy;
  check_float (name ^ " bytes_moved") a.Exec.bytes_moved b.Exec.bytes_moved;
  check_farray (name ^ " channel_bytes") a.Exec.channel_bytes b.Exec.channel_bytes;
  Alcotest.(check int) (name ^ " n_copies") a.Exec.n_copies b.Exec.n_copies;
  Alcotest.(check int) (name ^ " demotions") a.Exec.demotions b.Exec.demotions

(* Same constraint-repairing single-coordinate move the annealer makes:
   the diffs a reused scratch sees in production are chains of
   these. *)
let mutate g space rng parent =
  let dims = Array.of_list (Space.dims space) in
  match Rng.choose rng dims with
  | Space.Distribution tid ->
      Mapping.set_distribute parent tid (not (Mapping.distribute_of parent tid))
  | Space.Strategy tid ->
      Mapping.set_strategy parent tid
        (match Mapping.strategy_of parent tid with
        | Mapping.Blocked -> Mapping.Cyclic
        | Mapping.Cyclic -> Mapping.Blocked)
  | Space.Processor tid ->
      let k = Rng.choose_list rng (Space.proc_choices space tid) in
      let m = Mapping.set_proc parent tid k in
      List.fold_left
        (fun acc (c : Graph.collection) ->
          if Kinds.accessible k (Mapping.mem_of acc c.cid) then acc
          else
            match Kinds.accessible_mem_kinds k with
            | mk :: _ -> Mapping.set_mem acc c.cid mk
            | [] -> acc)
        m (Graph.task g tid).args
  | Space.Memory cid ->
      let owner = (Graph.collection g cid).owner in
      let k = Mapping.proc_of parent owner in
      Mapping.set_mem parent cid (Rng.choose_list rng (Space.mem_choices space k))

(* Walk a neighbor chain on one reused scratch, comparing full runs and
   bounded runs (the Cut path) against a fresh scratch at every step
   under common random numbers.  The reused scratch runs quiet, as the
   search does, so its seeds' noise streams are cached: cut part way,
   continued by the next full run, and read back by the record API's
   twin run. *)
let compare_chain ~name ~steps ~seeds machine g =
  let c = Exec.compile machine g in
  let sc = Exec.scratch c in
  let space = Space.make g machine in
  let rng = Rng.create 42 in
  (* Maestro's GPU-first default OOMs on the small test machine; chains
     need a runnable base so the success path is actually exercised *)
  let start =
    let d = Mapping.default_start g machine in
    match Exec.simulate ~noise_sigma:0.0 (Exec.scratch c) d with
    | Ok _ -> d
    | Error _ -> Mapping.all_cpu g machine
  in
  let incumbent = ref start in
  let best = ref infinity in
  let m = ref !incumbent in
  for step = 0 to steps - 1 do
    List.iter
      (fun seed ->
        let tag = Printf.sprintf "%s step %d seed %d" name step seed in
        (match
           ( Fixtures.quiet_run ~noise_sigma:0.03 ~seed sc !m,
             Exec.simulate ~noise_sigma:0.03 ~seed (Exec.scratch c) !m )
         with
        | Ok a, Ok b ->
            check_result tag a b;
            if a.Exec.makespan < !best then begin
              best := a.Exec.makespan;
              incumbent := !m
            end
        | Error a, Error b ->
            Alcotest.(check string) (tag ^ " error")
              (Placement.error_to_string b) (Placement.error_to_string a)
        | Ok _, Error e ->
            Alcotest.failf "%s: reused Ok, fresh Error %s" tag
              (Placement.error_to_string e)
        | Error e, Ok _ ->
            Alcotest.failf "%s: reused Error %s, fresh Ok" tag
              (Placement.error_to_string e));
        (* the pruning path: cutoffs below the incumbent must cut at
           bit-identical clock values on both scratches *)
        if !best < infinity then
          let cutoff = 0.9 *. !best in
          match
            ( Fixtures.quiet_simulate ~noise_sigma:0.03 ~seed ~cutoff sc !m,
              Exec.simulate_bounded ~noise_sigma:0.03 ~seed ~cutoff (Exec.scratch c) !m )
          with
          | Ok (Exec.Finished a), Ok (Exec.Finished b) -> check_result (tag ^ " bounded") a b
          | Ok (Exec.Cut a), Ok (Exec.Cut b) -> check_float (tag ^ " cut clock") a b
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "%s: bounded outcomes diverge" tag)
      seeds;
    (* a structurally equal but physically distinct copy misses the bind
       cache and takes an empty-diff delta bind *)
    let twin = Mapping.set_proc !m 0 (Mapping.proc_of !m 0) in
    let seed = List.hd seeds in
    (match
       ( Exec.simulate ~noise_sigma:0.03 ~seed sc twin,
         Exec.simulate ~noise_sigma:0.03 ~seed (Exec.scratch c) !m )
     with
    | Ok a, Ok b -> check_result (Printf.sprintf "%s step %d twin" name step) a b
    | Error _, Error _ -> ()
    | _ -> Alcotest.failf "%s step %d: twin outcomes diverge" name step);
    (* 1-2 coordinate hops, occasionally rebased on the incumbent like
       a descent restart *)
    m := mutate g space rng (if step mod 5 = 4 then !incumbent else !m);
    if Rng.bool rng then m := mutate g space rng !m
  done;
  Alcotest.(check bool) (name ^ " delta binds exercised") true (Exec.delta_binds sc > 0)

let test_app (app : App.t) () =
  let nodes = 2 in
  (* Maestro's HF sample is sized for Lassen's 64 GB frame buffers and
     OOMs on every strict Shepard mapping (cf. test_apps.ml) *)
  let machine =
    if app.App.app_name = "Maestro" then Presets.lassen ~nodes else Presets.shepard ~nodes
  in
  let input = List.hd (app.App.inputs ~nodes) in
  let g = app.App.graph ~nodes ~input in
  compare_chain ~name:app.App.app_name ~steps:12 ~seeds:[ 3; 4; 5 ] machine g

(* End-to-end decision identity: a full CCD search must make the same
   accept/reject sequence, visit the same candidates and return the
   same best in the default evaluator (bound-pruning) and in reference
   mode (full simulation of every candidate). *)
let test_ccd_decision_identity () =
  let machine = Presets.shepard ~nodes:4 in
  let g = App.circuit.App.graph ~nodes:4 ~input:(List.hd (App.circuit.App.inputs ~nodes:4)) in
  let run reference =
    let ev = Evaluator.create ~reference ~seed:3 machine g in
    let best, perf = Fixtures.search ev (Ccd.make ~rotations:3 ev) in
    (best, perf, List.map snd (Evaluator.trace ev), Evaluator.stats ev)
  in
  let bi, pi, ti, si = run false in
  let bf, pf, tf, sf = run true in
  Alcotest.(check string) "best mapping" (Mapping.canonical_key bf) (Mapping.canonical_key bi);
  check_float "best perf" pi pf;
  Alcotest.(check (list (float 0.0))) "improvement trace" tf ti;
  Alcotest.(check int) "suggested" sf.Evaluator.s_suggested si.Evaluator.s_suggested;
  Alcotest.(check bool) "default leg pruned" true (si.Evaluator.s_cut_evals > 0);
  Alcotest.(check int) "reference leg cut nothing" 0 sf.Evaluator.s_cut_evals

(* Random graphs x random <=8-coordinate neighbor chains: the property
   the golden tests spot-check, over the whole builder space. *)
let prop_random_graphs =
  QCheck.Test.make ~count:40 ~name:"incremental == full on random workloads"
    Gen.arbitrary_spec (fun spec ->
      let g = Gen.graph_of_spec spec in
      let machine = Fixtures.default_machine () in
      let c = Exec.compile machine g in
      let sc = Exec.scratch c in
      let space = Space.make g machine in
      let rng = Rng.create (spec.Gen.seed + 1) in
      let m = ref (Mapping.default_start g machine) in
      let ok = ref true in
      for _ = 1 to 8 do
        List.iter
          (fun seed ->
            match
              ( Fixtures.quiet_run ~noise_sigma:0.05 ~seed sc !m,
                Exec.simulate ~noise_sigma:0.05 ~seed (Exec.scratch c) !m )
            with
            | Ok a, Ok b ->
                if bits a.Exec.makespan <> bits b.Exec.makespan then ok := false
            | Error _, Error _ -> ()
            | _ -> ok := false)
          [ 1; 2 ];
        (* up to 4 task + 4 collection coordinate hops between runs *)
        for _ = 1 to 1 + Rng.int rng 4 do
          m := mutate g space rng !m
        done
      done;
      !ok)

(* Tight memories: the binder patches its placement planes in place,
   and a neighbour that is invalid or overflows a memory must leave
   them as they were.  Random workloads (group sizes 1, 2 or 4, so byte
   counts are dyadic and every usage sum is exact) on a testbed:2
   whose every memory holds twice what the default mapping puts in its
   busiest memory of that kind, or two shards of the largest
   collection where the default uses none: in a run, about three steps
   in ten overflow a memory and one in four is invalid.  The chain takes
   1-8 coordinate moves a step, a quarter of them unrepaired (a kind
   the task lacks, or a memory its processor cannot address), and
   after a failure it rebases on the last mapping that bound about
   half the time.  After every step the reused scratch's bind tables
   and planes must equal a fresh scratch's full bind of the same
   mapping, or of the last mapping that bound when this one failed,
   and its error must be Placement.resolve_with's, message
   included. *)
let tight_machine g =
  let base = Presets.testbed ~nodes:2 in
  let usage = Array.make (Array.length base.Machine.memories) 0.0 in
  (match Placement.resolve base g (Mapping.default_start g base) with
  | Ok pl ->
      Array.iter
        (fun (m : Machine.memory) -> usage.(m.Machine.mid) <- Placement.bytes_resident pl m)
        base.Machine.memories
  | Error _ -> ());
  let shard = ref 0.0 in
  List.iter
    (fun (c : Graph.collection) -> shard := Float.max !shard c.Graph.bytes)
    (Graph.collections g);
  let cap kind =
    let busiest = ref 0.0 in
    Array.iter
      (fun (m : Machine.memory) ->
        if m.Machine.mkind = kind then busiest := Float.max !busiest usage.(m.Machine.mid))
      base.Machine.memories;
    2.0 *. Float.max !busiest !shard
  in
  Machine.make ~name:"tight" ~nodes:2
    ~node:
      {
        base.Machine.node with
        Machine.sysmem_per_socket = cap Kinds.System;
        zc_capacity = cap Kinds.Zero_copy;
        fb_capacity = cap Kinds.Frame_buffer;
      }
    ~exec_bw:base.Machine.exec_bw ~compute:base.Machine.compute ~copy:base.Machine.copy ()

(* One coordinate set to any value, constraints unrepaired *)
let raw_mutate g rng m =
  let nt = Graph.n_tasks g and nc = Graph.n_collections g in
  let i = Rng.int rng (nt + nc) in
  if i >= nt then
    Mapping.set_mem m (i - nt) (Rng.choose_list rng Kinds.all_mem_kinds)
  else
    match Rng.int rng 3 with
    | 0 -> Mapping.set_proc m i (Rng.choose_list rng Kinds.all_proc_kinds)
    | 1 -> Mapping.set_distribute m i (not (Mapping.distribute_of m i))
    | _ ->
        Mapping.set_strategy m i
          (match Mapping.strategy_of m i with
          | Mapping.Blocked -> Mapping.Cyclic
          | Mapping.Cyclic -> Mapping.Blocked)

(* The tables and planes of two binds of one mapping.  A dep keeps a
   class and cost only while it copies, and endpoint nodes only while
   it is routed; the rest of its entries are stale on a reused
   scratch and read by nothing. *)
let same_bind (a : Exec.bind) (b : Exec.bind) (pa : Placement.planes)
    (pb : Placement.planes) =
  let ints x y = x = y in
  let floats x y = Array.for_all2 (fun u v -> bits u = bits v) x y in
  floats a.Bind.slot_dur b.Bind.slot_dur
  && ints a.Bind.slot_pid b.Bind.slot_pid
  && ints a.Bind.slot_node b.Bind.slot_node
  && ints a.Bind.dep_chan b.Bind.dep_chan
  && a.Bind.demotions = b.Bind.demotions
  && (let ok = ref true in
      Array.iteri
        (fun k chan ->
          if chan <> -1 then begin
            if a.Bind.dep_class.(k) <> b.Bind.dep_class.(k)
               || bits a.Bind.dep_cost.(k) <> bits b.Bind.dep_cost.(k)
            then ok := false;
            if chan <= -2
               && (a.Bind.dep_src_node.(k) <> b.Bind.dep_src_node.(k)
                  || a.Bind.dep_dst_node.(k) <> b.Bind.dep_dst_node.(k))
            then ok := false
          end)
        a.Bind.dep_chan;
      !ok)
  && ints pa.Placement.proc pb.Placement.proc
  && ints pa.Placement.mem pb.Placement.mem
  && floats pa.Placement.usage pb.Placement.usage
  && pa.Placement.demotions = pb.Placement.demotions

let prop_tight_patches =
  let spec_gen =
    QCheck.map
      (fun (spec : Gen.spec) -> { spec with Gen.group_size = [| 1; 2; 4 |].(spec.Gen.group_size mod 3) })
      Gen.arbitrary_spec
  in
  QCheck.Test.make ~count:40 ~name:"in-place patches restore on OOM and invalid mappings"
    spec_gen (fun spec ->
      let g = Gen.graph_of_spec spec in
      let machine = tight_machine g in
      let c = Exec.compile machine g in
      let sc = Exec.scratch c in
      let space = Space.make g machine in
      let rng = Rng.create (spec.Gen.seed + 7) in
      let fresh m =
        let f = Exec.scratch c in
        match Exec.bind f ~fallback:false m with
        | Ok b -> Some (b, Bind.planes (Exec.binder f))
        | Error _ -> None
      in
      let m = ref (Mapping.default_start g machine) in
      let good = ref None in
      let failed = ref false in
      for step = 1 to 30 do
        let reused = Exec.bind sc ~fallback:false !m in
        let own = Bind.planes (Exec.binder sc) in
        (match (reused, Placement.resolve_with (Placement.plan machine g) !m) with
        | Ok b, Ok _ -> (
            match fresh !m with
            | Some (fb, fp) ->
                if not (same_bind b fb own fp) then
                  QCheck.Test.fail_reportf "step %d: the reused bind differs from a full bind"
                    step;
                good := Some !m;
                failed := false
            | None -> QCheck.Test.fail_reportf "step %d: a fresh scratch cannot bind" step)
        | Error e, Error e' ->
            if Placement.error_to_string e <> Placement.error_to_string e' then
              QCheck.Test.fail_reportf "step %d: error %S, resolve_with's %S" step
                (Placement.error_to_string e) (Placement.error_to_string e');
            (* the planes and tables are the last good mapping's *)
            (match !good with
            | Some gm -> (
                match fresh gm with
                | Some (fb, fp) ->
                    if not (same_bind (Bind.tables (Exec.binder sc)) fb own fp) then
                      QCheck.Test.fail_reportf
                        "step %d: a failed bind left planes or tables that are not the \
                         last good mapping's"
                        step
                | None -> ())
            | None -> ());
            failed := true
        | Ok _, Error e ->
            QCheck.Test.fail_reportf "step %d: bound, resolve_with says %s" step
              (Placement.error_to_string e)
        | Error e, Ok _ ->
            QCheck.Test.fail_reportf "step %d: %s, resolve_with places it" step
              (Placement.error_to_string e));
        let base =
          match !good with Some gm when !failed && Rng.bool rng -> gm | _ -> !m
        in
        m := base;
        for _ = 1 to 1 + Rng.int rng 8 do
          m := if Rng.int rng 4 = 0 then raw_mutate g rng !m else mutate g space rng !m
        done
      done;
      true)

(* Routed machines: a scratch that delta-rebinds along a neighbour
   chain must match a fresh scratch's full bind at every step.  Memory
   moves onto or off a GPU's frame buffer add or drop PCIe staging
   hops and distribution flips change route endpoints, so each step
   rebinds routed deps to other codes and nodes. *)
let test_routed_delta_rebind () =
  List.iter
    (fun spec ->
      let machine =
        match Presets.of_spec spec ~nodes:1 with Ok m -> m | Error e -> Alcotest.fail e
      in
      let nodes = machine.Machine.nodes in
      List.iter
        (fun (app : App.t) ->
          let g = app.App.graph ~nodes ~input:(List.hd (app.App.inputs ~nodes)) in
          let c = Exec.compile machine g in
          let sc = Exec.scratch c in
          let space = Space.make g machine in
          let rng = Rng.create 11 in
          let m = ref (Mapping.default_start g machine) in
          for step = 0 to 39 do
            let tag = Printf.sprintf "%s %s step %d" spec app.App.app_name step in
            (match
               ( Exec.simulate ~noise_sigma:0.0 sc !m,
                 Exec.simulate ~noise_sigma:0.0 (Exec.scratch c) !m )
             with
            | Ok a, Ok b -> check_result tag a b
            | Error _, Error _ -> ()
            | _ -> Alcotest.failf "%s: outcomes diverge" tag);
            m := mutate g space rng !m
          done;
          Alcotest.(check bool) (spec ^ " delta binds exercised") true
            (Exec.delta_binds sc > 0))
        [ App.stencil; App.circuit ])
    [ "fattree:2:4"; "grid:4x4" ]

let suite =
  List.map (fun (a : App.t) -> Alcotest.test_case a.App.app_name `Quick (test_app a)) App.all
  @ [
      Alcotest.test_case "routed delta rebind = full bind" `Quick test_routed_delta_rebind;
      Alcotest.test_case "ccd decision identity" `Slow test_ccd_decision_identity;
      QCheck_alcotest.to_alcotest prop_random_graphs;
      QCheck_alcotest.to_alcotest prop_tight_patches;
    ]
