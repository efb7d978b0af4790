(* End-to-end benchmark of the mapper: the one measurement every
   performance or simplicity claim about this repository is made with.

   Four workloads run the library the way its users do, through public
   entry points only (Presets, App.graph, Automap_api.check_feasible,
   Exec.compile, Driver.run, Automap_api.measure_mapping, Server and
   Wire):

   - ccd-lassen       CCD(5) with CLI `search` defaults, five apps at
                      their first input on lassen:4 — the paper's main
                      experiment; evaluator and simulator dominate.
   - ensemble-lassen  the OpenTuner-style ensemble at 15000 trials on
                      Circuit, Stencil and Maestro — the strategy layer
                      and the profiles-DB cache path dominate.
   - ccd-mesh         CCD(5) on Stencil and Circuit over grid:32x32 —
                      set-up (topology analysis), the final protocol and
                      machine-size-dependent strategy steps show here and
                      nowhere else.
   - serve-mix        an in-process serve daemon under a closed loop of
                      4 clients: analyze lines, exact repeats (memo
                      reads) and new maps (cache writes, warm starts,
                      slice scheduling, ranked batches).  The request
                      mix is synthetic and unverified: no daemon traffic
                      has been recorded to take it from.

   The work of a run is fixed data per workload (seeds per app, or
   requests), scaled by --seconds from the reference 20 s, so the amount
   of work — and with it every deterministic metric — is a function of
   the seed and the run size alone.  Each timed sample starts
   after Gc.compact, as a one-shot CLI process starts fresh.  --trace 1
   replaces the timed pass by a traced one: each search is rebuilt from
   Evaluator.create / Driver.make_strategy / Engine.run /
   Driver.final_protocol with a clock at every boundary the engine
   exposes, and must be decision-identical to the untraced Driver.run.

   Usage:
     dune exec bench/e2e/e2e.exe -- [--workload W] [--seed S] [--seconds N]
                                    [--trace [0|1]] [--quick] [--out FILE]
     dune exec bench/e2e/e2e.exe -- compare [--agree] A.json... -- B.json...

   Without --workload every workload runs in its own child process, one
   after another.  The last stdout line is the JSON result; the full
   record goes to BENCH_e2e.json and trace spans to
   BENCH_e2e_trace.jsonl.  See README.md for the metric definitions. *)

open E2e_lib

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let fail fmt = Printf.ksprintf failwith fmt
let check cond fmt = Printf.ksprintf (fun s -> if not cond then failwith s) fmt

(* ---- options ------------------------------------------------------------ *)

type opts = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : bool;
  quick : bool;
  out : string;
  trace_out : string;
}

let usage () =
  prerr_endline
    "usage: e2e.exe [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--quick] \
     [--out FILE] [--trace-out FILE]\n\
    \       e2e.exe compare [--agree] [--bench BENCHMARK.json] A.json... -- B.json...";
  exit 2

let int_arg flag v =
  match int_of_string_opt v with Some n -> n | None -> (Printf.eprintf "%s: not an integer: %S\n" flag v; exit 2)

let parse_opts args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = Some w } rest
    | "--seed" :: s :: rest -> go { o with seed = int_arg "--seed" s } rest
    | "--seconds" :: s :: rest ->
        let n = int_arg "--seconds" s in
        if n < 1 then usage ();
        go { o with seconds = n } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--quick" :: rest -> go { o with quick = true } rest
    | "--out" :: f :: rest -> go { o with out = f } rest
    | "--trace-out" :: f :: rest -> go { o with trace_out = f } rest
    | a :: _ -> Printf.eprintf "e2e: unknown argument %S\n" a; usage ()
  in
  go
    {
      workload = None;
      seed = 0;
      seconds = 20;
      trace = false;
      quick = false;
      out = "BENCH_e2e.json";
      trace_out = "BENCH_e2e_trace.jsonl";
    }
    args

(* ---- measurement plumbing ----------------------------------------------- *)

(* Every timed sample starts after a full major collection: a one-shot
   CLI process starts from a fresh heap, and the previous sample's
   garbage otherwise moves search times by ~12% between runs. *)
let timed f =
  Gc.compact ();
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* One operation is one search or one request; it fails on the first
   exception or failed check inside it. *)
type tally = { mutable attempted : int; mutable failures : string list }

let attempt tl what f =
  tl.attempted <- tl.attempted + 1;
  try Some (f ())
  with e ->
    tl.failures <- Printf.sprintf "%s: %s" what (Printexc.to_string e) :: tl.failures;
    None

(* Spans at the coarse boundaries, kept in memory and written at the
   end.  Spans of one search or request share [id]; [parent] names the
   span that caused this one. *)
type span = {
  sp_name : string;
  sp_id : string;
  sp_parent : string option;
  sp_start : float;
  sp_dur : float;
  sp_attrs : (string * Wire.json) list;
}

let spans : span list ref = ref []
let origin = now ()

let span ?parent ?(attrs = []) name id ~start ~stop =
  spans :=
    { sp_name = name; sp_id = id; sp_parent = parent; sp_start = start; sp_dur = stop -. start; sp_attrs = attrs }
    :: !spans

let span_json s =
  Wire.Obj
    ([
       ("name", Wire.Str s.sp_name);
       ("id", Wire.Str s.sp_id);
       ("parent", match s.sp_parent with Some p -> Wire.Str p | None -> Wire.Null);
       ("start_ms", Wire.Num ((s.sp_start -. origin) *. 1e3));
       ("dur_ms", Wire.Num (s.sp_dur *. 1e3));
     ]
    @ s.sp_attrs)

let mean xs = if xs = [] then 0.0 else Stats.mean xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum xs = List.fold_left ( +. ) 0.0 xs
let fi = float_of_int

(* ---- traced search ------------------------------------------------------ *)

(* Time attributed to each layer boundary the engine exposes: every
   clock read closes the segment since the previous one into the layer
   the boundary ends. *)
type acc = { mutable n : int; mutable total : float; mutable peak : float }

type tracer = {
  mutable mark : float;
  prep : acc;       (* Evaluator.create, surrogate, strategy, seen-set *)
  strategy : acc;   (* inside init / step / receive *)
  evaluator : acc;  (* step returned -> receive entered *)
  post : acc;       (* receive returned -> Eval event (pinning, surrogate) *)
  other : acc;      (* the engine's remainder *)
  final : acc;      (* Driver.final_protocol *)
  mutable steps : int;
  mutable evals : int;
  mutable accepted : int;
  mutable best_trial : int;
  mutable best_at : float;
}

let new_acc () = { n = 0; total = 0.0; peak = 0.0 }

let close tr a =
  let t = now () in
  let d = t -. tr.mark in
  a.n <- a.n + 1;
  a.total <- a.total +. d;
  if d > a.peak then a.peak <- d;
  tr.mark <- t

type traced = {
  t_best : Mapping.t;
  t_perf : float;
  t_search : Mapping.t * float;  (* the engine's best, before the final protocol *)
  t_wall : float;
  t_trials : int;
  t_stats : Evaluator.stats;
  t_tr : tracer;
  t_marks : float * float * float * float;  (* start, prep end, run end, end *)
}

(* Driver.run — or, with [batch], a serve map job — rebuilt from its
   public parts with the same arguments it passes, so the decisions
   must come out identical. *)
let traced_search ~seed ?max_trials ~batch ~min_batch ?warm algo machine graph =
  let tr =
    {
      mark = 0.0; prep = new_acc (); strategy = new_acc (); evaluator = new_acc ();
      post = new_acc (); other = new_acc (); final = new_acc (); steps = 0; evals = 0;
      accepted = 0; best_trial = 0; best_at = 0.0;
    }
  in
  Gc.compact ();
  let t0 = now () in
  tr.mark <- t0;
  let ev = Evaluator.create ~seed ~symmetry:true ~dominance:true machine graph in
  let space = Evaluator.space ev in
  let seen =
    if Space.symmetry space then Some (Engine.seen_create (Space.canonicalize space)) else None
  in
  let start =
    match warm with
    | Some m -> Evaluator.note_warm_start ev; m
    | None -> Mapping.default_start graph machine
  in
  let sg = Surrogate.create space in
  Evaluator.attach_surrogate ev sg;
  let inner =
    Driver.make_strategy ~seed ~batch ~min_batch
      ?surrogate:(if batch then Some sg else None) algo ev
  in
  let strat =
    {
      inner with
      Engine.init = (fun x -> close tr tr.evaluator; inner.Engine.init x; close tr tr.strategy);
      step =
        (fun ctx ->
          close tr tr.other;
          tr.steps <- tr.steps + 1;
          let s = inner.Engine.step ctx in
          close tr tr.strategy;
          s);
      receive =
        (fun m p ->
          close tr tr.evaluator;
          let a = inner.Engine.receive m p in
          close tr tr.strategy;
          a);
    }
  in
  let on_event = function
    | Engine.Eval { accepted; _ } ->
        close tr tr.post;
        tr.evals <- tr.evals + 1;
        if accepted then tr.accepted <- tr.accepted + 1
    | Engine.Improve { trial; _ } ->
        close tr tr.other;
        tr.best_trial <- trial;
        tr.best_at <- tr.mark -. t0
    | Engine.Phase_change _ | Engine.Checkpointed _ -> close tr tr.other
  in
  close tr tr.prep;
  let t_prep = tr.mark in
  let o =
    Engine.run ~budget:(Budget.make ?max_trials ()) ~on_event ~surrogate:sg ?seen ~start ev
      strat
  in
  close tr tr.other;
  let t_run = tr.mark in
  let best, runs =
    Driver.final_protocol ev ~search_best:o.Engine.best ~search_perf:o.Engine.perf
  in
  close tr tr.final;
  let t_end = now () in
  {
    t_best = best;
    t_perf = Stats.mean runs;
    t_search = (o.Engine.best, o.Engine.perf);
    t_wall = t_end -. t0;
    t_trials = o.Engine.trials;
    t_stats = Evaluator.stats ev;
    t_tr = tr;
    t_marks = (t0, t_prep, t_run, t_end);
  }

(* The per-layer metrics of a set of traced searches: times and counts
   per search, ratios over the totals. *)
type layer_sample = {
  ls_setup : float array;  (* presets, graph, analyze, compile — seconds *)
  ls_kwords : float;
  ls_t : traced;
  ls_overhead : float;     (* traced wall / untraced wall *)
}

let layer_metrics samples =
  let k = fi (List.length samples) in
  let per f = sum (List.map f samples) /. k in
  let tot f = sum (List.map f samples) in
  let st f s = fi (f s.ls_t.t_stats) in
  let ms a s = (a s.ls_t.t_tr).total *. 1e3 in
  let protocol s = st (fun x -> x.Evaluator.s_evaluated + x.Evaluator.s_cut_evals) s in
  let cone = tot (st (fun x -> x.Evaluator.s_cone_replays)) in
  let full = tot (st (fun x -> x.Evaluator.s_full_replays)) in
  [
    ("presets.build_ms", per (fun s -> s.ls_setup.(0) *. 1e3));
    ("app.graph_ms", per (fun s -> s.ls_setup.(1) *. 1e3));
    ("analysis.analyze_ms", per (fun s -> s.ls_setup.(2) *. 1e3));
    ("exec.compile_ms", per (fun s -> s.ls_setup.(3) *. 1e3));
    ("exec.compiled_kwords", per (fun s -> s.ls_kwords));
    ("driver.prep_ms", per (ms (fun t -> t.prep)));
    ("strategy.step_ms", per (ms (fun t -> t.strategy)));
    ("strategy.steps", per (fun s -> fi s.ls_t.t_tr.steps));
    ( "strategy.step_us",
      ratio (tot (ms (fun t -> t.strategy))) (tot (fun s -> fi s.ls_t.t_tr.steps)) *. 1e3 );
    ("evaluator.eval_ms", per (ms (fun t -> t.evaluator)));
    ("evaluator.protocol_cands", per protocol);
    ("evaluator.cands_per_s", ratio (tot protocol) (tot (ms (fun t -> t.evaluator)) /. 1e3));
    ("evaluator.cache_hits", per (st (fun x -> x.Evaluator.s_cache_hits)));
    ("evaluator.cut_evals", per (st (fun x -> x.Evaluator.s_cut_evals)));
    ("evaluator.noop_skips", per (st (fun x -> x.Evaluator.s_noop_skips)));
    ("evaluator.symmetry_skips", per (st (fun x -> x.Evaluator.s_symmetry_skips)));
    ("evaluator.prune_ratio", ratio (tot (st (fun x -> x.Evaluator.s_cut_evals))) (tot protocol));
    ("evaluator.sim_ratio", ratio (tot protocol) (tot (st (fun x -> x.Evaluator.s_suggested))));
    ("exec.cone_replays", cone /. k);
    ("exec.full_replays", full /. k);
    ("exec.cone_ratio", ratio cone (cone +. full));
    ("exec.cut_sims", per (st (fun x -> x.Evaluator.s_cut_sims)));
    ("exec.delta_binds", per (st (fun x -> x.Evaluator.s_delta_binds)));
    ("exec.full_binds", per (st (fun x -> x.Evaluator.s_full_binds)));
    ("engine.post_ms", per (ms (fun t -> t.post)));
    ("engine.other_ms", per (ms (fun t -> t.other)));
    ("engine.trials", per (fun s -> fi s.ls_t.t_trials));
    ( "engine.accept_ratio",
      ratio (tot (fun s -> fi s.ls_t.t_tr.accepted)) (tot (fun s -> fi s.ls_t.t_tr.evals)) );
    ("engine.trials_to_best", per (fun s -> fi s.ls_t.t_tr.best_trial));
    ("engine.time_to_best_ms", per (fun s -> s.ls_t.t_tr.best_at *. 1e3));
    ("driver.final_ms", per (ms (fun t -> t.final)));
    ("trace.overhead_ratio", Stats.median (List.map (fun s -> s.ls_overhead) samples));
  ]

let search_spans id (t : traced) ~setup_start parts =
  let t0, t_prep, t_run, t_end = t.t_marks in
  let tr = t.t_tr in
  span "setup" id ~start:setup_start ~stop:(setup_start +. sum (Array.to_list parts));
  span "search" id ~start:t0 ~stop:t_end
    ~attrs:[ ("trials", Wire.Num (fi t.t_trials)); ("perf_hex", Wire.Str (Printf.sprintf "%h" t.t_perf)) ];
  span "driver.prep" id ~parent:"search" ~start:t0 ~stop:t_prep;
  span "engine.run" id ~parent:"search" ~start:t_prep ~stop:t_run;
  span "driver.final" id ~parent:"search" ~start:t_run ~stop:t_end;
  (* per-trial boundaries, aggregated per search *)
  List.iter
    (fun (name, a) ->
      span name id ~parent:"engine.run" ~start:t_prep ~stop:(t_prep +. a.total)
        ~attrs:
          [ ("count", Wire.Num (fi a.n)); ("total_ms", Wire.Num (a.total *. 1e3));
            ("max_ms", Wire.Num (a.peak *. 1e3)); ("aggregate", Wire.Bool true) ])
    [ ("strategy.step", tr.strategy); ("evaluator.eval", tr.evaluator); ("engine.post", tr.post);
      ("engine.other", tr.other) ]

(* ---- search workloads --------------------------------------------------- *)

type search_wl = {
  sw_name : string;
  sw_spec : string;      (* machine preset, Presets.of_spec *)
  sw_nodes : int;
  sw_apps : string list;
  sw_algo : Driver.algo;
  sw_max_trials : int option;
  sw_seeds : int;  (* seeds per app at the reference size *)
}

(* The work of a run is fixed data: seeds per app (or serve requests) at
   the reference size --seconds 20, the run_seconds BENCHMARK.json
   passes.  That is about 20 s on a 2-core Xeon.  Another --seconds
   scales the counts linearly; [compare] refuses to mix run sizes. *)
let reference_seconds = 20

let sized o ~quick n =
  if o.quick then quick else max quick (int_of_float (Float.round (fi (n * o.seconds) /. fi reference_seconds)))

let search_workloads =
  [
    {
      sw_name = "ccd-lassen"; sw_spec = "lassen"; sw_nodes = 4;
      sw_apps = [ "circuit"; "stencil"; "pennant"; "htr"; "maestro" ];
      sw_algo = Driver.Ccd { rotations = 5 }; sw_max_trials = None; sw_seeds = 12;
    };
    (* 15000 trials rather than a longer walk: still >98% cache hits, and
       short enough that ~20 seeds per app fit in a run, which is what
       keeps the seed-to-seed spread of the medians small *)
    {
      sw_name = "ensemble-lassen"; sw_spec = "lassen"; sw_nodes = 4;
      sw_apps = [ "circuit"; "stencil"; "maestro" ];
      sw_algo = Driver.Ensemble_tuner; sw_max_trials = Some 15_000; sw_seeds = 22;
    };
    {
      sw_name = "ccd-mesh"; sw_spec = "grid:32x32"; sw_nodes = 1;
      sw_apps = [ "stencil"; "circuit" ];
      sw_algo = Driver.Ccd { rotations = 5 }; sw_max_trials = None; sw_seeds = 8;
    };
  ]

let app_of name = match App.find name with Some a -> a | None -> fail "unknown app %s" name

type problem = { machine : Machine.t; graph : Graph.t }

(* Set-up as a user pays it: machine preset, task graph, static
   feasibility gate, simulator compile.  Returns the four part times. *)
let setup ~spec ~nodes ~input app =
  Gc.compact ();
  let t0 = now () in
  let machine = match Presets.of_spec spec ~nodes with Ok m -> m | Error e -> failwith e in
  let t1 = now () in
  let nodes = machine.Machine.nodes in
  let input = match input with Some i -> i | None -> List.hd (app.App.inputs ~nodes) in
  let graph = app.App.graph ~nodes ~input in
  let t2 = now () in
  ignore (Automap_api.check_feasible machine graph);
  let t3 = now () in
  let compiled = Exec.compile machine graph in
  let t4 = now () in
  ( { machine; graph },
    [| t1 -. t0; t2 -. t1; t3 -. t2; t4 -. t3 |],
    fi (Exec.compiled_words compiled) /. 1e3,
    t0 )

(* Default-vs-found perf, measured outside every timed region; memoized
   by mapping key since many seeds find the same mapping. *)
let perf_memo : (string, float) Hashtbl.t = Hashtbl.create 64

let measured ~tag p m =
  let key = tag ^ "|" ^ Mapping.canonical_key m in
  match Hashtbl.find_opt perf_memo key with
  | Some v -> v
  | None ->
      let v = Automap_api.measure_mapping p.machine p.graph m in
      Hashtbl.replace perf_memo key v;
      v

let speedup ~tag p found =
  (match Mapping.validate p.graph p.machine found with
  | Ok () -> ()
  | Error e -> fail "found mapping does not validate: %s" e);
  let d = measured ~tag p (Mapping.default_start p.graph p.machine) in
  let f = measured ~tag p found in
  (* never compare inf with inf: both sides must be real measurements *)
  check (Float.is_finite d && Float.is_finite f && f > 0.0) "non-finite perf (default %g, found %g)" d f;
  d /. f

type search_sample = {
  s_app : string;
  s_setup : float;
  s_wall : float;
  s_speedup : float;
  s_ttb : int;
  s_ttb_s : float;
}

let untraced_search wl p ~seed =
  let last = ref (0, 0.0) in
  let t0 = ref 0.0 in
  let on_event = function
    | Engine.Improve { trial; _ } -> last := (trial, now () -. !t0)
    | _ -> ()
  in
  Gc.compact ();
  t0 := now ();
  let r = Driver.run ~seed ?max_trials:wl.sw_max_trials ~on_event wl.sw_algo p.machine p.graph in
  let wall = now () -. !t0 in
  check (Float.is_finite r.Driver.perf) "non-finite final perf";
  check (r.Driver.evaluated > 0) "zero simulated candidates";
  (r, wall, !last)

let geo_by_app samples f apps =
  Stats.geometric_mean
    (List.map (fun a -> f (List.filter_map (fun s -> if s.s_app = a then Some s else None) samples)) apps)

(* The highest percentile with at least ten samples beyond it, with
   its sample count.  Reported, not gated: a run holds too few samples
   for a tail that repeats across seeds. *)
let tail_json xs =
  let n = List.length xs in
  let fields =
    match tail_percentile n with
    | None -> []
    | Some p ->
        let v = percentile p xs in
        Printf.printf "  tail: p%g = %.4f s over %d samples (%d beyond)\n" p v n (beyond p n);
        [ ("percentile", Wire.Num p); ("value_s", Wire.Num v); ("beyond", Wire.Num (fi (beyond p n))) ]
  in
  Wire.Obj (("samples", Wire.Num (fi n)) :: fields)

let run_search_wl o tl wl =
  let apps = List.map app_of wl.sw_apps in
  let n = sized o ~quick:1 wl.sw_seeds in
  let jobs = List.concat_map (fun k -> List.map (fun a -> (o.seed + k, a)) apps) (List.init n Fun.id) in
  let tag a = wl.sw_name ^ "/" ^ a.App.app_name in
  Printf.printf "%s: %d seeds x %d apps, %s%s\n%!" wl.sw_name n (List.length apps)
    (Driver.algo_name wl.sw_algo)
    (match wl.sw_max_trials with Some t -> Printf.sprintf ", %d trials" t | None -> "");
  if not o.trace then begin
    let samples =
      List.filter_map
        (fun (seed, app) ->
          attempt tl (Printf.sprintf "%s seed %d" (tag app) seed) (fun () ->
              let p, parts, _, _ = setup ~spec:wl.sw_spec ~nodes:wl.sw_nodes ~input:None app in
              let r, wall, (ttb, ttb_s) = untraced_search wl p ~seed in
              {
                s_app = app.App.app_name; s_setup = sum (Array.to_list parts); s_wall = wall;
                s_speedup = speedup ~tag:(tag app) p r.Driver.best; s_ttb = ttb; s_ttb_s = ttb_s;
              }))
        jobs
    in
    let names = List.map (fun a -> a.App.app_name) apps in
    let med f ss = Stats.median (List.map f ss) in
    let metrics =
      [
        ("setup_s", geo_by_app samples (med (fun s -> s.s_setup)) names);
        ("latency_p50_s", geo_by_app samples (med (fun s -> s.s_wall)) names);
        ( "throughput_per_s",
          geo_by_app samples (fun ss -> fi (List.length ss) /. sum (List.map (fun s -> s.s_wall) ss)) names );
        ("speedup_vs_default", Stats.geometric_mean (List.map (fun s -> s.s_speedup) samples));
        ("peak_rss_mb", peak_rss_mb ());
      ]
    in
    let per_app =
      List.map
        (fun a ->
          let ss = List.filter (fun s -> s.s_app = a) samples in
          Printf.printf "  %-8s n=%-3d setup %8.3f ms  search p50 %8.3f s  speedup %.4f  trials_to_best p50 %g\n"
            a (List.length ss) (med (fun s -> s.s_setup) ss *. 1e3) (med (fun s -> s.s_wall) ss)
            (Stats.geometric_mean (List.map (fun s -> s.s_speedup) ss))
            (med (fun s -> fi s.s_ttb) ss);
          ( a,
            Wire.Obj
              [
                ("searches", Wire.Num (fi (List.length ss)));
                ("setup_ms_p50", Wire.Num (med (fun s -> s.s_setup) ss *. 1e3));
                ("search_s_p50", Wire.Num (med (fun s -> s.s_wall) ss));
                ("speedup_geomean", Wire.Num (Stats.geometric_mean (List.map (fun s -> s.s_speedup) ss)));
                ("trials_to_best_p50", Wire.Num (med (fun s -> fi s.s_ttb) ss));
                ("time_to_best_s_p50", Wire.Num (med (fun s -> s.s_ttb_s) ss));
              ] ))
        names
    in
    ( metrics,
      [ ("seeds_per_app", Wire.Num (fi n)); ("search_tail", tail_json (List.map (fun s -> s.s_wall) samples));
        ("apps", Wire.Obj per_app) ] )
  end
  else begin
    (* half the seeds, each searched twice: untraced, then rebuilt *)
    let n_t = if o.quick then 1 else max 1 (n / 2) in
    let jobs = List.filter (fun (s, _) -> s < o.seed + n_t) jobs in
    let samples =
      List.filter_map
        (fun (seed, app) ->
          let id = Printf.sprintf "%s/s%d" (tag app) seed in
          attempt tl id (fun () ->
              let p, parts, kwords, setup_start =
                setup ~spec:wl.sw_spec ~nodes:wl.sw_nodes ~input:None app
              in
              let r, wall, _ = untraced_search wl p ~seed in
              let t =
                traced_search ~seed ?max_trials:wl.sw_max_trials ~batch:false
                  ~min_batch:Descent.default_min_batch wl.sw_algo p.machine p.graph
              in
              check
                (Mapping.canonical_key t.t_best = Mapping.canonical_key r.Driver.best
                && Printf.sprintf "%h" t.t_perf = Printf.sprintf "%h" r.Driver.perf)
                "traced rebuild is not decision-identical to Driver.run (%h vs %h)" t.t_perf
                r.Driver.perf;
              ignore (speedup ~tag:(tag app) p t.t_best);
              search_spans id t ~setup_start parts;
              { ls_setup = parts; ls_kwords = kwords; ls_t = t; ls_overhead = t.t_wall /. wall }))
        jobs
    in
    check (samples <> []) "no traced search succeeded";
    (layer_metrics samples, [ ("traced_searches", Wire.Num (fi (List.length samples))) ])
  end

(* ---- serve-mix ---------------------------------------------------------- *)

type pair = { p_app : string; p_nodes : int; p_input : string }

(* The server's slice size: a map job runs as a chain of searches of
   this many trials, each resumed from the previous one's checkpoint. *)
let slice_trials = 40

(* 5 apps x nodes {2,4} x first two inputs on lassen: 20 (machine,
   graph) pairs, inside the server's 32-entry compile LRU.  Listed app
   by app within each (nodes, input) step, so dealing them in order
   interleaves light and heavy searches. *)
let serve_pairs =
  List.concat_map
    (fun nodes ->
      List.concat_map
        (fun i ->
          List.map
            (fun name ->
              { p_app = name; p_nodes = nodes; p_input = List.nth ((app_of name).App.inputs ~nodes) i })
            [ "circuit"; "stencil"; "pennant"; "htr"; "maestro" ])
        [ 0; 1 ])
    [ 2; 4 ]
  |> Array.of_list

let workload_of p =
  { Wire.default_workload with Wire.w_app = Some p.p_app; w_input = Some p.p_input; w_nodes = p.p_nodes; w_cluster = "lassen" }

let pair_name p = Printf.sprintf "%s/n%d/%s" p.p_app p.p_nodes p.p_input

(* A served map answer, kept for memo repeats, quality and rebuilds. *)
type answer = {
  a_pair : pair;
  a_seed : int;
  a_mapping : string;
  a_perf : float;
  a_perf_hex : string;
  a_warm : string option;  (* incumbent key the job was warm-started from *)
}

type kind = K_analyze of pair | K_map of pair * int | K_repeat of answer

let kind_name = function K_analyze _ -> "analyze" | K_map _ -> "map" | K_repeat _ -> "repeat"

(* The request stream is a fixed, synthetic traffic pattern: blocks of
   ten lines — six new maps, three exact repeats, one analyze — with
   pairs dealt round-robin from [serve_pairs].  No measurement or
   recorded daemon traffic stands behind these proportions, so serve-mix
   numbers alone do not justify serve-path code.  The seed picks every
   map's search seed and which finished map a repeat reads; the mix
   itself does not move with the seed, so runs at different seeds
   measure the same traffic.  Each block opens with four maps, so a
   repeat always finds a finished map to read. *)
let block = [| `M; `M; `M; `M; `R; `A; `R; `M; `M; `R |]

type gen = {
  rng : Rng.t;
  mutable next : int;
  mutable maps : int;
  mutable analyses : int;
  mutable finished : answer array;
  seed_base : int;
}

let make_gen ~seed =
  { rng = Rng.create (0x5e7e + seed); next = 0; maps = 0; analyses = 0; finished = [||]; seed_base = seed * 1000 }

let next_kind g =
  let k = block.(g.next mod Array.length block) in
  g.next <- g.next + 1;
  let deal i = serve_pairs.(i mod Array.length serve_pairs) in
  match k with
  | `A ->
      g.analyses <- g.analyses + 1;
      K_analyze (deal (g.analyses - 1))
  | `M ->
      g.maps <- g.maps + 1;
      K_map (deal (g.maps - 1), g.seed_base + g.maps)
  | `R ->
      check (Array.length g.finished > 0) "repeat with no finished map";
      K_repeat g.finished.(Rng.int g.rng (Array.length g.finished))

let line_of id = function
  | K_analyze p -> Wire.request_to_string (Wire.Analyze { an_id = id; workload = workload_of p })
  | K_map (p, seed) | K_repeat { a_pair = p; a_seed = seed; _ } ->
      Wire.request_to_string
        (Wire.Map
           { m_id = id; workload = workload_of p; cfg = { Slice.default_cfg with Slice.seed };
             wait = false; warm = true })

(* Per-call timings of the traced replay. *)
type serve_layers = {
  mutable parse : float list;
  mutable handle : (string * float) list;  (* by request kind *)
  mutable print_memo : float list;
  mutable slices : float list;
  mutable per_map : (float * float * int) list;  (* service s, wait s, slices *)
}

type client = {
  c_id : string;
  c_kind : kind;
  c_t0 : float;
  c_warm : string option;
  mutable c_trials : int;
  mutable c_state : Wire.job_state;
  mutable c_service : float;
  mutable c_slices : int;
}

type stream = {
  st_latency : (kind * float) list;    (* seconds *)
  st_answers : string list;            (* printed answers, completion order *)
  st_maps : answer list;               (* searched (non-memo) maps *)
  st_wall : float;
}

let valid_result (p : Wire.result_payload) =
  p.Wire.r_state = Wire.Done
  && (match p.Wire.r_perf with Some f -> Float.is_finite f | None -> false)
  && p.Wire.r_mapping <> None && p.Wire.r_perf_hex <> None

(* Closed loop: 4 logical clients, each sending its next line when its
   answer arrives.  One thread: immediate answers complete inline; for
   accepted maps the loop runs one slice (Server.step) and polls every
   waiting job, exactly as the daemon's waiter flush does.  Everything
   is ordered by completion, never by timing, so the stream — and every
   answer — is a function of the seed. *)
let run_stream ?layers tl ~seed n =
  let srv = Server.create ~slice_trials () in
  let g = make_gen ~seed in
  let incumbents : (string, string * float) Hashtbl.t = Hashtbl.create 32 in
  let clients = Array.make (min 4 n) None in
  let latency = ref [] and answers = ref [] and maps = ref [] in
  let sent = ref 0 in
  let clock f =
    let t = now () in
    let r = f () in
    (r, now () -. t)
  in
  let print resp ~memo =
    let s, dt = clock (fun () -> Wire.response_to_string resp) in
    (match layers with Some l when memo -> l.print_memo <- dt :: l.print_memo | _ -> ());
    s
  in
  let finish kind id t0 resp ~memo =
    let text = print resp ~memo in
    let lat = now () -. t0 in
    latency := (kind, lat) :: !latency;
    answers := (id ^ " " ^ text) :: !answers;
    match layers with
    | Some _ -> span "request" id ~start:t0 ~stop:(t0 +. lat) ~attrs:[ ("kind", Wire.Str (kind_name kind)) ]
    | None -> ()
  in
  let on_answer id kind warm resp =
    match (kind, resp) with
    | K_analyze _, Wire.R_analysis { report; _ } -> check (report <> []) "%s: empty analysis" id
    | K_repeat orig, Wire.R_result p ->
        check (p.Wire.r_cached && valid_result p) "%s: repeat not answered from the memo" id;
        check
          (p.Wire.r_mapping = Some orig.a_mapping && p.Wire.r_perf_hex = Some orig.a_perf_hex)
          "%s: memo answer is not bit-equal to the original" id
    | K_map (pair, seed), Wire.R_result p ->
        check ((not p.Wire.r_cached) && valid_result p) "%s: map failed or not searched" id;
        check (p.Wire.r_warm_started = (warm <> None)) "%s: warm start differs from the incumbent table" id;
        let a =
          {
            a_pair = pair; a_seed = seed; a_mapping = Option.get p.Wire.r_mapping;
            a_perf = Option.get p.Wire.r_perf; a_perf_hex = Option.get p.Wire.r_perf_hex; a_warm = warm;
          }
        in
        maps := a :: !maps;
        g.finished <- Array.append g.finished [| a |];
        (* the server's incumbent rule: replace unless the held one is no slower *)
        let key = pair_name pair in
        (match Hashtbl.find_opt incumbents key with
        | Some (_, perf) when perf <= a.a_perf -> ()
        | _ -> Hashtbl.replace incumbents key (a.a_mapping, a.a_perf))
    | _, Wire.R_error { message; _ } -> fail "%s: error response: %s" id message
    | _ -> fail "%s: unexpected response" id
  in
  let rec send c =
    if !sent < n then begin
      incr sent;
      let id = Printf.sprintf "r%d" !sent in
      let kind = next_kind g in
      let warm =
        match kind with
        | K_map (p, _) -> Option.map fst (Hashtbl.find_opt incumbents (pair_name p))
        | _ -> None
      in
      let line = line_of id kind in
      let t0 = now () in
      let resp =
        match layers with
        | None -> Server.handle_line srv line
        | Some l ->
            let req, dp = clock (fun () -> Wire.request_of_string line) in
            l.parse <- dp :: l.parse;
            let req = match req with Ok r -> r | Error e -> fail "%s: %s" id e in
            let resp, dh = clock (fun () -> Server.handle srv req) in
            let hk =
              match (kind, resp) with
              | K_analyze _, _ -> "analyze"
              | _, Wire.R_accepted _ -> "map_submit"
              | _ -> "map_memo"
            in
            l.handle <- (hk, dh) :: l.handle;
            resp
      in
      match resp with
      | Wire.R_accepted _ ->
          clients.(c) <-
            Some
              { c_id = id; c_kind = kind; c_t0 = t0; c_warm = warm; c_trials = 0; c_state = Wire.Queued;
                c_service = 0.0; c_slices = 0 }
      | resp ->
          ignore
            (attempt tl id (fun () ->
                 let memo = match kind with K_repeat _ -> true | _ -> false in
                 finish kind id t0 resp ~memo;
                 on_answer id kind None resp));
          send c
    end
  in
  let t_start = now () in
  Array.iteri (fun c _ -> send c) clients;
  while Array.exists Option.is_some clients do
    let t_step = now () in
    let ran = Server.step srv in
    let dt = now () -. t_step in
    check ran "server queue empty while clients wait";
    let served = ref false in
    Array.iteri
      (fun c slot ->
        match slot with
        | None -> ()
        | Some cl ->
            let resp, dh = clock (fun () -> Server.handle srv (Wire.Poll { p_id = cl.c_id })) in
            (match layers with Some l -> l.handle <- ("poll", dh) :: l.handle | None -> ());
            (match resp with
            | Wire.R_result p when (p.Wire.r_trials <> cl.c_trials || p.Wire.r_state <> cl.c_state) && not !served ->
                (* one slice ran; it belongs to the job whose progress moved *)
                served := true;
                cl.c_service <- cl.c_service +. dt;
                cl.c_slices <- cl.c_slices + 1;
                cl.c_trials <- p.Wire.r_trials;
                cl.c_state <- p.Wire.r_state;
                (match layers with
                | Some l ->
                    l.slices <- dt :: l.slices;
                    span "server.step" cl.c_id ~parent:"request" ~start:t_step ~stop:(t_step +. dt)
                | None -> ())
            | _ -> ());
            match resp with
            | Wire.R_result p when p.Wire.r_state = Wire.Done || p.Wire.r_state = Wire.Failed ->
                clients.(c) <- None;
                ignore
                  (attempt tl cl.c_id (fun () ->
                       finish cl.c_kind cl.c_id cl.c_t0 resp ~memo:false;
                       (match layers with
                       | Some l ->
                           let lat = now () -. cl.c_t0 in
                           l.per_map <- (cl.c_service, lat -. cl.c_service, cl.c_slices) :: l.per_map
                       | None -> ());
                       on_answer cl.c_id cl.c_kind cl.c_warm resp));
                send c
            | _ -> ())
      clients
  done;
  {
    st_latency = List.rev !latency;
    st_answers = List.rev !answers;
    st_maps = List.rev !maps;
    st_wall = now () -. t_start;
  }

let serve_problem =
  let memo = Hashtbl.create 32 in
  fun p ->
    match Hashtbl.find_opt memo p with
    | Some x -> x
    | None ->
        let pr, _, _, _ = setup ~spec:"lassen" ~nodes:p.p_nodes ~input:(Some p.p_input) (app_of p.p_app) in
        Hashtbl.replace memo p pr;
        pr

(* A served map job replayed as the server runs it, slice by slice. *)
let replay_sliced ?warm cfg p =
  let rec go = function
    | Slice.Finished f -> f
    | Slice.Paused pr -> (
        match Slice.resume ~slice_trials cfg p.machine p.graph ~ckpt:pr.Slice.ckpt with
        | Ok (s, _) -> go s
        | Error e -> fail "slice resume: %s" e)
  in
  go (fst (Slice.start ?warm_start:warm ~slice_trials cfg p.machine p.graph))

let serve_requests = 133  (* at the reference size *)

let run_serve o tl =
  let n = sized o ~quick:20 serve_requests in
  if not o.trace then begin
    Printf.printf "serve-mix: %d requests, 4 clients, %d-trial slices\n%!" n slice_trials;
    (* set-up: a fresh server and its first (cold) analyze line *)
    let setup_apps = [ "circuit"; "stencil"; "pennant"; "htr"; "maestro" ] in
    let setup_samples =
      List.map
        (fun name ->
          let workload =
            { Wire.default_workload with Wire.w_app = Some name; w_nodes = 4; w_cluster = "lassen" }
          in
          let line = Wire.request_to_string (Wire.Analyze { an_id = "setup"; workload }) in
          Stats.median
            (List.init 30 (fun _ ->
                 let resp, dt = timed (fun () -> Server.handle_line (Server.create ()) line) in
                 (match resp with
                 | Wire.R_analysis _ -> ()
                 | _ -> fail "set-up analyze of %s failed" name);
                 dt)))
        setup_apps
    in
    let st = run_stream tl ~seed:o.seed n in
    let lat = List.map snd st.st_latency in
    check (lat <> []) "no request completed";
    (* per (machine, graph) pair, like the search workloads' per-app
       medians: the median over all requests sits where the fast maps
       meet the heavy ones and jumps with the seed *)
    let map_latency =
      Array.to_list serve_pairs
      |> List.filter_map (fun p ->
             match List.filter_map (function K_map (q, _), l when q = p -> Some l | _ -> None) st.st_latency with
             | [] -> None
             | ls -> Some (Stats.median ls))
    in
    let speedups =
      List.filter_map
        (fun a ->
          attempt tl ("quality " ^ pair_name a.a_pair) (fun () ->
              let p = serve_problem a.a_pair in
              match Mapping.of_canonical_key p.graph a.a_mapping with
              | Some m -> speedup ~tag:("serve/" ^ pair_name a.a_pair) p m
              | None -> fail "answer mapping does not parse"))
        st.st_maps
    in
    let by k = List.filter_map (fun (k', l) -> if k = kind_name k' then Some l else None) st.st_latency in
    let metrics =
      [
        ("setup_s", Stats.geometric_mean setup_samples);
        ("latency_p50_s", Stats.geometric_mean map_latency);
        ("throughput_per_s", fi (List.length lat) /. st.st_wall);
        ("speedup_vs_default", Stats.geometric_mean speedups);
        ("peak_rss_mb", peak_rss_mb ());
      ]
    in
    Printf.printf "  %d requests in %.2f s, median %.4f s\n" (List.length lat) st.st_wall (Stats.median lat);
    let tail = tail_json lat in
    let kinds =
      List.filter_map
        (fun k ->
          match by k with
          | [] -> None
          | ls ->
              Printf.printf "  %-8s n=%-4d p50 %9.3f ms\n" k (List.length ls) (Stats.median ls *. 1e3);
              Some (k, Wire.Obj [ ("n", Wire.Num (fi (List.length ls))); ("p50_s", Wire.Num (Stats.median ls)) ]))
        [ "analyze"; "repeat"; "map" ]
    in
    ( metrics,
      [ ("requests", Wire.Num (fi n)); ("request_p50_s", Wire.Num (Stats.median lat)); ("request_tail", tail);
        ("by_kind", Wire.Obj kinds) ] )
  end
  else begin
    (* the first third of the stream, replayed plain then traced; the
       traced replay's answers must be identical.  Every search it ran
       is replayed slice by slice, which must reproduce the served answer
       bit-exactly, and rebuilt unsliced with clocks, which must take the
       same search *)
    let n_t = if o.quick then 10 else max 10 (n / 3) in
    Printf.printf "serve-mix trace: %d requests replayed twice, searches rebuilt\n%!" n_t;
    let plain = run_stream tl ~seed:o.seed n_t in
    let l = { parse = []; handle = []; print_memo = []; slices = []; per_map = [] } in
    let traced = run_stream ~layers:l tl ~seed:o.seed n_t in
    ignore
      (attempt tl "serve replay" (fun () ->
           check (plain.st_answers = traced.st_answers) "traced answers differ from the plain replay"));
    let samples =
      List.filter_map
        (fun a ->
          let id = Printf.sprintf "serve/%s/s%d" (pair_name a.a_pair) a.a_seed in
          attempt tl id (fun () ->
              let p, parts, kwords, setup_start =
                setup ~spec:"lassen" ~nodes:a.a_pair.p_nodes ~input:(Some a.a_pair.p_input)
                  (app_of a.a_pair.p_app)
              in
              let warm =
                Option.map
                  (fun k ->
                    match Mapping.of_canonical_key p.graph k with
                    | Some m -> m
                    | None -> fail "incumbent key does not parse")
                  a.a_warm
              in
              let cfg = { Slice.default_cfg with Slice.seed = a.a_seed } in
              let served = replay_sliced ?warm cfg p in
              check
                (Mapping.canonical_key served.Slice.best = a.a_mapping
                && Printf.sprintf "%h" served.Slice.perf = a.a_perf_hex)
                "sliced replay differs from the served answer";
              let t =
                traced_search ~seed:a.a_seed ~batch:cfg.Slice.batch ~min_batch:cfg.Slice.min_batch ?warm
                  cfg.Slice.algo p.machine p.graph
              in
              (* Slicing keeps every search decision, but not always the
                 final protocol's pick: that reads the profiles database a
                 checkpoint rebuilds.  So the unsliced rebuild is held to
                 the served job's search, not to its final answer. *)
              let best, perf = t.t_search in
              check
                (t.t_trials = served.Slice.trials
                && Mapping.canonical_key best = Mapping.canonical_key served.Slice.search_best
                && Printf.sprintf "%h" perf = Printf.sprintf "%h" served.Slice.search_perf)
                "traced rebuild takes another search than the served job";
              search_spans id t ~setup_start parts;
              { ls_setup = parts; ls_kwords = kwords; ls_t = t; ls_overhead = traced.st_wall /. plain.st_wall }))
        traced.st_maps
    in
    check (samples <> []) "no served search could be rebuilt";
    let med xs = if xs = [] then 0.0 else Stats.median xs in
    let handle_us k = med (List.filter_map (fun (k', d) -> if k = k' then Some d else None) l.handle) *. 1e6 in
    let serve_layers =
      [
        ("wire.parse_us", med l.parse *. 1e6);
        ("wire.print_us", med l.print_memo *. 1e6);
        ("server.handle_us.map_submit", handle_us "map_submit");
        ("server.handle_us.map_memo", handle_us "map_memo");
        ("server.handle_us.analyze", handle_us "analyze");
        ("server.handle_us.poll", handle_us "poll");
        ("server.slice_ms", med l.slices *. 1e3);
        ("server.slices_per_req", mean (List.map (fun (_, _, s) -> fi s) l.per_map));
        ("server.service_s", med (List.map (fun (s, _, _) -> s) l.per_map));
        ("server.wait_s", med (List.map (fun (_, w, _) -> w) l.per_map));
      ]
    in
    List.iter (fun (k, v) -> Printf.printf "  %-28s %12.3f\n" k v) serve_layers;
    ( layer_metrics samples,
      [
        ("traced_requests", Wire.Num (fi n_t));
        ("rebuilt_searches", Wire.Num (fi (List.length samples)));
        ("serve_layers", Wire.Obj (List.map (fun (k, v) -> (k, Wire.Num v)) serve_layers));
      ] )
  end

(* ---- one workload, in this process -------------------------------------- *)

let workload_names = List.map (fun w -> w.sw_name) search_workloads @ [ "serve-mix" ]

let metric_json catalog values =
  Wire.Obj
    (List.map
       (fun mt ->
         (mt.name, Wire.Obj [ ("value", Wire.Num (List.assoc mt.name values)); ("unit", Wire.Str mt.unit_) ]))
       catalog)

let run_one o name =
  let tl = { attempted = 0; failures = [] } in
  let metrics, detail =
    match List.find_opt (fun w -> w.sw_name = name) search_workloads with
    | Some wl -> run_search_wl o tl wl
    | None when name = "serve-mix" -> run_serve o tl
    | None -> Printf.eprintf "e2e: unknown workload %S (one of %s)\n" name (String.concat ", " workload_names); exit 2
  in
  let catalog = if o.trace then per_layer else end_to_end in
  List.iter
    (fun mt ->
      let v = List.assoc mt.name metrics in
      if not (Float.is_finite v) then tl.failures <- Printf.sprintf "metric %s is not finite" mt.name :: tl.failures;
      Printf.printf "  %-28s %14.6g %s\n" mt.name v mt.unit_)
    catalog;
  let failed = List.length tl.failures in
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) (List.rev tl.failures);
  let result =
    Wire.Obj
      [
        ("correct", Wire.Bool (failed = 0));
        ("attempted", Wire.Num (fi tl.attempted));
        ("failed", Wire.Num (fi failed));
        ("metrics", metric_json catalog metrics);
      ]
  in
  (result, Wire.Obj (("failures", Wire.Arr (List.map (fun s -> Wire.Str s) tl.failures)) :: detail))

let host () =
  let cpus =
    try
      let ic = open_in "/proc/cpuinfo" in
      let rec go n model =
        match input_line ic with
        | l when String.length l > 10 && String.sub l 0 10 = "model name" ->
            go n (String.trim (List.nth (String.split_on_char ':' l) 1))
        | l when String.length l > 9 && String.sub l 0 9 = "processor" -> go (n + 1) model
        | _ -> go n model
        | exception End_of_file -> close_in ic; (n, model)
      in
      go 0 "unknown"
    with Sys_error _ -> (0, "unknown")
  in
  [ ("nproc", Wire.Num (fi (fst cpus))); ("cpu", Wire.Str (snd cpus)) ]

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let record o workloads =
  Wire.Obj
    ([ ("bench", Wire.Str "e2e"); ("seed", Wire.Num (fi o.seed)); ("seconds", Wire.Num (fi o.seconds));
       ("trace", Wire.Bool o.trace); ("quick", Wire.Bool o.quick) ]
    @ host ()
    @ [ ("workloads", Wire.Obj workloads) ])

let run_single o name =
  let result, detail = run_one o name in
  write_file o.out (Wire.to_string (record o [ (name, Wire.Obj [ ("result", result); ("detail", detail) ]) ]) ^ "\n");
  if o.trace then
    write_file o.trace_out
      (String.concat "" (List.rev_map (fun s -> Wire.to_string (span_json s) ^ "\n") !spans));
  print_endline (Wire.to_string result);
  match field "correct" result with Some (Wire.Bool true) -> exit 0 | _ -> exit 1

(* Every workload in its own child process, one after another, so each
   reports its own peak memory. *)
let run_all o =
  let parts =
    List.map
      (fun name ->
        let out = Printf.sprintf "BENCH_e2e.%s.json" name in
        let tout = Printf.sprintf "BENCH_e2e_trace.%s.jsonl" name in
        let args =
          [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed; "--seconds";
            string_of_int o.seconds; "--trace"; (if o.trace then "1" else "0"); "--out"; out;
            "--trace-out"; tout ]
          @ if o.quick then [ "--quick" ] else []
        in
        let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
        let _, status = Unix.waitpid [] pid in
        let json = try Some (read_json out) with Sys_error _ | Failure _ -> None in
        let trace = if o.trace && Sys.file_exists tout then In_channel.with_open_bin tout In_channel.input_all else "" in
        List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ out; tout ];
        let entry =
          match Option.bind json (field "workloads") with
          | Some (Wire.Obj [ (_, e) ]) -> e
          | _ -> Wire.Obj [ ("result", Wire.Obj [ ("correct", Wire.Bool false) ]) ]
        in
        (name, entry, status = Unix.WEXITED 0, trace))
      workload_names
  in
  write_file o.out (Wire.to_string (record o (List.map (fun (n, e, _, _) -> (n, e)) parts)) ^ "\n");
  if o.trace then write_file o.trace_out (String.concat "" (List.map (fun (_, _, _, t) -> t) parts));
  let ok = List.for_all (fun (_, _, ok, _) -> ok) parts in
  Printf.printf "wrote %s\n" o.out;
  print_endline
    (Wire.to_string
       (Wire.Obj
          [ ("correct", Wire.Bool ok);
            ("workloads", Wire.Arr (List.map (fun (n, _, ok, _) -> Wire.Obj [ ("name", Wire.Str n); ("correct", Wire.Bool ok) ]) parts)) ]));
  exit (if ok then 0 else 1)

(* ---- compare ------------------------------------------------------------ *)

let compare_cmd args =
  let rec split agree bench a = function
    | "--agree" :: rest -> split true bench a rest
    | "--bench" :: f :: rest -> split agree f a rest
    | "--" :: rest -> (agree, bench, List.rev a, rest)
    | f :: rest -> split agree bench (f :: a) rest
    | [] -> usage ()
  in
  let agree_mode, bench, a_files, b_files = split false "BENCHMARK.json" [] args in
  if a_files = [] || b_files = [] then usage ();
  let e2e, layers = benchmark_metrics (read_json bench) in
  let load = List.map (fun f -> run_file_of_json ~name:f (read_json f)) in
  let rows =
    try compare_runs ~agree:agree_mode ~metrics:(e2e @ layers) (load a_files) (load b_files)
    with Failure e -> prerr_endline e; exit 2
  in
  let cols = function
    | Some (q1, med, q3) -> Printf.sprintf "%12.6g %12.6g %12.6g" q1 med q3
    | None -> Printf.sprintf "%12s %12s %12s" "-" "-" "-"
  in
  Printf.printf "%-16s %-28s %12s %12s %12s   %12s %12s %12s  %s\n" "workload" "metric" "A q1" "A med" "A q3"
    "B q1" "B med" "B q3" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-16s %-28s %s   %s  %s%s\n" r.row_workload r.row_metric (cols r.row_a) (cols r.row_b)
        r.row_verdict (if r.row_bad then "  <-" else ""))
    rows;
  exit (if List.exists (fun r -> r.row_bad) rows then 1 else 0)

(* ---- entry -------------------------------------------------------------- *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> compare_cmd rest
  | args ->
      let o = parse_opts args in
      (* these switches change the program being measured *)
      (match
         List.filter
           (fun kv -> String.length kv > 11 && String.sub kv 0 11 = "AUTOMAP_NO_")
           (Array.to_list (Unix.environment ()))
       with
      | [] -> ()
      | set ->
          Printf.eprintf "e2e: refusing to run with %s set\n" (String.concat ", " set);
          exit 2);
      match o.workload with Some w -> run_single o w | None -> run_all o
