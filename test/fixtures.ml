(* Shared graph fixtures, simulation helpers and temp directories for the
   test suite. *)

let mb = 1e6

(* producer -> consumer over one array; consumer also reads an input. *)
let pipeline ?(iterations = 1) ?(group_size = 2) () =
  let b = Graph.Builder.create ~iterations ~name:"pipeline" () in
  let t1 =
    Graph.Builder.add_task b ~name:"produce" ~group_size
      ~variants:[ Kinds.Cpu; Kinds.Gpu ] ~flops:1e6 ()
  in
  let out = Graph.Builder.add_arg b ~task:t1 ~name:"produce.data" ~bytes:mb ~mode:Mode.Write in
  let t2 =
    Graph.Builder.add_task b ~name:"consume" ~group_size
      ~variants:[ Kinds.Cpu; Kinds.Gpu ] ~flops:1e6 ()
  in
  let inp = Graph.Builder.add_arg b ~task:t2 ~name:"consume.data" ~bytes:mb ~mode:Mode.Read in
  let aux = Graph.Builder.add_arg b ~task:t2 ~name:"consume.aux" ~bytes:(mb /. 2.0) ~mode:Mode.Read in
  Graph.Builder.add_dep b ~src:out ~dst:inp;
  Graph.Builder.add_overlap b out inp ~bytes:mb;
  ignore aux;
  (Graph.Builder.build b, t1, t2, out, inp)

(* Three tasks sharing one array with halo exchange plus a private array
   each; overlap edges of different weights for pruning tests. *)
let shared_halo ?(iterations = 2) ?(group_size = 4) () =
  let b = Graph.Builder.create ~iterations ~name:"shared_halo" () in
  let add_task name flops =
    Graph.Builder.add_task b ~name ~group_size ~variants:[ Kinds.Cpu; Kinds.Gpu ]
      ~flops ()
  in
  let t1 = add_task "writer" 2e6 in
  let w = Graph.Builder.add_arg b ~task:t1 ~name:"writer.state" ~bytes:(4.0 *. mb) ~mode:Mode.Write in
  let t2 = add_task "reader_a" 1e6 in
  let ra = Graph.Builder.add_arg b ~task:t2 ~name:"reader_a.state" ~bytes:(4.0 *. mb) ~mode:Mode.Read in
  let rpriv = Graph.Builder.add_arg b ~task:t2 ~name:"reader_a.priv" ~bytes:mb ~mode:Mode.Read_write in
  let t3 = add_task "reader_b" 1e6 in
  let rb = Graph.Builder.add_arg b ~task:t3 ~name:"reader_b.state" ~bytes:(4.0 *. mb) ~mode:Mode.Read in
  Graph.Builder.add_dep b ~src:w ~dst:ra ~pattern:(Pattern.halo ~frac:0.1);
  Graph.Builder.add_dep b ~src:w ~dst:rb;
  Graph.Builder.add_overlap b w ra ~bytes:(4.0 *. mb);
  Graph.Builder.add_overlap b w rb ~bytes:(2.0 *. mb);
  Graph.Builder.add_overlap b ra rb ~bytes:mb;
  (Graph.Builder.build b, (t1, t2, t3), (w, ra, rpriv, rb))

(* GPU-only task graph (no CPU variants) for constraint tests. *)
let gpu_only ?(group_size = 2) () =
  let b = Graph.Builder.create ~name:"gpu_only" () in
  let t = Graph.Builder.add_task b ~name:"kernel" ~group_size ~variants:[ Kinds.Gpu ] ~flops:1e6 () in
  let c = Graph.Builder.add_arg b ~task:t ~name:"kernel.buf" ~bytes:mb ~mode:Mode.Read_write in
  (Graph.Builder.build b, t, c)

(* One big array exceeding the testbed FB capacity (1 GB/GPU): 1.5 GB
   per shard with the defaults, which fits the 2 GB ZC pool. *)
let oversized ?(bytes = 3e9) ?(group_size = 2) () =
  let b = Graph.Builder.create ~name:"oversized" () in
  let t = Graph.Builder.add_task b ~name:"big" ~group_size ~variants:[ Kinds.Gpu; Kinds.Cpu ] ~flops:1e6 () in
  let c =
    Graph.Builder.add_arg b ~task:t ~name:"big.data"
      ~bytes:(bytes /. float_of_int group_size)
      ~mode:Mode.Read_write
  in
  (Graph.Builder.build b, t, c)

(* Two tasks and no collection, parsed as the CLI and the serve
   daemon's inline graphs receive it: a mapping of it has no memory
   coordinate at all. *)
let no_collections () =
  Result.get_ok
    (Graph_codec.of_string
       "graph solo iterations=2\n\
        task first group=2 variants=CPU,GPU flops=1e6\n\
        task second group=2 variants=CPU,GPU flops=2e6\n")

let default_machine () = Presets.testbed ~nodes:2

(* [Exec.simulate_bounded] through the quiet interface, with the same
   defaults: the search's hot path, read back as an outcome.  Unlike
   the record API a quiet run adds its seed to the scratch's noise
   table, so a reused scratch reads (and extends) the cached stream. *)
let quiet_simulate ?(noise_sigma = 0.03) ?(seed = 0) ?(fallback = false) ?iterations
    ?(cutoff = infinity) sc mapping =
  let iterations =
    match iterations with
    | Some i -> i
    | None -> (Exec.compiled_graph (Exec.compiled_of_scratch sc)).Graph.iterations
  in
  let st = Exec.simulate_quiet sc mapping ~noise_sigma ~seed ~fallback ~iterations ~cutoff in
  if st = Exec.st_finished then Ok (Exec.Finished (Exec.quiet_result sc))
  else if st = Exec.st_cut then Ok (Exec.Cut (Exec.quiet_cut_time sc))
  else Error (Option.get (Exec.quiet_error sc))

(* The same for an uncut run. *)
let quiet_run ?noise_sigma ?seed ?fallback ?iterations sc mapping =
  match quiet_simulate ?noise_sigma ?seed ?fallback ?iterations sc mapping with
  | Ok (Exec.Finished r) -> Ok r
  | Ok (Exec.Cut _) -> assert false
  | Error e -> Error e

(* An empty directory of its own under the temp dir, for a server's
   state: [prefix], the process and a counter name it. *)
let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !n)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
    else Unix.mkdir d 0o755;
    d

(* Remove a [fresh_dir] directory and the files in it, if it is still
   there. *)
let remove_dir d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

(* For a measurement's objective, which runs on whichever domain ran
   the run: [note_domain w] records that the calling domain (the one
   that made [w]) or another one has arrived, and the first call waits
   (about two seconds at most) until both have; later calls return at
   once.  A spawned domain can take a while to start, or share its
   parent's CPU and run every chunk before the parent takes one;
   without the wait, either domain could run them all.  A measurement
   that never leaves the calling domain waits once, not once a run.
   Allocates nothing. *)
type worker_wait = {
  main : int;
  main_in : bool Atomic.t;
  other_in : bool Atomic.t;
  waited : bool Atomic.t;
}

let worker_wait () =
  {
    main = (Domain.self () :> int);
    main_in = Atomic.make false;
    other_in = Atomic.make false;
    waited = Atomic.make false;
  }

let note_domain w =
  let main = (Domain.self () :> int) = w.main in
  Atomic.set (if main then w.main_in else w.other_in) true;
  if not (Atomic.exchange w.waited true) then begin
    let theirs = if main then w.other_in else w.main_in in
    let spins = ref 0 in
    while (not (Atomic.get theirs)) && !spins < 1 lsl 26 do
      Domain.cpu_relax ();
      incr spins
    done
  end

(* A search from [start] (default: the §4.1 starting point) under an
   optional virtual-time budget, run by the engine: the best mapping
   and its search perf. *)
let search ?budget ?start ev strat =
  let start =
    match start with
    | Some m -> m
    | None -> Mapping.default_start (Evaluator.graph ev) (Evaluator.machine ev)
  in
  let o = Engine.run ~budget:(Budget.make ?max_virtual:budget ()) ~start ev strat in
  (o.Engine.best, o.Engine.perf)
