(* The golden simulation oracle: the original single-pass interpreter.

   It re-derives every piece of structure on each call — instance
   tables, dependence lists, noise, a polymorphic event heap — and is
   the semantics the compiled simulator ([Exec.simulate] and its quiet
   and incremental paths) must reproduce bit for bit.  It lives with
   the tests, not in the library: the tests compare against it and the
   evalrate benchmark measures the compiled path's speed-up over it.
   The channel-slot helpers below duplicate Exec's on purpose, so the
   oracle shares no code with what it checks. *)

(* A dependence of one consumer instance on one producer instance:
   [bytes] must be visible at the consumer's argument memory. *)
type dep = {
  src_tid : int;
  src_shard : int;
  dst_cid : int;
  src_cid : int;
  bytes : float;
  carried : bool;
}

type event = Ready of int | Done of int

let n_channel_classes = 5

let channel_slot ~nodes:_ node = function
  | Machine.Host_local -> (node * n_channel_classes) + 0
  | Machine.Cross_socket -> (node * n_channel_classes) + 1
  | Machine.Pcie -> (node * n_channel_classes) + 2
  | Machine.Gpu_peer -> (node * n_channel_classes) + 3
  | Machine.Network -> (node * n_channel_classes) + 4
  | Machine.Same_memory -> invalid_arg "channel_slot: Same_memory"

let channel_class_index = function
  | Machine.Host_local -> 0
  | Machine.Cross_socket -> 1
  | Machine.Pcie -> 2
  | Machine.Gpu_peer -> 3
  | Machine.Network -> 4
  | Machine.Same_memory -> invalid_arg "channel_class_index: Same_memory"

(* Per-link busy-until clocks of routed copies live after the
   kind-level channel plane: slot = nodes * n_channel_classes + link id. *)
let link_slot_base ~nodes = nodes * n_channel_classes

let n_chan_slots machine =
  (machine.Machine.nodes * n_channel_classes)
  +
  match machine.Machine.topology with
  | Some topo -> Topology.n_links topo
  | None -> 0

(* Does the machine serialize copies on busy-until clocks?  True for
   every machine without a topology (kind-level channel FIFOs) and for
   contended topologies; false only for the [:free] counterfactual,
   where every copy costs its full path time but never queues. *)
let clocks_contended machine =
  match machine.Machine.topology with
  | Some topo -> Topology.contended topo
  | None -> true

let proc_resource_name (p : Machine.processor) =
  Printf.sprintf "node%d/%s%d" p.Machine.pnode
    (Kinds.proc_kind_to_string p.Machine.pkind)
    p.Machine.plocal

let run ?(noise_sigma = 0.03) ?(seed = 0) ?(fallback = false) ?iterations ?trace
    machine (g : Graph.t) mapping =
  match Placement.resolve ~fallback machine g mapping with
  | Error e -> Error e
  | Ok pl ->
      let iterations = Option.value iterations ~default:g.iterations in
      if iterations <= 0 then invalid_arg "Oracle.run: iterations must be positive";
      let nt = Graph.n_tasks g in
      let offset = Array.make (nt + 1) 0 in
      for tid = 0 to nt - 1 do
        offset.(tid + 1) <- offset.(tid) + (Graph.task g tid).group_size
      done;
      let shards_per_iter = offset.(nt) in
      let n_instances = iterations * shards_per_iter in
      let inst iter tid shard = (iter * shards_per_iter) + offset.(tid) + shard in
      let tid_of = Array.make n_instances 0 in
      let shard_of = Array.make n_instances 0 in
      for iter = 0 to iterations - 1 do
        for tid = 0 to nt - 1 do
          let sz = (Graph.task g tid).group_size in
          for s = 0 to sz - 1 do
            let i = inst iter tid s in
            tid_of.(i) <- tid;
            shard_of.(i) <- s
          done
        done
      done;
      (* Intra-iteration dependence lists, computed once per producer
         (tid, shard) slot and reused for every iteration, paired with
         the consumer shard they feed; [indeg_base] is the per-consumer
         within-iteration indegree. *)
      let out_deps_with_consumer : (dep * int) list array = Array.make shards_per_iter [] in
      let indeg_base = Array.make shards_per_iter 0 in
      (* loop-carried dependencies only bind from iteration 1 onward *)
      let indeg_carried = Array.make shards_per_iter 0 in
      let owner cid = (Graph.collection g cid).owner in
      List.iter
        (fun (e : Graph.edge) ->
          let ts = owner e.src and td = owner e.dst in
          let ss = (Graph.task g ts).group_size and sd = (Graph.task g td).group_size in
          for s = 0 to sd - 1 do
            let main = if ss = sd then s else s * ss / sd in
            let add src_shard bytes =
              if src_shard >= 0 && src_shard < ss && bytes > 0.0 then begin
                let d =
                  {
                    src_tid = ts;
                    src_shard;
                    dst_cid = e.dst;
                    src_cid = e.src;
                    bytes;
                    carried = e.carried;
                  }
                in
                let slot = offset.(ts) + src_shard in
                out_deps_with_consumer.(slot) <- (d, s) :: out_deps_with_consumer.(slot);
                let counter = if e.carried then indeg_carried else indeg_base in
                counter.(offset.(td) + s) <- counter.(offset.(td) + s) + 1
              end
            in
            add main e.bytes;
            match e.pattern with
            | Pattern.Same_shard -> ()
            | Pattern.Halo { frac } ->
                add (main - 1) (e.bytes *. frac);
                add (main + 1) (e.bytes *. frac)
          done)
        g.edges;
      let rng = Rng.create seed in
      (* Pre-draw per-instance noise in a fixed order so the schedule
         does not perturb the random stream. *)
      let noise = Array.make n_instances 1.0 in
      if noise_sigma > 0.0 then
        for i = 0 to n_instances - 1 do
          noise.(i) <- Rng.lognormal rng ~sigma:noise_sigma
        done;
      let indeg = Array.make n_instances 0 in
      for iter = 0 to iterations - 1 do
        for slot = 0 to shards_per_iter - 1 do
          indeg.((iter * shards_per_iter) + slot) <-
            (indeg_base.(slot)
            + if iter > 0 then 1 + indeg_carried.(slot) else 0)
        done
      done;
      let ready_time = Array.make n_instances 0.0 in
      let proc_free = Array.make (Array.length machine.Machine.processors) 0.0 in
      let chan_free = Array.make (n_chan_slots machine) 0.0 in
      (* per-node runtime utility processor: every instance pays the
         mapping-independent dependence-analysis/dispatch cost here *)
      let dispatch_free = Array.make machine.Machine.nodes 0.0 in
      let dispatch_cost = machine.Machine.compute.Machine.runtime_dispatch in
      let events : event Heap.t = Heap.create () in
      let task_times = Array.make nt 0.0 in
      let proc_busy = Array.make (Array.length machine.Machine.processors) 0.0 in
      let bytes_moved = ref 0.0 in
      let channel_bytes = Array.make n_channel_classes 0.0 in
      let n_copies = ref 0 in
      let makespan = ref 0.0 in
      (* duration of an instance (placement-resolved memories) *)
      let duration i =
        let tid = tid_of.(i) and s = shard_of.(i) in
        let task = Graph.task g tid in
        let kind = Mapping.proc_of mapping tid in
        let d =
          Cost.task_duration machine task kind ~arg_mem:(fun c ->
              Placement.effective_mem_kind pl ~cid:c.cid ~shard:s)
        in
        d *. noise.(i)
      in
      let dep_arrived i t =
        ready_time.(i) <- Float.max ready_time.(i) t;
        indeg.(i) <- indeg.(i) - 1;
        if indeg.(i) = 0 then Heap.push events ready_time.(i) (Ready i)
      in
      for i = 0 to n_instances - 1 do
        if indeg.(i) = 0 then Heap.push events 0.0 (Ready i)
      done;
      let iter_of i = i / shards_per_iter in
      let process_done i t_done =
        let tid = tid_of.(i) and s = shard_of.(i) and iter = iter_of i in
        makespan := Float.max !makespan t_done;
        (* next-iteration self dependence *)
        if iter + 1 < iterations then dep_arrived (inst (iter + 1) tid s) t_done;
        (* feed consumers of this iteration *)
        List.iter
          (fun (d, consumer_shard) ->
            let target_iter = if d.carried then iter + 1 else iter in
            if target_iter < iterations then begin
              let dst_tid = owner d.dst_cid in
              let ci = inst target_iter dst_tid consumer_shard in
              let src_mem = Placement.arg_memory pl ~cid:d.src_cid ~shard:d.src_shard in
              let dst_mem = Placement.arg_memory pl ~cid:d.dst_cid ~shard:consumer_shard in
              if src_mem.Machine.mid = dst_mem.Machine.mid then dep_arrived ci t_done
              else begin
                let ch = Machine.channel_between machine src_mem dst_mem in
                let routed_topo =
                  match machine.Machine.topology with
                  | Some topo when ch = Machine.Network -> (
                      match Topology.family topo with
                      | Topology.Direct -> Some topo
                      | _ ->
                          if
                            Topology.distance topo ~src:src_mem.Machine.mnode
                              ~dst:dst_mem.Machine.mnode
                            >= 0
                          then Some topo
                          else None)
                  | _ -> None
                in
                match routed_topo with
                | Some topo ->
                    (* Routed copy: charge every hop of the compiled
                       route in order — optional PCIe staging on FB
                       endpoints, then each link.  The Direct family
                       folds the whole legacy cost into its single
                       node link. *)
                    let bytes = d.bytes in
                    let total =
                      Machine.copy_cost machine ~src:src_mem ~dst:dst_mem ~bytes
                    in
                    let arrival =
                      if not (Topology.contended topo) then t_done +. total
                      else begin
                        let t = ref t_done in
                        let charge slot cost =
                          let free = chan_free.(slot) in
                          let start = if !t > free then !t else free in
                          let arr = start +. cost in
                          chan_free.(slot) <- arr;
                          t := arr
                        in
                        let base = link_slot_base ~nodes:machine.Machine.nodes in
                        (match Topology.family topo with
                        | Topology.Direct ->
                            charge (base + src_mem.Machine.mnode) total
                        | _ ->
                            let staging =
                              machine.Machine.copy.Machine.local_latency
                              +. (bytes /. machine.Machine.copy.Machine.pcie_bw)
                            in
                            if src_mem.Machine.mkind = Kinds.Frame_buffer then
                              charge
                                ((src_mem.Machine.mnode * n_channel_classes) + 2)
                                staging;
                            Topology.route_iter topo ~src:src_mem.Machine.mnode
                              ~dst:dst_mem.Machine.mnode ~f:(fun l ->
                                charge
                                  (base + l.Topology.lid)
                                  (l.Topology.llat +. (bytes /. l.Topology.lbw)));
                            if dst_mem.Machine.mkind = Kinds.Frame_buffer then
                              charge
                                ((dst_mem.Machine.mnode * n_channel_classes) + 2)
                                staging);
                        !t
                      end
                    in
                    bytes_moved := !bytes_moved +. bytes;
                    channel_bytes.(channel_class_index ch) <-
                      channel_bytes.(channel_class_index ch) +. bytes;
                    incr n_copies;
                    (match trace with
                    | Some collector ->
                        Trace.add collector
                          {
                            Trace.label =
                              Printf.sprintf "%s -> %s"
                                (Graph.collection g d.src_cid).Graph.cname
                                (Graph.collection g d.dst_cid).Graph.cname;
                            kind = Trace.Copy;
                            resource =
                              Printf.sprintf "node%d/%s" src_mem.Machine.mnode
                                Exec.channel_class_names.(channel_class_index ch);
                            start_time = t_done;
                            duration = arrival -. t_done;
                          }
                    | None -> ());
                    dep_arrived ci arrival
                | None ->
                    let cost =
                      Machine.copy_cost machine ~src:src_mem ~dst:dst_mem ~bytes:d.bytes
                    in
                    let slot =
                      channel_slot ~nodes:machine.Machine.nodes src_mem.Machine.mnode ch
                    in
                    let start =
                      if clocks_contended machine then Float.max t_done chan_free.(slot)
                      else t_done
                    in
                    let arrival = start +. cost in
                    if clocks_contended machine then chan_free.(slot) <- arrival;
                    bytes_moved := !bytes_moved +. d.bytes;
                    channel_bytes.(channel_class_index ch) <-
                      channel_bytes.(channel_class_index ch) +. d.bytes;
                    incr n_copies;
                    (match trace with
                    | Some collector ->
                        Trace.add collector
                          {
                            Trace.label =
                              Printf.sprintf "%s -> %s"
                                (Graph.collection g d.src_cid).Graph.cname
                                (Graph.collection g d.dst_cid).Graph.cname;
                            kind = Trace.Copy;
                            resource =
                              Printf.sprintf "node%d/%s" src_mem.Machine.mnode
                                Exec.channel_class_names.(channel_class_index ch);
                            start_time = start;
                            duration = cost;
                          }
                    | None -> ());
                    dep_arrived ci arrival
              end
            end)
          out_deps_with_consumer.(offset.(tid) + s)
      in
      let rec loop () =
        match Heap.pop events with
        | None -> ()
        | Some (t, Ready i) ->
            let p = Placement.processor pl ~tid:tid_of.(i) ~shard:shard_of.(i) in
            let node = p.Machine.pnode in
            let dispatched = Float.max t dispatch_free.(node) +. dispatch_cost in
            dispatch_free.(node) <- dispatched;
            let start = Float.max dispatched proc_free.(p.Machine.pid) in
            let d = duration i in
            let t_done = start +. d in
            proc_free.(p.Machine.pid) <- t_done;
            proc_busy.(p.Machine.pid) <- proc_busy.(p.Machine.pid) +. d;
            task_times.(tid_of.(i)) <- task_times.(tid_of.(i)) +. d;
            (match trace with
            | Some collector ->
                Trace.add collector
                  {
                    Trace.label =
                      Printf.sprintf "%s.%d"
                        (Graph.task g tid_of.(i)).Graph.tname
                        shard_of.(i);
                    kind = Trace.Task_exec;
                    resource = proc_resource_name p;
                    start_time = start;
                    duration = d;
                  }
            | None -> ());
            Heap.push events t_done (Done i);
            loop ()
        | Some (t, Done i) ->
            process_done i t;
            loop ()
      in
      loop ();
      Ok
        {
          Exec.makespan = !makespan;
          per_iteration = !makespan /. float_of_int iterations;
          task_times;
          proc_busy;
          bytes_moved = !bytes_moved;
          channel_bytes;
          n_copies = !n_copies;
          demotions = Placement.demotions pl;
        }
