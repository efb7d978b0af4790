let efficiency (t : Graph.task) = function
  | Kinds.Cpu -> t.cpu_efficiency
  | Kinds.Gpu -> t.gpu_efficiency

let task_duration machine (t : Graph.task) kind ~arg_mem =
  let rate = Machine.compute_rate machine kind *. efficiency t kind in
  let compute = if t.flops = 0.0 then 0.0 else t.flops /. rate in
  let memory =
    List.fold_left
      (fun acc (c : Graph.collection) ->
        acc +. (c.bytes /. Machine.exec_bandwidth machine kind (arg_mem c)))
      0.0 t.args
  in
  Machine.launch_overhead machine kind +. Float.max compute memory
