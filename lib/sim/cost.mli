(** Cost model for task execution (§4's dynamic-analysis substitute).

    The duration of one shard of a group task on a processor combines a
    fixed launch overhead, a compute term (useful work over the
    processor's effective rate for the task), and a memory term: the
    bytes of every collection argument streamed at the effective
    bandwidth the processor sees against the argument's memory kind.
    Compute and memory overlap (pipelined kernels), so the model takes
    their max:

      duration = launch(k) + max(flops / (rate(k)·eff(t,k)),
                                 Σ_i bytes(c_i) / bw(k, mem(c_i)))

    The FB-vs-ZC bandwidth gap and the GPU launch overhead are what
    make the paper's trade-offs (fast compute vs. data movement, §4.2)
    appear. *)

val task_duration :
  Machine.t ->
  Graph.task ->
  Kinds.proc_kind ->
  arg_mem:(Graph.collection -> Kinds.mem_kind) ->
  float
(** Duration in seconds of one shard, noise-free. *)

val efficiency : Graph.task -> Kinds.proc_kind -> float
