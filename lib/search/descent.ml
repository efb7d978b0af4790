(* The coordinate-descent sweep of Algorithm 1 (lines 11-18), expressed
   as a cursor the engine can drive one proposal at a time.  The legacy
   [sweep]/[optimize_task] loops enumerated candidates and evaluated
   them in place; the cursor enumerates the same candidate *specs* in
   the same order and materializes each against the caller's current
   incumbent at proposal time — identical to the legacy loops, where a
   candidate was also built from the incumbent as it stood after the
   previous accept/reject.

   Accounting equivalence: the legacy loops counted dead coordinates
   interleaved with evaluations but unconditionally for every *entered*
   task (only the evaluations were budget-guarded), so doing all of a
   task's dead-coordinate accounting at task entry yields the same
   totals in every truncation scenario.  No-op candidates (a spec that
   reproduces the incumbent after co-location repair) are counted and
   skipped here, exactly like the legacy [test] guard. *)

type spec =
  | Dist of bool * Mapping.dist_strategy
  | Proc_mem of Kinds.proc_kind * int * Kinds.mem_kind  (* kind, cid, mem *)

type t = {
  ev : Evaluator.t;
  overlap : Overlap.t option;
  surrogate : Surrogate.t option;
      (* ranked mode: batches are built task-atomically and permuted
         best-predicted-first (skim truncates them) — see [ranked_batch] *)
  order : int list;        (* tids in runtime-descending order at sweep start *)
  mutable entered : int;   (* tasks entered so far; current = nth order (entered-1) *)
  mutable specs : spec list;  (* remaining specs of the current task *)
  mutable consumed : int;     (* specs consumed (proposed or no-op) in it *)
  mutable pending : int list;
      (* batch mode: per outstanding batch candidate, how many specs its
         verdict consumes (preceding gap no-ops + its own spec); never
         serialized — a batch is rebuilt from [specs] after restore *)
  mutable queue : Mapping.t list;
      (* ranked mode: the rest of the current ranked batch.  Sequential
         ranking proposes from it one candidate at a time; batch ranking
         drains it one [deliver_ranked] per verdict, so after a
         budget-truncated batch it holds exactly the undelivered
         remainder.  [abandon] drops it on an accept.  Serialized by
         [encode] (the permutation depends on the model state *before*
         the batch trained on its own results, so it cannot be rebuilt
         at decode time). *)
  mutable gated : bool;
      (* the current proposal round fell below the batch-size gate and
         runs sequentially: candidates are consumed at proposal time,
         so [deliver_verdict] must not consume them again.  Only
         meaningful alongside a non-empty ranked [queue] (the plain
         path re-decides the gate from the spec count every round), and
         serialized exactly then — a resumed gated ranked remainder
         must keep draining one proposal per step for trial counts to
         match the uninterrupted run. *)
}

let specs_for space (task : Graph.task) =
  List.map (fun (d, s) -> Dist (d, s)) (Space.distribution_choices_for space task.tid)
  @ List.concat_map
      (fun k ->
        List.concat_map
          (fun (c : Graph.collection) ->
            List.map (fun r -> Proc_mem (k, c.cid, r))
              (Space.mem_choices_for space ~cid:c.cid k))
          (Profile.order_args_by_size task))
      (Space.proc_choices space task.tid)

let account ev space (task : Graph.task) =
  let live_kinds = Space.proc_choices space task.tid in
  List.iter
    (fun k ->
      if not (List.memq k live_kinds) then
        Evaluator.note_dead_coords ev
          (List.length task.args * List.length (Space.mem_choices space k)))
    (Space.proc_choices_all space task.tid);
  List.iter
    (fun k ->
      List.iter
        (fun (c : Graph.collection) ->
          let live = Space.mem_choices_for space ~cid:c.cid k in
          let dead = List.length (Space.mem_choices space k) - List.length live in
          if dead > 0 then Evaluator.note_dead_coords ev dead)
        task.args)
    live_kinds

let start ?surrogate ev ~overlap ~profile =
  let g = Evaluator.graph ev in
  let order =
    List.map (fun (t : Graph.task) -> t.tid) (Profile.order_tasks_by_runtime g profile)
  in
  {
    ev;
    overlap;
    surrogate;
    order;
    entered = 0;
    specs = [];
    consumed = 0;
    pending = [];
    queue = [];
    gated = false;
  }

let build t incumbent tid spec =
  let g = Evaluator.graph t.ev in
  let machine = Evaluator.machine t.ev in
  match spec with
  | Dist (d, strat) ->
      Mapping.set_strategy (Mapping.set_distribute incumbent tid d) tid strat
  | Proc_mem (k, cid, r) -> (
      let f' = Mapping.set_mem (Mapping.set_proc incumbent tid k) cid r in
      match t.overlap with
      | None -> f'
      | Some o -> Colocation.apply g machine ~overlap:o ~mapping:f' ~t:tid ~c:cid ~k ~r)

let next_seq t ~incumbent =
  let g = Evaluator.graph t.ev in
  let space = Evaluator.space t.ev in
  let rec go () =
    match t.specs with
    | spec :: rest ->
        t.specs <- rest;
        t.consumed <- t.consumed + 1;
        let tid = List.nth t.order (t.entered - 1) in
        let cand = build t incumbent tid spec in
        if Mapping.equal cand incumbent then begin
          Evaluator.note_noop_neighbor t.ev;
          go ()
        end
        else Some cand
    | [] ->
        if t.entered >= List.length t.order then None
        else begin
          let tid = List.nth t.order t.entered in
          let task = Graph.task g tid in
          t.entered <- t.entered + 1;
          t.consumed <- 0;
          account t.ev space task;
          t.specs <- specs_for space task;
          go ()
        end
  in
  go ()

(* ---- batch mode ---------------------------------------------------------
   [plain_batch] returns the current task's remaining non-no-op
   candidates all materialized against one incumbent — without consuming
   their specs — and [deliver] consumes one candidate's specs per
   verdict.  Equivalence with driving [next] one proposal at a time:
   within a batch the incumbent cannot change (the engine stops
   delivering at the first acceptance), so the no-op determination and
   the built candidates are identical; leading no-ops and task entries
   are settled eagerly exactly where a [next] call would have performed
   them; gap no-ops are counted when the preceding candidate's verdict
   arrives (same totals, and no-op counts carry no clock); trailing
   no-ops and unreached specs stay unconsumed for the next batch — or
   are never consumed at all if the budget ends the search first, just
   as a sequential run would never have reached them. *)

let current_tid t = List.nth t.order (t.entered - 1)

(* consume leading no-ops and enter tasks until [t.specs] starts with a
   real candidate or the sweep is complete — the prefix work a [next]
   call would do before returning a candidate *)
let rec settle t ~incumbent =
  match t.specs with
  | spec :: rest ->
      let cand = build t incumbent (current_tid t) spec in
      if Mapping.equal cand incumbent then begin
        t.specs <- rest;
        t.consumed <- t.consumed + 1;
        Evaluator.note_noop_neighbor t.ev;
        settle t ~incumbent
      end
  | [] ->
      if t.entered < List.length t.order then begin
        let g = Evaluator.graph t.ev in
        let space = Evaluator.space t.ev in
        let tid = List.nth t.order t.entered in
        let task = Graph.task g tid in
        t.entered <- t.entered + 1;
        t.consumed <- 0;
        account t.ev space task;
        t.specs <- specs_for space task;
        settle t ~incumbent
      end

let plain_batch t ~incumbent =
  settle t ~incumbent;
  match t.specs with
  | [] -> [||]
  | specs ->
      let tid = current_tid t in
      let cands = ref [] in
      let pending = ref [] in
      let gap = ref 0 in
      List.iter
        (fun spec ->
          let cand = build t incumbent tid spec in
          if Mapping.equal cand incumbent then incr gap
          else begin
            cands := cand :: !cands;
            pending := (!gap + 1) :: !pending;
            gap := 0
          end)
        specs;
      t.pending <- List.rev !pending;
      Array.of_list (List.rev !cands)

(* ---- ranked mode --------------------------------------------------------
   With a surrogate, a batch is the *whole* current task, permuted
   best-predicted-first so the bounded first-improvement short-circuit
   fires as early as the model can arrange.  The task is consumed
   atomically at build time ([deliver] has nothing left to do): spec
   positions are meaningless under a permutation, and an accept
   abandons the rest of the task's candidates — they were built
   against a now-replaced incumbent.  Skim mode additionally truncates
   the permuted batch to the top-K predictions; the dropped candidates
   are counted as surrogate skips, never suggested.

   [next] supports the same ranked order sequentially (one proposal per
   call from an internal queue, [abandon] dropping the queue on an
   accept), so ranked-batched ≡ ranked-sequential is bit-testable the
   same way plain batching is tested against [next_seq]. *)

let ranked_batch t ~incumbent sg =
  settle t ~incumbent;
  match t.specs with
  | [] -> [||]
  | specs ->
      let tid = current_tid t in
      let cands = ref [] in
      List.iter
        (fun spec ->
          let cand = build t incumbent tid spec in
          if Mapping.equal cand incumbent then Evaluator.note_noop_neighbor t.ev
          else cands := cand :: !cands)
        specs;
      t.consumed <- t.consumed + List.length specs;
      t.specs <- [];
      (* settle stops only at a real candidate, so the array is non-empty *)
      let arr = Array.of_list (List.rev !cands) in
      let perm = Surrogate.rank sg arr in
      let ranked = Array.map (fun i -> arr.(i)) perm in
      (match Surrogate.skim_active sg with
      | Some k when k < Array.length ranked ->
          Surrogate.note_skips sg (Array.length ranked - k);
          Array.sub ranked 0 k
      | _ -> ranked)

let next t ~incumbent =
  match t.surrogate with
  | None -> next_seq t ~incumbent
  | Some sg -> (
      match t.queue with
      | c :: rest ->
          t.queue <- rest;
          Some c
      | [] ->
          let arr = ranked_batch t ~incumbent sg in
          if Array.length arr = 0 then None
          else begin
            t.queue <- List.tl (Array.to_list arr);
            Some arr.(0)
          end)

let abandon t =
  t.queue <- [];
  t.pending <- [];
  t.gated <- false

let deliver_ranked t =
  match t.queue with
  | _ :: rest -> t.queue <- rest
  | [] -> invalid_arg "Descent.deliver_ranked: no outstanding ranked candidate"

let deliver t =
  match t.pending with
  | [] -> invalid_arg "Descent.deliver: no outstanding batch candidate"
  | c :: rest ->
      t.pending <- rest;
      (* the gap no-ops a sequential [next] would have consumed on its
         way to this candidate *)
      for _ = 2 to c do
        Evaluator.note_noop_neighbor t.ev
      done;
      let rec drop n l =
        if n = 0 then l
        else match l with _ :: r -> drop (n - 1) r | [] -> assert false
      in
      t.specs <- drop c t.specs;
      t.consumed <- t.consumed + c

(* ---- gated batch mode ---------------------------------------------------
   BENCH_searchrate.json showed batching *losing* at smoke sizes
   (geomean 0.981): the per-batch fixed costs (candidate rebuild,
   verdict bookkeeping) only amortize past a minimum batch size.
   [next_gated] keeps the batch representation for rounds of at least
   [min_batch] candidates and falls back to the sequential drive for
   smaller ones.  Decision-identity is free: both representations are
   already proven bit-identical to the sequential drive, and the gate
   itself is a deterministic function of checkpointed cursor state, so
   sliced/resumed runs re-decide it identically. *)

let default_min_batch = 24

let next_gated t ~incumbent ~min_batch =
  match t.surrogate with
  | Some sg -> (
      match t.queue with
      | c :: rest when t.gated ->
          (* mid-round sequential drain of a sub-threshold ranked batch *)
          t.queue <- rest;
          `Seq c
      | _ :: _ ->
          (* undelivered remainder of a truncated ranked batch — only a
             resumed run can observe one here.  Propose it verbatim, in
             its original model order: re-ranking with the since-trained
             weights would diverge from the uninterrupted run. *)
          `Batch (Array.of_list t.queue)
      | [] ->
          let arr = ranked_batch t ~incumbent sg in
          if Array.length arr = 0 then `Done
          else if Array.length arr >= min_batch then begin
            t.queue <- Array.to_list arr;
            t.gated <- false;
            `Batch arr
          end
          else begin
            t.queue <- List.tl (Array.to_list arr);
            t.gated <- true;
            `Seq arr.(0)
          end)
  | None ->
      t.queue <- [];
      let cands = plain_batch t ~incumbent in
      if Array.length cands = 0 then `Done
      else if Array.length cands >= min_batch then begin
        t.gated <- false;
        `Batch cands
      end
      else begin
        (* below the gate: discard the trial batch (its specs were not
           consumed — [pending] carries them) and drive sequentially;
           [next_seq] rebuilds the same first candidate *)
        t.pending <- [];
        t.gated <- true;
        match next_seq t ~incumbent with
        | Some c -> `Seq c
        | None -> assert false (* plain_batch was non-empty *)
      end

let deliver_verdict t =
  if not t.gated then
    match t.surrogate with
    | Some _ -> deliver_ranked t
    | None -> deliver t

let encode t =
  let base =
    Printf.sprintf "sweep %d %s %d %d" (List.length t.order)
      (String.concat " " (List.map string_of_int t.order))
      t.entered t.consumed
  in
  match t.queue with
  | [] -> base
  | q ->
      Printf.sprintf "%s queue %d %s%s" base (List.length q)
        (String.concat " " (List.map Mapping.canonical_key q))
        (if t.gated then " gated" else "")

let decode ?surrogate ev ~overlap line =
  let fail fmt = Printf.ksprintf (fun m -> Error ("Descent.decode: " ^ m)) fmt in
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | "sweep" :: n :: rest -> (
      match int_of_string_opt n with
      | None -> fail "bad order length"
      | Some n -> (
          if List.length rest < n + 2 then fail "bad field count"
          else
            let cursor = List.filteri (fun i _ -> i < n + 2) rest in
            let tail = List.filteri (fun i _ -> i >= n + 2) rest in
            let ints = List.filter_map int_of_string_opt cursor in
            if List.length ints <> n + 2 then fail "bad integer field"
            else
              let order = List.filteri (fun i _ -> i < n) ints in
              match List.filteri (fun i _ -> i >= n) ints with
              | [ entered; consumed ] ->
                  if entered < 0 || entered > n || consumed < 0 then
                    fail "cursor out of range"
                  else
                    let g = Evaluator.graph ev in
                    let space = Evaluator.space ev in
                    let n_tasks = Graph.n_tasks g in
                    if List.exists (fun tid -> tid < 0 || tid >= n_tasks) order then
                      fail "task id out of range"
                    else
                      let ( let* ) = Result.bind in
                      let* queue, gated =
                        match tail with
                        | [] -> Ok ([], false)
                        | "queue" :: k :: keys -> (
                            let keys, gated =
                              match List.rev keys with
                              | "gated" :: r -> (List.rev r, true)
                              | _ -> (keys, false)
                            in
                            match int_of_string_opt k with
                            | Some k when List.length keys = k && k > 0 ->
                                let ms =
                                  List.filter_map (Mapping.of_canonical_key g) keys
                                in
                                if List.length ms = k then Ok (ms, gated)
                                else fail "unparsable queue key"
                            | _ -> fail "bad queue count")
                        | _ -> fail "bad queue suffix"
                      in
                      let t =
                        {
                          ev;
                          overlap;
                          surrogate;
                          order;
                          entered;
                          specs = [];
                          consumed;
                          pending = [];
                          queue;
                          gated;
                        }
                      in
                      if entered = 0 then
                        if consumed <> 0 then fail "consumed before first task"
                        else Ok t
                      else
                        let tid = List.nth order (entered - 1) in
                        let full = specs_for space (Graph.task g tid) in
                        if consumed > List.length full then fail "consumed too large"
                        else begin
                          (* re-entry: accounting already happened before
                             the checkpoint — do not redo it *)
                          t.specs <- List.filteri (fun i _ -> i >= consumed) full;
                          Ok t
                        end
              | _ -> fail "bad cursor fields"))
  | _ -> fail "not a sweep line"
