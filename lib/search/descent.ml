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
      (* ranked mode: each task's candidates are built at once and
         proposed best-predicted-first — see [ranked_round] *)
  order : int list;        (* tids in runtime-descending order at sweep start *)
  mutable entered : int;   (* tasks entered so far; current = nth order (entered-1) *)
  mutable specs : spec list;  (* remaining specs of the current task *)
  mutable consumed : int;     (* specs consumed (proposed or no-op) in it *)
  mutable queue : Mapping.t list;
      (* ranked mode: the rest of the current ranked round, proposed
         one candidate per [next]; [abandon] drops it on an accept.
         Serialized by [encode] (the permutation depends on the model
         state before the round trained on its own results, so it
         cannot be rebuilt at decode time). *)
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
  { ev; overlap; surrogate; order; entered = 0; specs = []; consumed = 0; queue = [] }

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

let current_tid t = List.nth t.order (t.entered - 1)

(* Enter the next task of the order, with its dead-coordinate
   accounting; false when the sweep is complete. *)
let enter t =
  if t.entered >= List.length t.order then false
  else begin
    let space = Evaluator.space t.ev in
    let task = Graph.task (Evaluator.graph t.ev) (List.nth t.order t.entered) in
    t.entered <- t.entered + 1;
    t.consumed <- 0;
    account t.ev space task;
    t.specs <- specs_for space task;
    true
  end

let rec next_seq t ~incumbent =
  match t.specs with
  | spec :: rest ->
      t.specs <- rest;
      t.consumed <- t.consumed + 1;
      let cand = build t incumbent (current_tid t) spec in
      if Mapping.equal cand incumbent then begin
        Evaluator.note_noop_neighbor t.ev;
        next_seq t ~incumbent
      end
      else Some cand
  | [] -> if enter t then next_seq t ~incumbent else None

(* ---- ranked mode --------------------------------------------------------
   With a surrogate, a round is the *whole* current task: its specs are
   consumed at once (no-ops counted as they are met), and its
   candidates are permuted best-predicted-first so that the first
   improvement comes as early as the model can arrange.  [next]
   proposes the round one candidate at a time; an accept abandons the
   rest, which was built against the replaced incumbent.  Spec
   positions mean nothing under a permutation, which is why the round
   itself, not a spec offset, is what a checkpoint carries. *)

let rec ranked_round t ~incumbent sg =
  match t.specs with
  | [] -> if enter t then ranked_round t ~incumbent sg else []
  | specs -> (
      let tid = current_tid t in
      let cands =
        List.filter
          (fun cand ->
            let noop = Mapping.equal cand incumbent in
            if noop then Evaluator.note_noop_neighbor t.ev;
            not noop)
          (List.map (build t incumbent tid) specs)
      in
      t.consumed <- t.consumed + List.length specs;
      t.specs <- [];
      match cands with
      | [] -> ranked_round t ~incumbent sg
      | _ ->
          let arr = Array.of_list cands in
          Array.to_list (Array.map (fun i -> arr.(i)) (Surrogate.rank sg arr)))

let next t ~incumbent =
  match (t.surrogate, t.queue) with
  | None, _ -> next_seq t ~incumbent
  | Some _, c :: rest ->
      t.queue <- rest;
      Some c
  | Some sg, [] -> (
      match ranked_round t ~incumbent sg with
      | [] -> None
      | c :: rest ->
          t.queue <- rest;
          Some c)

let abandon t = t.queue <- []

(* Nothing in lib reads it: it stays because the benchmark's traced
   rebuild of a serve map job passes it. *)
let default_min_batch = 24

let encode t =
  let base =
    Printf.sprintf "sweep %d %s %d %d" (List.length t.order)
      (String.concat " " (List.map string_of_int t.order))
      t.entered t.consumed
  in
  match t.queue with
  | [] -> base
  | q ->
      Printf.sprintf "%s queue %d %s" base (List.length q)
        (String.concat " " (List.map Mapping.canonical_key q))

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
                      let* queue =
                        match tail with
                        | [] -> Ok []
                        | "queue" :: k :: keys -> (
                            (* a queue that ends in the word [gated] was
                               written while ranked rounds could also be
                               proposed as one batch; it marked a round
                               proposed one candidate at a time, which
                               every round now is *)
                            let keys =
                              match List.rev keys with
                              | "gated" :: r -> List.rev r
                              | _ -> keys
                            in
                            match int_of_string_opt k with
                            | Some k when List.length keys = k && k > 0 ->
                                let ms =
                                  List.filter_map (Mapping.of_canonical_key g) keys
                                in
                                if List.length ms = k then Ok ms
                                else fail "unparsable queue key"
                            | _ -> fail "bad queue count")
                        | _ -> fail "bad queue suffix"
                      in
                      let t =
                        { ev; overlap; surrogate; order; entered; specs = []; consumed; queue }
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
