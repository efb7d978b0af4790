let test_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek h = None)

let test_ordering () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.push h p v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  Alcotest.(check (option (pair (float 0.0) string))) "peek min" (Some (1.0, "a")) (Heap.peek h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop a" (Some (1.0, "a")) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop b" (Some (2.0, "b")) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop c" (Some (3.0, "c")) (Heap.pop h);
  Alcotest.(check bool) "drained" true (Heap.pop h = None)

let test_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1.0 v) [ "first"; "second"; "third" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "insertion order on ties" [ "first"; "second"; "third" ] order

let test_interleaved () =
  let h = Heap.create () in
  Heap.push h 5.0 5;
  Heap.push h 1.0 1;
  Alcotest.(check (option (pair (float 0.0) int))) "min" (Some (1.0, 1)) (Heap.pop h);
  Heap.push h 0.5 0;
  Heap.push h 3.0 3;
  Alcotest.(check (option (pair (float 0.0) int))) "new min" (Some (0.5, 0)) (Heap.pop h);
  Alcotest.(check int) "length" 2 (Heap.length h)

let test_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 ();
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  (* clear keeps the heap usable without regrowing from scratch *)
  Heap.push h 2.0 ();
  Alcotest.(check int) "reusable after clear" 1 (Heap.length h)

let test_reset_rewinds_ties () =
  (* after reset, tie-breaking must behave exactly like a fresh heap:
     entries pushed before the reset cannot shadow new sequence
     numbers *)
  let run_ties h =
    List.iter (fun v -> Heap.push h 1.0 v) [ "a"; "b"; "c" ];
    List.init 3 (fun _ -> snd (Option.get (Heap.pop h)))
  in
  let h = Heap.create () in
  let first = run_ties h in
  Heap.reset h;
  let second = run_ties h in
  Alcotest.(check (list string)) "same order after reset" first second

module Fheap = Exec.Fheap

let drain_fheap h =
  let rec go acc =
    if Fheap.is_empty h then List.rev acc
    else begin
      let p = Fheap.top_prio h and v = Fheap.top h in
      Fheap.drop h;
      go ((p, v) :: acc)
    end
  in
  go []

let test_fheap_ordering_and_ties () =
  let h = Fheap.create ~capacity:2 () in
  List.iter (fun (p, v) -> Fheap.push h p v) [ (3.0, 30); (1.0, 10); (1.0, 11); (2.0, 20) ];
  Alcotest.(check (list (pair (float 0.0) int)))
    "sorted, FIFO on ties"
    [ (1.0, 10); (1.0, 11); (2.0, 20); (3.0, 30) ]
    (drain_fheap h);
  Fheap.reset h;
  Alcotest.(check bool) "empty after reset" true (Fheap.is_empty h)

let prop_fheap_matches_heap =
  QCheck.Test.make ~name:"fheap pops in the same order as the boxed heap"
    QCheck.(list (pair (float_range 0.0 100.0) small_nat))
    (fun entries ->
      let fh = Fheap.create () and h = Heap.create () in
      List.iter
        (fun (p, v) ->
          Fheap.push fh p v;
          Heap.push h p v)
        entries;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (p, v) -> drain ((p, v) :: acc)
      in
      drain [] = drain_fheap fh)

(* The lane: entries pushed at the queue's clock skip the heap.  A lane
   of capacity 2 wraps, grows twice, and still pops in push order; a
   heap entry at the clock pushed before the clock took that value
   pops ahead of the lane. *)
let test_fheap_lane_growth_and_wrap () =
  let h = Fheap.create ~capacity:2 () in
  Fheap.push h 0.0 10;
  Fheap.push h 0.0 11;
  Alcotest.(check int) "lane front" 10 (Fheap.top h);
  Fheap.drop h;
  (* the ring's head is now 1: the next lane entry wraps to index 0 *)
  Fheap.push h 0.0 12;
  Fheap.push h 5.0 50;
  Fheap.push h 5.0 51;
  Fheap.push h 7.0 70;
  List.iter (fun v -> Fheap.push h 0.0 v) [ 13; 14; 15 ];
  let first =
    List.init 6 (fun _ ->
        let p = Fheap.top_prio h and v = Fheap.top h in
        Fheap.drop h;
        (p, v))
  in
  Alcotest.(check (list (pair (float 0.0) int)))
    "lane in push order, then the heap"
    [ (0.0, 11); (0.0, 12); (0.0, 13); (0.0, 14); (0.0, 15); (5.0, 50) ]
    first;
  (* the clock is now 5.0: a push at 5.0 joins the lane behind 51,
     which was pushed earlier and waits on the heap *)
  Fheap.push h 5.0 52;
  Alcotest.(check (list (pair (float 0.0) int)))
    "earlier heap entry at the clock pops first"
    [ (5.0, 51); (5.0, 52); (7.0, 70) ]
    (drain_fheap h)

(* [reset] rewinds the clock and the insertion sequence: after a
   history that leaves a non-zero clock, a wrapped lane and a non-empty
   heap, a reset queue pops a script exactly like a fresh one.  (The
   pop order alone cannot tell a stale clock from a rewound one, since
   the lane rule is exact for any clock value; the script checks every
   priority and payload a fresh queue gives.) *)
let test_fheap_reset_replays_fresh () =
  let script h =
    List.iter (fun (p, v) -> Fheap.push h p v) [ (0.0, 1); (2.0, 2); (0.0, 3); (2.0, 4) ];
    let p = Fheap.top_prio h and v = Fheap.top h in
    Fheap.drop h;
    List.iter (fun (p, v) -> Fheap.push h p v) [ (0.0, 5); (2.0, 6); (1.0, 7) ];
    (p, v) :: drain_fheap h
  in
  let fresh = script (Fheap.create ~capacity:1 ()) in
  let h = Fheap.create ~capacity:1 () in
  List.iter (fun (p, v) -> Fheap.push h p v) [ (3.0, 90); (3.0, 91); (4.0, 92) ];
  Fheap.drop h;
  List.iter (fun v -> Fheap.push h 3.0 v) [ 93; 94; 95 ];
  Fheap.drop h;
  Fheap.reset h;
  Alcotest.(check bool) "empty after reset" true (Fheap.is_empty h);
  Alcotest.(check (list (pair (float 0.0) int))) "same pops as a fresh queue" fresh (script h)

(* Interleaved pushes and pops against the oracle heap, checked at
   every pop.  Priorities come from a small set around the last popped
   one: equal to it (the lane when it is the clock), a few values above
   it, and one below it; [capacity] and [reset] are random too.  A
   model of the lane rule counts lane-bound and below-clock pushes so
   the property provably reaches both. *)
type op = Push of int | Pop | Reset

let push_offsets = [| 0.0; 0.0; 1.0; 2.0; 3.0; -1.0 |]

let print_op = function
  | Push k -> Printf.sprintf "push%+g" push_offsets.(k)
  | Pop -> "pop"
  | Reset -> "reset"

let arbitrary_script =
  QCheck.make
    ~print:QCheck.Print.(pair int (list print_op))
    ~shrink:QCheck.Shrink.(pair nil list)
    QCheck.Gen.(
      pair (int_range 1 4)
        (list_size (int_range 0 80)
           (frequency
              [
                (6, map (fun k -> Push k) (int_bound (Array.length push_offsets - 1)));
                (5, return Pop);
                (1, return Reset);
              ])))

let lane_pushes = ref 0
let below_clock_pushes = ref 0

let prop_fheap_interleaved =
  QCheck.Test.make ~count:300 ~name:"fheap matches the boxed heap at every interleaved pop"
    arbitrary_script (fun (capacity, ops) ->
      let fh = Fheap.create ~capacity () and h = Heap.create () in
      let last = ref 0.0 and clock = ref 0.0 and in_lane = ref 0 in
      let lane_bound = Hashtbl.create 16 in
      let ok = ref true in
      List.iteri
        (fun v op ->
          match op with
          | Push k ->
              let p = !last +. push_offsets.(k) in
              if p = !clock then begin
                Hashtbl.replace lane_bound v ();
                incr in_lane;
                incr lane_pushes
              end
              else if p < !clock then incr below_clock_pushes;
              Fheap.push fh p v;
              Heap.push h p v
          | Pop -> (
              match Heap.pop h with
              | None -> if not (Fheap.is_empty fh) then ok := false
              | Some (p, v) ->
                  if Fheap.is_empty fh || Fheap.top_prio fh <> p || Fheap.top fh <> v then
                    ok := false;
                  Fheap.drop fh;
                  if Hashtbl.mem lane_bound v then decr in_lane
                  else if !in_lane = 0 then clock := p;
                  last := p)
          | Reset ->
              Fheap.reset fh;
              Heap.reset h;
              last := 0.0;
              clock := 0.0;
              in_lane := 0)
        ops;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (p, v) -> drain ((p, v) :: acc)
      in
      !ok && drain [] = drain_fheap fh)

let fheap_interleaved_reaches_lane =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_fheap_interleaved in
  Alcotest.test_case name speed (fun () ->
      lane_pushes := 0;
      below_clock_pushes := 0;
      run ();
      if !lane_pushes = 0 || !below_clock_pushes = 0 then
        Alcotest.failf "vacuous: %d lane-bound pushes, %d below the clock" !lane_pushes
          !below_clock_pushes)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in non-decreasing priority order"
    QCheck.(list (float_range 0.0 1e6))
    (fun ps ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h p p) ps;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare ps)

let prop_heap_length =
  QCheck.Test.make ~name:"length tracks pushes and pops"
    QCheck.(list (float_range 0.0 100.0))
    (fun ps ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h p ()) ps;
      let n = List.length ps in
      Heap.length h = n
      &&
      (ignore (Heap.pop h);
       Heap.length h = max 0 (n - 1)))

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
    Alcotest.test_case "interleaved" `Quick test_interleaved;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "reset rewinds ties" `Quick test_reset_rewinds_ties;
    Alcotest.test_case "fheap ordering and ties" `Quick test_fheap_ordering_and_ties;
    Alcotest.test_case "fheap lane growth and wraparound" `Quick
      test_fheap_lane_growth_and_wrap;
    Alcotest.test_case "fheap reset replays like a fresh queue" `Quick
      test_fheap_reset_replays_fresh;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_length;
    QCheck_alcotest.to_alcotest prop_fheap_matches_heap;
    fheap_interleaved_reaches_lane;
  ]
