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
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_length;
    QCheck_alcotest.to_alcotest prop_fheap_matches_heap;
  ]
