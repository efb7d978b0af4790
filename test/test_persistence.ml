(* Canonical-key inverse, profiles-DB persistence, evaluator
   warm-start, confidence intervals and the portfolio. *)

let machine () = Fixtures.default_machine ()

let test_canonical_key_inverse () =
  let g, _, _ = Fixtures.shared_halo () in
  let space = Space.make ~extended:true g (machine ()) in
  let rng = Rng.create 3 in
  for _ = 1 to 25 do
    let m = Space.random_mapping space rng in
    match Mapping.of_canonical_key g (Mapping.canonical_key m) with
    | Some m' -> Alcotest.(check bool) "inverse" true (Mapping.equal m m')
    | None -> Alcotest.fail "key did not parse"
  done

let test_canonical_key_rejects_mismatch () =
  let g, _, _ = Fixtures.shared_halo () in
  Alcotest.(check bool) "garbage" true (Mapping.of_canonical_key g "nope" = None);
  Alcotest.(check bool) "wrong arity" true (Mapping.of_canonical_key g "D|B|C|S" = None);
  (* a key from a different graph shape *)
  let g2, _, _, _, _ = Fixtures.pipeline () in
  let k2 = Mapping.canonical_key (Mapping.default_start g2 (machine ())) in
  Alcotest.(check bool) "cross-graph" true (Mapping.of_canonical_key g k2 = None)

let test_db_save_load_round_trip () =
  let g, _, _ = Fixtures.shared_halo () in
  let db = Profiles_db.create () in
  let m1 = Mapping.default_start g (machine ()) in
  let m2 = Mapping.all_cpu g (machine ()) in
  ignore (Profiles_db.record db m1 [ 1.0; 1.2 ]);
  ignore (Profiles_db.record db m2 [ 0.5 ]);
  match Profiles_db.load g (Profiles_db.save db) with
  | Error e -> Alcotest.fail e
  | Ok db' ->
      Alcotest.(check int) "size" 2 (Profiles_db.size db');
      (match Profiles_db.find db' m1 with
      | Some e ->
          Alcotest.(check (float 1e-12)) "perf preserved" 1.1 e.Profiles_db.perf;
          Alcotest.(check int) "runs preserved" 2 (List.length e.Profiles_db.runs)
      | None -> Alcotest.fail "m1 lost");
      (match Profiles_db.best db' with
      | Some e -> Alcotest.(check bool) "best is m2" true (Mapping.equal e.Profiles_db.mapping m2)
      | None -> Alcotest.fail "no best")

let test_db_load_rejects_garbage () =
  let g, _, _ = Fixtures.shared_halo () in
  (match Profiles_db.load g "not-a-key 1.0" with
  | Error e -> Alcotest.(check bool) "mentions graph" true (Str_helpers.contains e "graph")
  | Ok _ -> Alcotest.fail "expected error");
  match Profiles_db.load g "" with
  | Ok db -> Alcotest.(check int) "empty ok" 0 (Profiles_db.size db)
  | Error e -> Alcotest.fail e

(* Property: save/load is the identity on databases of arbitrary valid
   mappings with arbitrary positive measurements ("%.17g" round-trips
   every finite double exactly). *)
let prop_db_round_trip =
  QCheck.Test.make ~count:50 ~name:"profiles-db save/load round trip"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g, _, _ = Fixtures.shared_halo () in
      let space = Space.make ~extended:true g (machine ()) in
      let rng = Rng.create seed in
      let db = Profiles_db.create () in
      for _ = 1 to 1 + Rng.int rng 20 do
        let m = Space.random_mapping space rng in
        let runs = List.init (1 + Rng.int rng 7) (fun _ -> Rng.float rng 50.0) in
        ignore (Profiles_db.record db m runs)
      done;
      match Profiles_db.load g (Profiles_db.save db) with
      | Error e -> QCheck.Test.fail_report e
      | Ok db' ->
          Profiles_db.size db' = Profiles_db.size db
          && List.for_all
               (fun (e : Profiles_db.entry) ->
                 match Profiles_db.find db' e.Profiles_db.mapping with
                 | Some e' ->
                     e'.Profiles_db.runs = e.Profiles_db.runs
                     && e'.Profiles_db.perf = e.Profiles_db.perf
                 | None -> false)
               (Profiles_db.top db (Profiles_db.size db)))

(* Property: [top] ranks by perf, then canonical key — the same order
   for a database and its save/load copy, even when most perfs tie
   (hash-table order differs between the two). *)
let prop_db_top_ties =
  QCheck.Test.make ~count:50 ~name:"profiles-db top breaks ties by key, across save/load"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g, _, _ = Fixtures.shared_halo () in
      let space = Space.make ~extended:true g (machine ()) in
      let rng = Rng.create seed in
      let db = Profiles_db.create () in
      for _ = 1 to 1 + Rng.int rng 30 do
        let perf = [| 1.0; 2.0; infinity |].(Rng.int rng 3) in
        ignore (Profiles_db.record db (Space.random_mapping space rng) [ perf ])
      done;
      let keys db k =
        List.map (fun e -> Mapping.canonical_key e.Profiles_db.mapping) (Profiles_db.top db k)
      in
      let n = Profiles_db.size db in
      let reference =
        List.map (fun e -> Mapping.canonical_key e.Profiles_db.mapping) (Rank_oracle.top db n)
      in
      match Profiles_db.load g (Profiles_db.save db) with
      | Error e -> QCheck.Test.fail_report e
      | Ok db' ->
          keys db n = reference
          && List.for_all
               (fun k ->
                 keys db k = List.filteri (fun i _ -> i < k) reference
                 && keys db' k = keys db k)
               (List.init (n + 2) Fun.id))

(* Property: the ranking kept as entries are recorded is the
   fold-and-sort oracle's, after every record — re-records of a key
   under a new perf, heavy ties and infinite perfs included — for
   out-of-range and boundary [k] alike, and again across save/load. *)
let prop_db_top_matches_oracle =
  QCheck.Test.make ~count:50 ~name:"profiles-db top equals the fold-and-sort oracle"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g, _, _ = Fixtures.shared_halo () in
      let space = Space.make ~extended:true g (machine ()) in
      let rng = Rng.create seed in
      let agrees db =
        let n = Profiles_db.size db in
        let reference = Rank_oracle.top db (n + 2) in
        List.for_all
          (fun k ->
            List.equal ( == ) (Profiles_db.top db k) (List.filteri (fun i _ -> i < k) reference))
          [ -1; 0; 1; 5; n; n + 2 ]
      in
      let db = Profiles_db.create () in
      let recorded = ref [] in
      let ok = ref true in
      for _ = 1 to 1 + Rng.int rng 40 do
        let m =
          if !recorded <> [] && Rng.int rng 3 = 0 then Rng.choose_list rng !recorded
          else Space.random_mapping space rng
        in
        recorded := m :: !recorded;
        let run () =
          match Rng.int rng 4 with 0 -> 1.0 | 1 -> 2.0 | 2 -> infinity | _ -> Rng.float rng 3.0
        in
        ignore (Profiles_db.record db m (List.init (1 + Rng.int rng 2) (fun _ -> run ())));
        ok := !ok && agrees db
      done;
      !ok
      &&
      match Profiles_db.load g (Profiles_db.save db) with
      | Error e -> QCheck.Test.fail_report e
      | Ok db' -> agrees db')

let test_db_load_rejects_nan () =
  let g, _, _ = Fixtures.shared_halo () in
  let k1 = Mapping.canonical_key (Mapping.default_start g (machine ())) in
  let k2 = Mapping.canonical_key (Mapping.all_cpu g (machine ())) in
  (* a NaN run, or runs whose mean is NaN, would rank first *)
  List.iter
    (fun runs ->
      match Profiles_db.load g (Printf.sprintf "%s 0.5\n%s %s\n" k1 k2 runs) with
      | Error e ->
          Alcotest.(check bool) ("rejects " ^ runs) true
            (Str_helpers.contains e "line 2: bad measurements")
      | Ok _ -> Alcotest.failf "NaN measurements %S accepted" runs)
    [ "nan"; "0.25 nan"; "-nan"; "inf -inf" ];
  match Profiles_db.load g (Printf.sprintf "%s 0.5\n%s inf\n" k1 k2) with
  | Ok db -> Alcotest.(check int) "inf loads" 2 (Profiles_db.size db)
  | Error e -> Alcotest.fail e

let test_db_load_rejects_duplicates () =
  let g, _, _ = Fixtures.shared_halo () in
  let db = Profiles_db.create () in
  let m = Mapping.default_start g (machine ()) in
  ignore (Profiles_db.record db m [ 1.0 ]);
  let line = String.trim (Profiles_db.save db) in
  match Profiles_db.load g (line ^ "\n" ^ line ^ "\n") with
  | Error e ->
      Alcotest.(check bool) "mentions duplicate" true (Str_helpers.contains e "duplicate");
      Alcotest.(check bool) "names the line" true (Str_helpers.contains e "line 2")
  | Ok _ -> Alcotest.fail "duplicate key accepted"

let test_evaluator_warm_start () =
  let g, _, _ = Fixtures.shared_halo () in
  (* first session measures and persists *)
  let ev1 = Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:0 (machine ()) g in
  let m = Mapping.default_start g (machine ()) in
  let p1 = Evaluator.evaluate ev1 m in
  let persisted = Profiles_db.save (Evaluator.db ev1) in
  (* second session reloads: the same mapping is a cache hit *)
  match Profiles_db.load g persisted with
  | Error e -> Alcotest.fail e
  | Ok db ->
      let ev2 = Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:9 ~db (machine ()) g in
      let p2 = Evaluator.evaluate ev2 m in
      Alcotest.(check (float 1e-12)) "same value from cache" p1 p2;
      Alcotest.(check int) "no execution" 0 (Evaluator.evaluated ev2);
      Alcotest.(check int) "one cache hit" 1 (Evaluator.cache_hits ev2)

let test_confidence_interval () =
  let lo, hi = Stats.confidence_interval_95 [ 10.0; 12.0; 11.0; 13.0; 9.0 ] in
  let m = Stats.mean [ 10.0; 12.0; 11.0; 13.0; 9.0 ] in
  Alcotest.(check bool) "contains mean" true (lo < m && m < hi);
  Alcotest.(check bool) "symmetric" true (abs_float (m -. lo -. (hi -. m)) < 1e-9);
  (* n=5, sd=sqrt(2.5), t=2.776: half-width = 2.776*sqrt(2.5/5) *)
  let expected_half = 2.776 *. sqrt (2.5 /. 5.0) in
  Alcotest.(check bool) "t-table width" true (abs_float (hi -. m -. expected_half) < 1e-9);
  let lo1, hi1 = Stats.confidence_interval_95 [ 4.2 ] in
  Alcotest.(check (float 0.0)) "singleton lo" 4.2 lo1;
  Alcotest.(check (float 0.0)) "singleton hi" 4.2 hi1

let test_ci_narrows_with_samples () =
  let rng = Rng.create 5 in
  let sample n = List.init n (fun _ -> 10.0 +. Rng.gaussian rng) in
  let width xs =
    let lo, hi = Stats.confidence_interval_95 xs in
    hi -. lo
  in
  Alcotest.(check bool) "30 samples narrower than 5" true (width (sample 30) < width (sample 5))

let test_portfolio () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev = Evaluator.create ~runs:2 ~noise_sigma:0.0 ~seed:0 (machine ()) g in
  let p0 = Evaluator.evaluate ev (Mapping.default_start g (machine ())) in
  let best, p = Fixtures.search ev (Portfolio.make ~seed:1 ev) in
  Alcotest.(check bool) "valid" true (Mapping.is_valid g (machine ()) best);
  Alcotest.(check bool) "no worse than default" true (p <= p0);
  (* the shared DB means members dedup against each other *)
  Alcotest.(check bool) "cache hits across members" true (Evaluator.cache_hits ev > 0)

let test_portfolio_validation () =
  let g, _, _ = Fixtures.shared_halo () in
  let ev = Evaluator.create ~runs:1 ~noise_sigma:0.0 (machine ()) g in
  Alcotest.check_raises "no members" (Invalid_argument "Portfolio.make: no members")
    (fun () -> ignore (Portfolio.make ~members:[] ev))

let suite =
  [
    Alcotest.test_case "canonical key inverse" `Quick test_canonical_key_inverse;
    Alcotest.test_case "key mismatch" `Quick test_canonical_key_rejects_mismatch;
    Alcotest.test_case "db round trip" `Quick test_db_save_load_round_trip;
    Alcotest.test_case "db garbage" `Quick test_db_load_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_db_round_trip;
    Alcotest.test_case "db duplicates" `Quick test_db_load_rejects_duplicates;
    Alcotest.test_case "warm start" `Quick test_evaluator_warm_start;
    Alcotest.test_case "confidence interval" `Quick test_confidence_interval;
    Alcotest.test_case "ci narrows" `Quick test_ci_narrows_with_samples;
    Alcotest.test_case "portfolio" `Quick test_portfolio;
    Alcotest.test_case "portfolio validation" `Quick test_portfolio_validation;
    QCheck_alcotest.to_alcotest prop_db_top_ties;
    QCheck_alcotest.to_alcotest prop_db_top_matches_oracle;
    Alcotest.test_case "db rejects nan" `Quick test_db_load_rejects_nan;
  ]
