(* Wire-protocol codec: random JSON values, requests and responses must
   survive print -> parse exactly (the daemon's cold/warm bit-equality
   guarantee rides on this), and hostile inputs — oversized payloads,
   malformed JSON, unknown types — must come back as typed errors, never
   exceptions. *)

open QCheck

(* ---- generators ------------------------------------------------------- *)

let finite_float =
  Gen.map (fun f -> if Float.is_finite f then f else 0.0) Gen.float

let short_string = Gen.(string_size ~gen:printable (int_bound 16))
let ident = Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 12))

let json_gen =
  Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Wire.Null;
                 map (fun b -> Wire.Bool b) bool;
                 map (fun f -> Wire.Num f) finite_float;
                 map (fun s -> Wire.Str s) short_string;
               ]
           in
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map (fun l -> Wire.Arr l) (list_size (int_bound 4) (self (n - 1)));
                 map
                   (fun l -> Wire.Obj l)
                   (list_size (int_bound 4) (pair ident (self (n - 1))));
               ]))

let algo_gen =
  Gen.(
    oneof
      [
        return Driver.Cd;
        map (fun r -> Driver.Ccd { rotations = r }) (int_range 2 9);
        return Driver.Ensemble_tuner;
        map (fun m -> Driver.Random_walk { max_evals = m }) (int_range 1 5000);
        map (fun m -> Driver.Annealing { max_evals = m }) (int_range 1 5000);
        return Driver.Portfolio;
        return Driver.Heft;
      ])

let opt g = Gen.(oneof [ return None; map Option.some g ])

let cfg_gen =
  Gen.(
    let* algo = algo_gen in
    let* runs = int_range 1 30 and* seed = int_range 0 999 in
    let* noise_sigma = opt (map (fun f -> Float.abs f) finite_float)
    and* iterations = opt (int_range 1 10) in
    let* budget = opt (map Float.abs finite_float)
    and* max_trials = opt (int_range 1 100000) in
    let* batch = bool and* min_batch = int_range 1 64 in
    let* surrogate = bool and* surrogate_skim = opt (int_range 1 32) in
    let* symmetry = bool and* dominance = bool in
    let* heft_seed = bool in
    let* final_top = int_range 1 10 and* final_runs = int_range 1 50 in
    return
      {
        Slice.algo;
        runs;
        noise_sigma;
        iterations;
        seed;
        budget;
        max_trials;
        batch;
        min_batch;
        surrogate;
        surrogate_skim;
        symmetry;
        dominance;
        heft_seed;
        final_top;
        final_runs;
      })

let workload_gen =
  Gen.(
    let* w_app = opt ident and* w_input = opt short_string in
    let* w_nodes = int_range 1 8 and* w_cluster = ident in
    let* w_graph = opt short_string and* w_machine = opt short_string in
    return { Wire.w_app; w_input; w_nodes; w_cluster; w_graph; w_machine })

let request_gen =
  Gen.(
    oneof
      [
        return Wire.Ping;
        return Wire.Status;
        return Wire.Shutdown;
        map2
          (fun an_id workload -> Wire.Analyze { an_id; workload })
          ident workload_gen;
        (let* m_id = ident and* workload = workload_gen and* cfg = cfg_gen in
         let* wait = bool and* warm = bool in
         return (Wire.Map { m_id; workload; cfg; wait; warm }));
        map (fun p_id -> Wire.Poll { p_id }) ident;
      ])

let job_state_gen =
  Gen.oneofl [ Wire.Queued; Wire.Running; Wire.Done; Wire.Failed ]

let response_gen =
  Gen.(
    oneof
      [
        return Wire.Pong;
        map2
          (fun e_id message -> Wire.R_error { e_id; message })
          (opt ident) short_string;
        map (fun a_id -> Wire.R_accepted { a_id }) ident;
        (let* requests = int_bound 100000 in
         let* jobs = list_size (int_bound 5) (pair ident job_state_gen) in
         let* counters = list_size (int_bound 8) (pair ident (int_bound 1000000)) in
         return (Wire.R_status { requests; jobs; counters }));
        map2
          (fun ra_id report -> Wire.R_analysis { ra_id; report })
          ident
          (list_size (int_bound 6) short_string);
        (let* r_id = ident and* r_state = job_state_gen in
         let* r_mapping = opt short_string and* r_perf = opt finite_float in
         let* r_trials = int_bound 100000 in
         let* r_cached = bool and* r_warm_started = bool in
         let* r_error = opt short_string in
         let r_perf_hex = Option.map (Printf.sprintf "%h") r_perf in
         return
           (Wire.R_result
              {
                r_id;
                r_state;
                r_mapping;
                r_perf;
                r_perf_hex;
                r_trials;
                r_cached;
                r_warm_started;
                r_error;
              }));
      ])

(* ---- round-trip properties -------------------------------------------- *)

let prop name gen f = Test.make ~count:300 ~name (make gen) f

let json_round_trip =
  prop "json survives print -> parse" json_gen (fun j ->
      Wire.of_string (Wire.to_string j) = Ok j)

let request_round_trip =
  prop "requests survive print -> parse" request_gen (fun r ->
      Wire.request_of_string (Wire.request_to_string r) = Ok r)

let response_round_trip =
  prop "responses survive print -> parse" response_gen (fun r ->
      Wire.response_of_string (Wire.response_to_string r) = Ok r)

let request_is_one_line =
  prop "printed requests never contain a raw newline" request_gen (fun r ->
      not (String.contains (Wire.request_to_string r) '\n'))

let response_is_one_line =
  prop "printed responses never contain a raw newline" response_gen (fun r ->
      not (String.contains (Wire.response_to_string r) '\n'))

let parse_never_raises =
  prop "parsing arbitrary bytes never raises"
    Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 64))
    (fun s ->
      match Wire.of_string s with Ok _ | Error _ -> true)

(* ---- unit cases ------------------------------------------------------- *)

let check_parse () =
  let ok s v =
    Alcotest.(check bool) s true (Wire.of_string s = Ok v)
  in
  ok "null" Wire.Null;
  ok "[1,2.5,-3]" (Wire.Arr [ Wire.Num 1.0; Wire.Num 2.5; Wire.Num (-3.0) ]);
  ok {|{"a":true,"b":[{}]}|}
    (Wire.Obj [ ("a", Wire.Bool true); ("b", Wire.Arr [ Wire.Obj [] ]) ]);
  ok {|"A\n\t\\\""|} (Wire.Str "A\n\t\\\"");
  ok "  { \"x\" : 1e3 }  " (Wire.Obj [ ("x", Wire.Num 1000.0) ])

let check_parse_errors () =
  let bad s =
    match Wire.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a parse error for %S" s
  in
  bad "";
  bad "{";
  bad "nul";
  bad "[1,]";
  bad {|{"a" 1}|};
  bad "1 2";
  bad "\"raw\ncontrol\"";
  bad {|{"unterminated|}

let check_depth_limit () =
  (* a nesting bomb within the byte cap must come back as Error, not
     Stack_overflow *)
  let bomb = String.make 100_000 '[' in
  (match Wire.of_string bomb with
  | Error e ->
      Alcotest.(check bool) "mentions nesting" true (Str_helpers.contains e "nest")
  | Ok _ -> Alcotest.fail "nesting bomb must be rejected");
  (* modest nesting still parses *)
  let modest = String.make 50 '[' ^ "1" ^ String.make 50 ']' in
  match Wire.of_string modest with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "50-deep nesting must parse: %s" e

let check_surrogate_pairs () =
  (* U+1F600 (grinning face) arrives as a UTF-16 surrogate pair and
     must decode to one 4-byte UTF-8 sequence *)
  (match Wire.of_string {|"\ud83d\ude00"|} with
  | Ok (Wire.Str s) -> Alcotest.(check string) "pair combines" "\xF0\x9F\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair must parse");
  (* BMP escapes are unaffected *)
  (match Wire.of_string {|"\u00e9"|} with
  | Ok (Wire.Str s) -> Alcotest.(check string) "BMP escape" "\xC3\xA9" s
  | _ -> Alcotest.fail "BMP escape must parse");
  (* a high surrogate not followed by a low one parses (legacy 3-byte
     form), and the following escape is decoded independently *)
  match Wire.of_string {|"\ud83dA"|} with
  | Ok (Wire.Str s) ->
      Alcotest.(check string) "lone surrogate + BMP" "\xED\xA0\xBDA" s
  | _ -> Alcotest.fail "lone surrogate must still parse"

let check_oversized () =
  let big = "\"" ^ String.make 200 'x' ^ "\"" in
  (match Wire.of_string ~max_bytes:64 big with
  | Error e ->
      Alcotest.(check bool) "mentions the limit" true
        (Str_helpers.contains e "too large")
  | Ok _ -> Alcotest.fail "oversized payload must be rejected");
  (* under the limit the same payload parses *)
  match Wire.of_string ~max_bytes:4096 big with
  | Ok (Wire.Str s) -> Alcotest.(check int) "content intact" 200 (String.length s)
  | _ -> Alcotest.fail "payload under the limit must parse"

let check_request_errors () =
  let bad line frag =
    match Wire.request_of_string line with
    | Error e ->
        Alcotest.(check bool) (frag ^ " mentioned") true (Str_helpers.contains e frag)
    | Ok _ -> Alcotest.failf "expected an error for %s" line
  in
  bad {|{"type":"teleport"}|} "unknown request type";
  bad {|{"type":"map"}|} "missing id";
  bad {|{"type":"result"}|} "missing id";
  bad {|{"type":"map","id":"j","algo":"quantum"}|} "unknown algorithm";
  bad {|[1,2]|} "object";
  bad "{" "";
  let too_long = String.make 200 'a' in
  bad (Printf.sprintf {|{"type":"map","id":"%s"}|} too_long) "128"

let check_error_response_round_trip () =
  let r = Wire.R_error { e_id = Some "j9"; message = "no such \"job\"" } in
  Alcotest.(check bool) "error response round-trips" true
    (Wire.response_of_string (Wire.response_to_string r) = Ok r);
  let anon = Wire.R_error { e_id = None; message = "parse failure at byte 3" } in
  Alcotest.(check bool) "anonymous error round-trips" true
    (Wire.response_of_string (Wire.response_to_string anon) = Ok anon)

let check_defaults () =
  match Wire.request_of_string {|{"type":"map","id":"j1","app":"stencil"}|} with
  | Ok (Wire.Map { cfg; workload; wait; warm; _ }) ->
      Alcotest.(check bool) "default cfg" true (cfg = Slice.default_cfg);
      Alcotest.(check string) "app" "stencil" (Option.get workload.Wire.w_app);
      Alcotest.(check int) "nodes default" 1 workload.Wire.w_nodes;
      Alcotest.(check bool) "wait defaults false" false wait;
      Alcotest.(check bool) "warm defaults true" true warm;
      (match Wire.request_of_string {|{"type":"poll","id":"j2"}|} with
      | Ok (Wire.Poll { p_id }) -> Alcotest.(check string) "poll alias" "j2" p_id
      | _ -> Alcotest.fail "\"poll\" must parse as the result request")
  | Ok _ -> Alcotest.fail "parsed as the wrong request"
  | Error e -> Alcotest.fail e

(* The CLI's --algo and a request's "algo" go through one parser: each
   spelling names the same Driver.algo on both sides, or is refused on
   both, and the command line runs a name:N spelling. *)
let check_algo_spellings () =
  let wire s =
    match
      Wire.request_of_string (Printf.sprintf {|{"type":"map","id":"j","algo":"%s"}|} s)
    with
    | Ok (Wire.Map { cfg; _ }) -> Ok cfg.Slice.algo
    | Ok _ -> Alcotest.fail "parsed as the wrong request"
    | Error e -> Error e
  in
  List.iter
    (fun (s, expected) ->
      Alcotest.(check bool) (s ^ " on the command line") true
        (Driver.algo_of_string s = Ok expected);
      Alcotest.(check bool) (s ^ " on the wire") true (wire s = Ok expected))
    [
      ("ccd", Driver.Ccd { rotations = 5 });
      ("CCD", Driver.Ccd { rotations = 5 });
      ("ccd:3", Driver.Ccd { rotations = 3 });
      ("cd", Driver.Cd);
      ("ensemble", Driver.Ensemble_tuner);
      ("OT", Driver.Ensemble_tuner);
      ("opentuner", Driver.Ensemble_tuner);
      ("random", Driver.Random_walk { max_evals = 1000 });
      ("random:500", Driver.Random_walk { max_evals = 500 });
      ("annealing", Driver.Annealing { max_evals = 2000 });
      ("Annealing:300", Driver.Annealing { max_evals = 300 });
      ("portfolio", Driver.Portfolio);
      ("heft", Driver.Heft);
    ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " refused on the command line") true
        (Result.is_error (Driver.algo_of_string s));
      Alcotest.(check bool) (s ^ " refused on the wire") true (Result.is_error (wire s)))
    [ "quantum"; "ccd:x"; "ccd:1"; "cd:3"; "random:"; "ccd:3:4" ];
  let exe = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "automap_cli.exe" in
  if Sys.file_exists exe then begin
    let out = Filename.temp_file "automap" ".out" in
    Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
    let code =
      Sys.command
        (Printf.sprintf
           "%s search -a stencil -i 500x500 -n 1 --algo ccd:3 --runs 1 --max-trials 4 \
            >%s 2>&1"
           exe (Filename.quote out))
    in
    let msg = In_channel.with_open_bin out In_channel.input_all in
    Alcotest.(check int) ("--algo ccd:3 runs: " ^ msg) 0 code;
    Alcotest.(check bool) ("it runs CCD(3): " ^ msg) true (Str_helpers.contains msg "CCD(3)")
  end

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      json_round_trip;
      request_round_trip;
      response_round_trip;
      request_is_one_line;
      response_is_one_line;
      parse_never_raises;
    ]
  @ [
      Alcotest.test_case "parser accepts the JSON grammar" `Quick check_parse;
      Alcotest.test_case "parser rejects malformed input" `Quick check_parse_errors;
      Alcotest.test_case "nesting bombs are rejected" `Quick check_depth_limit;
      Alcotest.test_case "surrogate pairs decode to 4-byte UTF-8" `Quick
        check_surrogate_pairs;
      Alcotest.test_case "oversized payloads are rejected" `Quick check_oversized;
      Alcotest.test_case "bad requests become typed errors" `Quick check_request_errors;
      Alcotest.test_case "error responses round-trip" `Quick check_error_response_round_trip;
      Alcotest.test_case "map defaults match Slice.default_cfg" `Quick check_defaults;
      Alcotest.test_case "the CLI and the wire spell algorithms alike" `Quick
        check_algo_spellings;
    ]
