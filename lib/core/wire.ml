(* The serve daemon's wire format: newline-delimited JSON, hand-rolled
   (the toolchain has no JSON library and the protocol needs only the
   core grammar).  One request per line in, one response per line out;
   the printer never emits a raw newline, so framing is trivial.

   Bit-exactness across the wire: performance numbers travel twice,
   as a decimal [Num] for humans and as a ["%h"] hex string — decimal
   printing uses 17 significant digits (lossless for binary64), and
   the hex field makes the cold-vs-warm bit-equality check in CI a
   plain string comparison. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ---- printer ---------------------------------------------------------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_string f =
  if Float.is_nan f || Float.is_integer f = false then
    if Float.is_finite f then Printf.sprintf "%.17g" f
    else "null" (* JSON has no infinities; nan falls through below *)
  else if Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f ->
      Buffer.add_string buf
        (if Float.is_finite f then number_string f else "null")
  | Str s -> escape_string buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* ---- parser ----------------------------------------------------------- *)

exception Parse of string

let of_string ?max_bytes s =
  match max_bytes with
  | Some m when String.length s > m ->
      Error
        (Printf.sprintf "payload too large: %d bytes (limit %d)"
           (String.length s) m)
  | _ -> (
      let n = String.length s in
      let pos = ref 0 in
      let fail fmt =
        Printf.ksprintf (fun m -> raise (Parse (Printf.sprintf "%s at byte %d" m !pos))) fmt
      in
      let peek () = if !pos >= n then fail "unexpected end of input" else s.[!pos] in
      let advance () = incr pos in
      let skip_ws () =
        while
          !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
        do
          incr pos
        done
      in
      let expect c =
        if peek () <> c then fail "expected %C" c;
        advance ()
      in
      let literal word v =
        String.iter expect word;
        v
      in
      let parse_hex4 () =
        let v = ref 0 in
        for _ = 1 to 4 do
          let d =
            match peek () with
            | '0' .. '9' as c -> Char.code c - Char.code '0'
            | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
            | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
            | _ -> fail "bad \\u escape"
          in
          v := (!v * 16) + d;
          advance ()
        done;
        !v
      in
      let add_utf8 buf cp =
        if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
        else if cp < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
        end
        else if cp < 0x10000 then begin
          Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
          Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
        end
      in
      (* A \u escape in 0xD800-0xDBFF is a UTF-16 high surrogate: combine
         it with an immediately following \uDC00-\uDFFF low surrogate
         into one non-BMP code point.  A lone surrogate keeps the legacy
         3-byte encoding (the input was already non-conforming). *)
      let parse_escaped_cp () =
        let hi = parse_hex4 () in
        if hi >= 0xD800 && hi <= 0xDBFF
           && !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
        then begin
          let save = !pos in
          advance ();
          advance ();
          let lo = parse_hex4 () in
          if lo >= 0xDC00 && lo <= 0xDFFF then
            0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
          else begin
            (* not a low surrogate: rewind and let go () re-parse it *)
            pos := save;
            hi
          end
        end
        else hi
      in
      let parse_string () =
        expect '"';
        let buf = Buffer.create 16 in
        let rec go () =
          match peek () with
          | '"' -> advance ()
          | '\\' ->
              advance ();
              (match peek () with
              | '"' -> Buffer.add_char buf '"'; advance ()
              | '\\' -> Buffer.add_char buf '\\'; advance ()
              | '/' -> Buffer.add_char buf '/'; advance ()
              | 'n' -> Buffer.add_char buf '\n'; advance ()
              | 'r' -> Buffer.add_char buf '\r'; advance ()
              | 't' -> Buffer.add_char buf '\t'; advance ()
              | 'b' -> Buffer.add_char buf '\b'; advance ()
              | 'f' -> Buffer.add_char buf '\012'; advance ()
              | 'u' ->
                  advance ();
                  add_utf8 buf (parse_escaped_cp ())
              | c -> fail "bad escape \\%C" c);
              go ()
          | c when Char.code c < 0x20 -> fail "raw control character in string"
          | c ->
              Buffer.add_char buf c;
              advance ();
              go ()
        in
        go ();
        Buffer.contents buf
      in
      let parse_number () =
        let start = !pos in
        let num_char c =
          match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        in
        while !pos < n && num_char s.[!pos] do
          incr pos
        done;
        let tok = String.sub s start (!pos - start) in
        match float_of_string_opt tok with
        | Some f -> Num f
        | None -> fail "bad number %S" tok
      in
      (* The recursion is bounded: a hostile request of millions of '['
         would otherwise overflow the stack, and Stack_overflow escapes
         the Parse handler below. *)
      let max_depth = 256 in
      let rec parse_value depth =
        if depth > max_depth then fail "nesting deeper than %d" max_depth;
        skip_ws ();
        match peek () with
        | 'n' -> literal "null" Null
        | 't' -> literal "true" (Bool true)
        | 'f' -> literal "false" (Bool false)
        | '"' -> Str (parse_string ())
        | '[' ->
            advance ();
            skip_ws ();
            if peek () = ']' then begin advance (); Arr [] end
            else begin
              let items = ref [ parse_value (depth + 1) ] in
              skip_ws ();
              while peek () = ',' do
                advance ();
                items := parse_value (depth + 1) :: !items;
                skip_ws ()
              done;
              expect ']';
              Arr (List.rev !items)
            end
        | '{' ->
            advance ();
            skip_ws ();
            if peek () = '}' then begin advance (); Obj [] end
            else begin
              let field () =
                skip_ws ();
                let k = parse_string () in
                skip_ws ();
                expect ':';
                let v = parse_value (depth + 1) in
                (k, v)
              in
              let fields = ref [ field () ] in
              skip_ws ();
              while peek () = ',' do
                advance ();
                fields := field () :: !fields;
                skip_ws ()
              done;
              expect '}';
              Obj (List.rev !fields)
            end
        | _ -> parse_number ()
      in
      try
        let v = parse_value 0 in
        skip_ws ();
        if !pos <> n then Error (Printf.sprintf "trailing garbage at byte %d" !pos)
        else Ok v
      with
      | Parse m -> Error m
      | Stack_overflow -> Error "input too deeply nested")

(* ---- field helpers ---------------------------------------------------- *)

let field fields k = List.assoc_opt k fields

let str_opt fields k =
  match field fields k with Some (Str s) -> Some s | _ -> None

let num_opt fields k =
  match field fields k with Some (Num f) -> Some f | _ -> None

let int_opt fields k = Option.map int_of_float (num_opt fields k)

let bool_def fields k d =
  match field fields k with Some (Bool b) -> b | _ -> d

let int_def fields k d = match int_opt fields k with Some v -> v | None -> d
let str_def fields k d = match str_opt fields k with Some v -> v | None -> d

let opt_field k f = function None -> [] | Some v -> [ (k, f v) ]

(* ---- workload --------------------------------------------------------- *)

type workload = {
  w_app : string option;
  w_input : string option;
  w_nodes : int;
  w_cluster : string;
  w_graph : string option;
  w_machine : string option;
}

let default_workload =
  {
    w_app = None;
    w_input = None;
    w_nodes = 1;
    w_cluster = "shepard";
    w_graph = None;
    w_machine = None;
  }

let workload_fields w =
  opt_field "app" (fun s -> Str s) w.w_app
  @ opt_field "input" (fun s -> Str s) w.w_input
  @ [ ("nodes", Num (float_of_int w.w_nodes)); ("cluster", Str w.w_cluster) ]
  @ opt_field "graph" (fun s -> Str s) w.w_graph
  @ opt_field "machine" (fun s -> Str s) w.w_machine

let workload_of_fields fields =
  {
    w_app = str_opt fields "app";
    w_input = str_opt fields "input";
    w_nodes = int_def fields "nodes" default_workload.w_nodes;
    w_cluster = str_def fields "cluster" default_workload.w_cluster;
    w_graph = str_opt fields "graph";
    w_machine = str_opt fields "machine";
  }

(* ---- search config ---------------------------------------------------- *)

let cfg_fields (c : Slice.cfg) =
  let d = Slice.default_cfg in
  let if_ne field v dv mk = if v = dv then [] else [ (field, mk v) ]in
  if_ne "algo" c.Slice.algo d.Slice.algo (fun a -> Str (Slice.algo_spec a))
  @ if_ne "runs" c.Slice.runs d.Slice.runs (fun v -> Num (float_of_int v))
  @ opt_field "noise_sigma" (fun v -> Num v) c.Slice.noise_sigma
  @ opt_field "iterations" (fun v -> Num (float_of_int v)) c.Slice.iterations
  @ if_ne "seed" c.Slice.seed d.Slice.seed (fun v -> Num (float_of_int v))
  @ opt_field "budget" (fun v -> Num v) c.Slice.budget
  @ opt_field "max_trials" (fun v -> Num (float_of_int v)) c.Slice.max_trials
  @ if_ne "batch" c.Slice.batch d.Slice.batch (fun v -> Bool v)
  @ if_ne "min_batch" c.Slice.min_batch d.Slice.min_batch (fun v ->
        Num (float_of_int v))
  @ if_ne "surrogate" c.Slice.surrogate d.Slice.surrogate (fun v -> Bool v)
  @ opt_field "surrogate_skim" (fun v -> Num (float_of_int v)) c.Slice.surrogate_skim
  @ if_ne "symmetry" c.Slice.symmetry d.Slice.symmetry (fun v -> Bool v)
  @ if_ne "dominance" c.Slice.dominance d.Slice.dominance (fun v -> Bool v)
  @ if_ne "heft_seed" c.Slice.heft_seed d.Slice.heft_seed (fun v -> Bool v)
  @ if_ne "final_top" c.Slice.final_top d.Slice.final_top (fun v ->
        Num (float_of_int v))
  @ if_ne "final_runs" c.Slice.final_runs d.Slice.final_runs (fun v ->
        Num (float_of_int v))

(* Each run is one full simulation per candidate, and the final
   protocol re-runs [final_top] mappings [final_runs] times, so one
   request may ask for at most this many of each (the paper uses 7
   runs and 5 x 30 final runs). *)
let max_runs = 1000

let cfg_of_fields fields =
  let d = Slice.default_cfg in
  let ( let* ) = Result.bind in
  let bounded k dv =
    let v = int_def fields k dv in
    if v >= 1 && v <= max_runs then Ok v
    else Error (Printf.sprintf "%s must be in 1..%d (got %d)" k max_runs v)
  in
  let* runs = bounded "runs" d.Slice.runs in
  let* final_top = bounded "final_top" d.Slice.final_top in
  let* final_runs = bounded "final_runs" d.Slice.final_runs in
  let* algo =
    match str_opt fields "algo" with
    | None -> Ok d.Slice.algo
    | Some s -> Driver.algo_of_string s
  in
  Ok
    {
      Slice.algo;
      runs;
      noise_sigma = num_opt fields "noise_sigma";
      iterations = int_opt fields "iterations";
      seed = int_def fields "seed" d.Slice.seed;
      budget = num_opt fields "budget";
      max_trials = int_opt fields "max_trials";
      batch = bool_def fields "batch" d.Slice.batch;
      min_batch = int_def fields "min_batch" d.Slice.min_batch;
      surrogate = bool_def fields "surrogate" d.Slice.surrogate;
      surrogate_skim = int_opt fields "surrogate_skim";
      symmetry = bool_def fields "symmetry" d.Slice.symmetry;
      dominance = bool_def fields "dominance" d.Slice.dominance;
      heft_seed = bool_def fields "heft_seed" d.Slice.heft_seed;
      final_top;
      final_runs;
    }

(* ---- requests --------------------------------------------------------- *)

type request =
  | Ping
  | Status
  | Shutdown
  | Analyze of { an_id : string; workload : workload }
  | Map of {
      m_id : string;
      workload : workload;
      cfg : Slice.cfg;
      wait : bool;
      warm : bool;
    }
  | Poll of { p_id : string }

let request_to_json = function
  | Ping -> Obj [ ("type", Str "ping") ]
  | Status -> Obj [ ("type", Str "status") ]
  | Shutdown -> Obj [ ("type", Str "shutdown") ]
  | Analyze { an_id; workload } ->
      Obj ((("type", Str "analyze") :: ("id", Str an_id) :: workload_fields workload))
  | Map { m_id; workload; cfg; wait; warm } ->
      Obj
        (("type", Str "map") :: ("id", Str m_id)
        :: (if wait then [ ("wait", Bool true) ] else [])
        @ (if warm then [] else [ ("warm", Bool false) ])
        @ workload_fields workload @ cfg_fields cfg)
  | Poll { p_id } -> Obj [ ("type", Str "result"); ("id", Str p_id) ]

let request_of_json j =
  let ( let* ) = Result.bind in
  match j with
  | Obj fields -> (
      let* id =
        match str_opt fields "id" with
        | Some id when String.length id > 0 && String.length id <= 128 -> Ok id
        | Some _ -> Error "id must be 1..128 characters"
        | None -> Ok ""
      in
      match str_opt fields "type" with
      | Some "ping" -> Ok Ping
      | Some "status" -> Ok Status
      | Some "shutdown" -> Ok Shutdown
      | Some "analyze" ->
          if id = "" then Error "analyze: missing id"
          else Ok (Analyze { an_id = id; workload = workload_of_fields fields })
      | Some ("map" | "search") ->
          if id = "" then Error "map: missing id"
          else
            let* cfg = cfg_of_fields fields in
            Ok
              (Map
                 {
                   m_id = id;
                   workload = workload_of_fields fields;
                   cfg;
                   wait = bool_def fields "wait" false;
                   warm = bool_def fields "warm" true;
                 })
      | Some ("result" | "poll") ->
          (* "result" is the canonical spelling; "poll" is accepted. *)
          if id = "" then Error "result: missing id" else Ok (Poll { p_id = id })
      | Some other -> Error (Printf.sprintf "unknown request type %S" other)
      | None -> Error "missing request type")
  | _ -> Error "request must be a JSON object"

(* ---- responses -------------------------------------------------------- *)

type job_state = Queued | Running | Done | Failed

let job_state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"

let job_state_of_string = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | _ -> None

type result_payload = {
  r_id : string;
  r_state : job_state;
  r_mapping : string option;   (* canonical key, when done *)
  r_perf : float option;       (* final protocol average (or best-so-far) *)
  r_perf_hex : string option;  (* the same value, %h — bit-exact *)
  r_trials : int;
  r_cached : bool;             (* answered from the result memo *)
  r_warm_started : bool;
  r_error : string option;     (* failure reason, when failed *)
}

type response =
  | Pong
  | R_error of { e_id : string option; message : string }
  | R_accepted of { a_id : string }
  | R_status of {
      requests : int;
      jobs : (string * job_state) list;
      counters : (string * int) list;
    }
  | R_analysis of { ra_id : string; report : string list }
  | R_result of result_payload

let response_to_json = function
  | Pong -> Obj [ ("type", Str "pong") ]
  | R_error { e_id; message } ->
      Obj
        (("type", Str "error")
         :: opt_field "id" (fun s -> Str s) e_id
        @ [ ("message", Str message) ])
  | R_accepted { a_id } -> Obj [ ("type", Str "accepted"); ("id", Str a_id) ]
  | R_status { requests; jobs; counters } ->
      Obj
        [
          ("type", Str "status");
          ("requests", Num (float_of_int requests));
          ("jobs", Obj (List.map (fun (k, s) -> (k, Str (job_state_to_string s))) jobs));
          ("counters", Obj (List.map (fun (k, v) -> (k, Num (float_of_int v))) counters));
        ]
  | R_analysis { ra_id; report } ->
      Obj
        [
          ("type", Str "analysis");
          ("id", Str ra_id);
          ("report", Arr (List.map (fun l -> Str l) report));
        ]
  | R_result r ->
      Obj
        (("type", Str "result")
         :: ("id", Str r.r_id)
         :: ("state", Str (job_state_to_string r.r_state))
         :: opt_field "mapping" (fun s -> Str s) r.r_mapping
        @ opt_field "perf" (fun v -> Num v) r.r_perf
        @ opt_field "perf_hex" (fun s -> Str s) r.r_perf_hex
        @ [
            ("trials", Num (float_of_int r.r_trials));
            ("cached", Bool r.r_cached);
            ("warm_started", Bool r.r_warm_started);
          ]
        @ opt_field "error" (fun s -> Str s) r.r_error)

let response_of_json j =
  let ( let* ) = Result.bind in
  match j with
  | Obj fields -> (
      match str_opt fields "type" with
      | Some "pong" -> Ok Pong
      | Some "error" -> (
          match str_opt fields "message" with
          | Some message -> Ok (R_error { e_id = str_opt fields "id"; message })
          | None -> Error "error response: missing message")
      | Some "accepted" -> (
          match str_opt fields "id" with
          | Some a_id -> Ok (R_accepted { a_id })
          | None -> Error "accepted response: missing id")
      | Some "status" ->
          let* jobs =
            match field fields "jobs" with
            | Some (Obj js) ->
                List.fold_left
                  (fun acc (k, v) ->
                    let* acc = acc in
                    match v with
                    | Str s -> (
                        match job_state_of_string s with
                        | Some st -> Ok ((k, st) :: acc)
                        | None -> Error (Printf.sprintf "bad job state %S" s))
                    | _ -> Error "job state must be a string")
                  (Ok []) js
                |> Result.map List.rev
            | None -> Ok []
            | Some _ -> Error "jobs must be an object"
          in
          let* counters =
            match field fields "counters" with
            | Some (Obj cs) ->
                List.fold_left
                  (fun acc (k, v) ->
                    let* acc = acc in
                    match v with
                    | Num f -> Ok ((k, int_of_float f) :: acc)
                    | _ -> Error "counter must be a number")
                  (Ok []) cs
                |> Result.map List.rev
            | None -> Ok []
            | Some _ -> Error "counters must be an object"
          in
          Ok (R_status { requests = int_def fields "requests" 0; jobs; counters })
      | Some "analysis" -> (
          match (str_opt fields "id", field fields "report") with
          | Some ra_id, Some (Arr lines) ->
              let* report =
                List.fold_left
                  (fun acc l ->
                    let* acc = acc in
                    match l with
                    | Str s -> Ok (s :: acc)
                    | _ -> Error "report lines must be strings")
                  (Ok []) lines
                |> Result.map List.rev
              in
              Ok (R_analysis { ra_id; report })
          | None, _ -> Error "analysis response: missing id"
          | _, _ -> Error "analysis response: missing report")
      | Some "result" -> (
          match (str_opt fields "id", str_opt fields "state") with
          | Some r_id, Some state -> (
              match job_state_of_string state with
              | Some r_state ->
                  Ok
                    (R_result
                       {
                         r_id;
                         r_state;
                         r_mapping = str_opt fields "mapping";
                         r_perf = num_opt fields "perf";
                         r_perf_hex = str_opt fields "perf_hex";
                         r_trials = int_def fields "trials" 0;
                         r_cached = bool_def fields "cached" false;
                         r_warm_started = bool_def fields "warm_started" false;
                         r_error = str_opt fields "error";
                       })
              | None -> Error (Printf.sprintf "bad result state %S" state))
          | _ -> Error "result response: missing id or state")
      | Some other -> Error (Printf.sprintf "unknown response type %S" other)
      | None -> Error "missing response type")
  | _ -> Error "response must be a JSON object"

(* ---- line-level conveniences ------------------------------------------ *)

let default_max_bytes = 4 * 1024 * 1024

let request_of_string ?(max_bytes = default_max_bytes) line =
  Result.bind (of_string ~max_bytes line) request_of_json

let request_to_string r = to_string (request_to_json r)

let response_of_string ?(max_bytes = default_max_bytes) line =
  Result.bind (of_string ~max_bytes line) response_of_json

let response_to_string r = to_string (response_to_json r)
