(** The serve daemon's wire protocol: newline-delimited JSON.

    Hand-rolled codec (the toolchain carries no JSON library): a
    minimal [json] value type, a recursive-descent parser with an
    oversized-payload guard, a compact printer that never emits a raw
    newline (so one line = one message), and typed request/response
    encodings shared by the server, the CLI client, tests and the
    servrate bench.

    Bit-exactness: result performance travels both as a decimal
    number (17 significant digits — lossless for binary64) and as a
    ["%h"] hex string, so "warm repeat equals cold run to the bit" is
    a plain string comparison on the wire. *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Compact print, no raw newlines.  Non-finite numbers print as
    [null] (JSON has no representation for them). *)

val of_string : ?max_bytes:int -> string -> (json, string) result
(** Parse one JSON value; trailing non-whitespace is an error.  When
    [max_bytes] is given, inputs longer than it are rejected up front
    without parsing — the server's defence against hostile payloads. *)

(** {1 Requests} *)

type workload = {
  w_app : string option;      (** bundled app name (see [App.find]) *)
  w_input : string option;    (** app input; default: the app's first *)
  w_nodes : int;
  w_cluster : string;         (** machine preset name *)
  w_graph : string option;    (** inline graph codec text — overrides [w_app] *)
  w_machine : string option;  (** inline machine codec text — overrides [w_cluster] *)
}

val default_workload : workload
(** One node of the shepard preset, no app. *)

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
      (** [wait] holds the connection until the search finishes rather
          than answering [accepted] immediately.  [warm] (default true)
          permits seeding the search from a cached incumbent for the
          same (machine, graph); pass false for a reproducible cold
          run, which never does, and takes a memoized answer only from
          a job that was not warm-started. *)
  | Poll of { p_id : string }  (** fetch the result of an earlier [Map] *)

val request_to_json : request -> json

val request_of_json : json -> (request, string) result
(** Unknown types, missing ids and malformed config fields are
    [Error]s (the server turns them into error responses), and so are
    [runs], [final_top] and [final_runs] outside [1..1000], which bound
    the simulations one request can ask for.  Search config fields
    absent from a [map] request take their {!Slice.default_cfg}
    values. *)

(** {1 Responses} *)

type job_state = Queued | Running | Done | Failed

val job_state_to_string : job_state -> string
val job_state_of_string : string -> job_state option

type result_payload = {
  r_id : string;
  r_state : job_state;
  r_mapping : string option;   (** canonical mapping key, when done *)
  r_perf : float option;       (** final average; best-so-far when pending *)
  r_perf_hex : string option;  (** the same value as ["%h"] — bit-exact *)
  r_trials : int;
  r_cached : bool;             (** answered from the cross-request result memo *)
  r_warm_started : bool;       (** search was seeded from a memoized incumbent *)
  r_error : string option;     (** failure reason, when [Failed] *)
}

type response =
  | Pong
  | R_error of { e_id : string option; message : string }
  | R_accepted of { a_id : string }
  | R_status of {
      requests : int;  (** requests served since daemon start *)
      jobs : (string * job_state) list;
      counters : (string * int) list;
          (** cache/scheduler counters — compile_hits, result_hits,
              warm_starts, evictions, resident bytes, … *)
    }
  | R_analysis of { ra_id : string; report : string list }
  | R_result of result_payload

val response_to_json : response -> json
val response_of_json : json -> (response, string) result

(** {1 Line-level conveniences} *)

val default_max_bytes : int
(** 4 MiB — generous for inline graph/machine codec text, small enough
    to bound a hostile request line. *)

val request_of_string : ?max_bytes:int -> string -> (request, string) result
val request_to_string : request -> string
val response_of_string : ?max_bytes:int -> string -> (response, string) result
val response_to_string : response -> string
