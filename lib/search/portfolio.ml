type member = Ccd of int | Cd | Annealing | Random

let default_members = [ Ccd 5; Annealing; Random ]

let member_name = function
  | Ccd r -> Printf.sprintf "ccd(%d)" r
  | Cd -> "cd"
  | Annealing -> "annealing"
  | Random -> "random"

(* checkpoint-stable member spelling (no spaces) *)
let member_to_string = function
  | Ccd r -> Printf.sprintf "ccd:%d" r
  | Cd -> "cd"
  | Annealing -> "annealing"
  | Random -> "random"

let member_of_string s =
  match String.split_on_char ':' s with
  | [ "cd" ] -> Some Cd
  | [ "annealing" ] -> Some Annealing
  | [ "random" ] -> Some Random
  | [ "ccd"; r ] -> Option.map (fun r -> Ccd r) (int_of_string_opt r)
  | _ -> None

(* The portfolio is a meta-strategy: it delegates step/receive to the
   active member's strategy and enforces each member's virtual-time
   share as an absolute deadline, exactly like the legacy sequential
   fold.  Members propose one candidate a step, so the deadline is
   checked before each.  A member opens with its start point (the
   portfolio's best-so-far) proposed as a normal trial — a profiles-db
   cache hit, matching the legacy member searches re-evaluating their
   start. *)

type phase =
  | Idle
  | Ready of member * Engine.strategy * Mapping.t  (* announced, start not proposed *)
  | Starting of member * Engine.strategy           (* start proposal in flight *)
  | Active of member * Engine.strategy

type state = {
  ev : Evaluator.t;
  seed : int;
  share : float;
  mutable remaining : member list;
  mutable phase : phase;
  mutable deadline : float;
  mutable best : (Mapping.t * float) option;
}

(* A member's own strategy: the seed offsets are part of the
   portfolio's decision stream. *)
let child_of st = function
  | Ccd rotations -> Ccd.make ~rotations st.ev
  | Cd -> Cd.make st.ev
  | Annealing -> Annealing.make ~seed:(st.seed + 13) st.ev
  | Random -> Random_search.make ~seed:(st.seed + 29) st.ev

let child_decode st member lines =
  match member with
  | Ccd _ -> Ccd.decode st.ev lines
  | Cd -> Cd.decode st.ev lines
  | Annealing -> Annealing.decode st.ev lines
  | Random -> Random_search.decode st.ev lines

let strategy_of st =
  let rec step ctx =
    match st.phase with
    | Idle -> (
        match st.remaining with
        | [] -> Engine.Stop
        | m :: rest ->
            st.remaining <- rest;
            (* each member gets an equal share, measured from its own
               entry — unspent time is not redistributed *)
            st.deadline <- ctx.Engine.vt +. st.share;
            let child = child_of st m in
            let start = match st.best with Some (b, _) -> b | None -> assert false in
            st.phase <- Ready (m, child, start);
            Engine.Phase (Printf.sprintf "member %s" (member_name m)))
    | Ready (m, child, start) ->
        st.phase <- Starting (m, child);
        Engine.Propose (start, Engine.unbounded)
    | Starting _ ->
        (* receive transitions out of Starting before the next step *)
        assert false
    | Active (m, child) ->
        if ctx.Engine.vt > st.deadline then begin
          st.phase <- Idle;
          Engine.Phase (Printf.sprintf "member %s: budget share spent" (member_name m))
        end
        else (
          match child.Engine.step ctx with
          | Engine.Stop ->
              st.phase <- Idle;
              step ctx
          | s -> s)
  in
  {
    Engine.name = "portfolio";
    init = (fun bp -> st.best <- Some bp);
    step;
    receive =
      (fun m perf ->
        let note_best () =
          match st.best with
          | Some (_, bp) when perf < bp -> st.best <- Some (m, perf)
          | _ -> ()
        in
        match st.phase with
        | Starting (mem, child) ->
            child.Engine.init (m, perf);
            st.phase <- Active (mem, child);
            note_best ();
            true
        | Active (_, child) ->
            let accepted = child.Engine.receive m perf in
            note_best ();
            accepted
        | Idle | Ready _ -> assert false);
    encode =
      (fun () ->
        let remaining, active =
          (* a member announced or mid-start restarts cleanly on resume:
             its start trial is a cache hit either way *)
          match st.phase with
          | Idle -> (st.remaining, None)
          | Ready (m, _, _) | Starting (m, _) -> (m :: st.remaining, None)
          | Active (m, child) -> (st.remaining, Some (m, child))
        in
        [
          Printf.sprintf "portfolio %d %s %s" st.seed (Codec.hex_of_float st.share)
            (Codec.hex_of_float st.deadline);
          Printf.sprintf "remaining %s"
            (String.concat " " (List.map member_to_string remaining));
          (match st.best with
          | None -> "best none"
          | Some (bm, bp) -> "best " ^ Codec.incumbent_line bm bp);
        ]
        @
        match active with
        | None -> [ "child none" ]
        | Some (m, child) ->
            let blob = child.Engine.encode () in
            Printf.sprintf "child %s %d" (member_to_string m) (List.length blob) :: blob);
  }

let make ?(members = default_members) ?(budget = infinity) ?(seed = 0) ev =
  if members = [] then invalid_arg "Portfolio.make: no members";
  let share =
    if Float.is_finite budget then budget /. float_of_int (List.length members)
    else infinity
  in
  strategy_of
    {
      ev;
      seed;
      share;
      remaining = members;
      phase = Idle;
      deadline = infinity;
      best = None;
    }

let decode ev lines =
  let g = Evaluator.graph ev in
  let fail fmt = Printf.ksprintf (fun m -> Error ("Portfolio.decode: " ^ m)) fmt in
  match lines with
  | head :: remaining_l :: best_l :: child_l :: blob -> (
      let ( let* ) = Result.bind in
      let* seed, share, deadline =
        match String.split_on_char ' ' head |> List.filter (( <> ) "") with
        | [ "portfolio"; seed; share; deadline ] -> (
            match
              (int_of_string_opt seed, Codec.float_of_hex share,
               Codec.float_of_hex deadline)
            with
            | Some seed, Some share, Some deadline -> Ok (seed, share, deadline)
            | _ -> fail "bad portfolio fields")
        | _ -> fail "bad portfolio line"
      in
      let* remaining =
        match String.split_on_char ' ' remaining_l |> List.filter (( <> ) "") with
        | "remaining" :: ms ->
            let parsed = List.filter_map member_of_string ms in
            if List.length parsed <> List.length ms then fail "bad member name"
            else Ok parsed
        | _ -> fail "bad remaining line"
      in
      let st =
        {
          ev;
          seed;
          share;
          remaining;
          phase = Idle;
          deadline;
          best = None;
        }
      in
      let* () =
        if best_l = "best none" then Ok ()
        else
          match String.index_opt best_l ' ' with
          | Some i when String.sub best_l 0 i = "best" ->
              let* mp =
                Codec.parse_incumbent g
                  (String.sub best_l (i + 1) (String.length best_l - i - 1))
              in
              st.best <- Some mp;
              Ok ()
          | _ -> fail "bad best line"
      in
      let* () =
        if child_l = "child none" then
          if blob = [] then Ok () else fail "unexpected trailing lines"
        else
          match String.split_on_char ' ' child_l |> List.filter (( <> ) "") with
          | [ "child"; m; n ] -> (
              match (member_of_string m, int_of_string_opt n) with
              | Some m, Some n when n = List.length blob ->
                  let* child = child_decode st m blob in
                  st.phase <- Active (m, child);
                  Ok ()
              | _ -> fail "bad child header")
          | _ -> fail "bad child line"
      in
      Ok (strategy_of st))
  | _ -> fail "truncated"
