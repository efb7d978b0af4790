type config = {
  seed : int;
  elite_size : int;
  exploration : float;
  suggestion_overhead : float;
  max_suggestions : int;
}

let default_config =
  {
    seed = 42;
    elite_size = 5;
    exploration = 0.2;
    suggestion_overhead = 0.005;
    max_suggestions = 200_000;
  }

let technique_names = [ "random"; "mutate"; "crossover"; "pattern" ]

type bandit_arm = { mutable uses : int; mutable wins : int }

let arm_score arm =
  (* Laplace-smoothed success rate; unexplored arms look promising. *)
  float_of_int (arm.wins + 1) /. float_of_int (arm.uses + 2)

let pick_arm rng ~exploration arms =
  if Rng.float rng 1.0 < exploration then Rng.int rng (Array.length arms)
  else begin
    let best = ref 0 in
    Array.iteri (fun i a -> if arm_score a > arm_score arms.(!best) then best := i) arms;
    !best
  end

(* Unconstrained single-coordinate mutation: kinds drawn from the full
   domain, ignoring accessibility — the OpenTuner behaviour. *)
let flip_strategy = function
  | Mapping.Blocked -> Mapping.Cyclic
  | Mapping.Cyclic -> Mapping.Blocked

let mutate dims rng parent =
  match Rng.choose rng dims with
  | Space.Distribution tid ->
      Mapping.set_distribute parent tid (not (Mapping.distribute_of parent tid))
  | Space.Strategy tid ->
      Mapping.set_strategy parent tid (flip_strategy (Mapping.strategy_of parent tid))
  | Space.Processor tid ->
      Mapping.set_proc parent tid (Rng.choose_list rng Kinds.all_proc_kinds)
  | Space.Memory cid ->
      Mapping.set_mem parent cid (Rng.choose_list rng Kinds.all_mem_kinds)

let crossover g rng a b =
  Mapping.make g
    ~strategy:(fun t -> Mapping.strategy_of (if Rng.bool rng then a else b) t.tid)
    ~distribute:(fun t ->
      Mapping.distribute_of (if Rng.bool rng then a else b) t.tid)
    ~proc:(fun t -> Mapping.proc_of (if Rng.bool rng then a else b) t.tid)
    ~mem:(fun c -> Mapping.mem_of (if Rng.bool rng then a else b) c.cid)

(* Pattern walk: visit dimensions cyclically, replacing the current
   value with the "next" value of the full domain. *)
let pattern_step dims cursor parent =
  let d = dims.(cursor mod Array.length dims) in
  match d with
  | Space.Distribution tid ->
      Mapping.set_distribute parent tid (not (Mapping.distribute_of parent tid))
  | Space.Strategy tid ->
      Mapping.set_strategy parent tid (flip_strategy (Mapping.strategy_of parent tid))
  | Space.Processor tid ->
      let next = function Kinds.Cpu -> Kinds.Gpu | Kinds.Gpu -> Kinds.Cpu in
      Mapping.set_proc parent tid (next (Mapping.proc_of parent tid))
  | Space.Memory cid ->
      let next = function
        | Kinds.System -> Kinds.Zero_copy
        | Kinds.Zero_copy -> Kinds.Frame_buffer
        | Kinds.Frame_buffer -> Kinds.System
      in
      Mapping.set_mem parent cid (next (Mapping.mem_of parent cid))

type state = {
  ev : Evaluator.t;
  config : config;
  rng : Rng.t;
  arms : bandit_arm array;
  mutable pattern_cursor : int;
  mutable suggestions : int;
  mutable best : (Mapping.t * float) option;
  mutable pending_arm : int;  (* arm of the proposal in flight *)
}

let strategy_of st =
  let g = Evaluator.graph st.ev in
  let space = Evaluator.space st.ev in
  (* built once per strategy: every mutation and pattern step indexes it *)
  let dims = Array.of_list (Space.dims space) in
  let elites () =
    match Profiles_db.top (Evaluator.db st.ev) st.config.elite_size with
    | [] -> [ (match st.best with Some (m, _) -> m | None -> assert false) ]
    | es -> List.map (fun e -> e.Profiles_db.mapping) es
  in
  let propose arm =
    match arm with
    | 0 -> Space.random_unconstrained space st.rng
    | 1 -> mutate dims st.rng (Rng.choose_list st.rng (elites ()))
    | 2 -> (
        match elites () with
        | [ only ] -> mutate dims st.rng only
        | es ->
            crossover g st.rng (Rng.choose_list st.rng es) (Rng.choose_list st.rng es))
    | 3 ->
        let c = st.pattern_cursor in
        st.pattern_cursor <- st.pattern_cursor + 1;
        pattern_step dims c (match st.best with Some (m, _) -> m | None -> assert false)
    | _ -> assert false
  in
  {
    Engine.name = "ensemble";
    init = (fun bp -> st.best <- Some bp);
    step =
      (fun _ctx ->
        if st.suggestions >= st.config.max_suggestions || st.best = None then
          Engine.Stop
        else begin
          st.suggestions <- st.suggestions + 1;
          let arm_idx = pick_arm st.rng ~exploration:st.config.exploration st.arms in
          let candidate = propose arm_idx in
          st.pending_arm <- arm_idx;
          (* every proposal charges the machinery overhead (§5.3) *)
          Engine.Propose
            (candidate,
             { Engine.bound = None; overhead = st.config.suggestion_overhead })
        end);
    receive =
      (fun m perf ->
        let arm = st.arms.(st.pending_arm) in
        arm.uses <- arm.uses + 1;
        match st.best with
        | Some (_, bp) when perf < bp ->
            arm.wins <- arm.wins + 1;
            st.best <- Some (m, perf);
            true
        | _ -> false);
    encode =
      (fun () ->
        let fl = Codec.hex_of_float in
        [
          Printf.sprintf "ens %d %d %s %s %d %d %d %Ld" st.config.seed
            st.config.elite_size (fl st.config.exploration)
            (fl st.config.suggestion_overhead) st.config.max_suggestions
            st.suggestions st.pattern_cursor (Rng.state st.rng);
          Printf.sprintf "arms %s"
            (String.concat " "
               (Array.to_list
                  (Array.map (fun a -> Printf.sprintf "%d %d" a.uses a.wins) st.arms)));
          (match st.best with
          | None -> "best none"
          | Some (m, p) -> "best " ^ Codec.incumbent_line m p);
        ]);
  }

let make ?(config = default_config) ev =
  strategy_of
    {
      ev;
      config;
      rng = Rng.create config.seed;
      arms = Array.init 4 (fun _ -> { uses = 0; wins = 0 });
      pattern_cursor = 0;
      suggestions = 0;
      best = None;
      pending_arm = 0;
    }

let decode ev lines =
  let g = Evaluator.graph ev in
  match lines with
  | [ head; arms_l; best_l ] -> (
      let ( let* ) = Result.bind in
      let* st =
        match String.split_on_char ' ' head |> List.filter (( <> ) "") with
        | [ "ens"; seed; elite; expl; ovh; maxs; sugg; pc; rng ] -> (
            match
              ( int_of_string_opt seed,
                int_of_string_opt elite,
                Codec.float_of_hex expl,
                Codec.float_of_hex ovh,
                int_of_string_opt maxs,
                int_of_string_opt sugg,
                int_of_string_opt pc,
                Int64.of_string_opt rng )
            with
            | ( Some seed,
                Some elite_size,
                Some exploration,
                Some suggestion_overhead,
                Some max_suggestions,
                Some suggestions,
                Some pattern_cursor,
                Some rng ) ->
                Ok
                  {
                    ev;
                    config =
                      {
                        seed;
                        elite_size;
                        exploration;
                        suggestion_overhead;
                        max_suggestions;
                      };
                    rng = Rng.of_state rng;
                    arms = Array.init 4 (fun _ -> { uses = 0; wins = 0 });
                    pattern_cursor;
                    suggestions;
                    best = None;
                    pending_arm = 0;
                  }
            | _ -> Error "Ensemble.decode: bad ens fields")
        | _ -> Error "Ensemble.decode: bad ens line"
      in
      let* () =
        match String.split_on_char ' ' arms_l |> List.filter (( <> ) "") with
        | [ "arms"; u0; w0; u1; w1; u2; w2; u3; w3 ] -> (
            let ints = List.filter_map int_of_string_opt [ u0; w0; u1; w1; u2; w2; u3; w3 ] in
            match ints with
            | [ u0; w0; u1; w1; u2; w2; u3; w3 ] ->
                List.iteri
                  (fun i (u, w) ->
                    st.arms.(i).uses <- u;
                    st.arms.(i).wins <- w)
                  [ (u0, w0); (u1, w1); (u2, w2); (u3, w3) ];
                Ok ()
            | _ -> Error "Ensemble.decode: bad arm counts")
        | _ -> Error "Ensemble.decode: bad arms line"
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
          | _ -> Error "Ensemble.decode: bad best line"
      in
      Ok (strategy_of st))
  | _ -> Error "Ensemble.decode: expected 3 lines"
