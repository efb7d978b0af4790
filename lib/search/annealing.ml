(* Constraint-repairing single-coordinate mutation: unlike the
   ensemble's unconstrained mutation, the result is always valid. *)
let mutate_valid g space rng parent =
  let dims = Array.of_list (Space.dims space) in
  match Rng.choose rng dims with
  | Space.Distribution tid ->
      Mapping.set_distribute parent tid (not (Mapping.distribute_of parent tid))
  | Space.Strategy tid ->
      Mapping.set_strategy parent tid
        (match Mapping.strategy_of parent tid with
        | Mapping.Blocked -> Mapping.Cyclic
        | Mapping.Cyclic -> Mapping.Blocked)
  | Space.Processor tid ->
      let choices = Space.proc_choices space tid in
      let k = Rng.choose_list rng choices in
      let m = Mapping.set_proc parent tid k in
      (* repair arguments that the new kind cannot address *)
      List.fold_left
        (fun acc (c : Graph.collection) ->
          if Kinds.accessible k (Mapping.mem_of acc c.cid) then acc
          else
            match Kinds.accessible_mem_kinds k with
            | mk :: _ -> Mapping.set_mem acc c.cid mk
            | [] -> acc)
        m (Graph.task g tid).args
  | Space.Memory cid ->
      let owner = (Graph.collection g cid).owner in
      let k = Mapping.proc_of parent owner in
      Mapping.set_mem parent cid
        (Rng.choose_list rng (Space.mem_choices_for space ~cid k))

type state = {
  ev : Evaluator.t;
  max_evals : int;
  t0 : float;
  cooling : float;
  rng : Rng.t;
  mutable current : (Mapping.t * float) option;
  mutable p0 : float;  (* the start point's perf scales the temperature *)
  mutable temp : float;
  mutable evals : int;
  mutable threshold : float;  (* acceptance threshold of the pending proposal *)
}

let strategy_of st =
  let g = Evaluator.graph st.ev in
  let space = Evaluator.space st.ev in
  {
    Engine.name = "annealing";
    init =
      (fun (f0, p0) ->
        st.current <- Some (f0, p0);
        st.p0 <- p0);
    step =
      (fun _ctx ->
        match st.current with
        | None -> Engine.Stop
        | Some (cur, pcur) ->
            if st.evals >= st.max_evals then Engine.Stop
            else begin
              st.evals <- st.evals + 1;
              let candidate = mutate_valid g space st.rng cur in
              (* Draw the acceptance variate *before* evaluating and fold
                 the Metropolis test into a closed-form threshold: accept
                 iff perf < pcur + p0·T·(−ln u), which is "u < exp(−Δ/T)"
                 solved for perf.  The threshold is known up front, so it
                 doubles as an exact pruning bound — a candidate cut at it
                 could be neither accepted nor a new best
                 (threshold >= pcur >= best). *)
              let u = Rng.float st.rng 1.0 in
              st.threshold <-
                (if u <= 0.0 then infinity
                 else
                   let bump = st.p0 *. Float.max st.temp 1e-9 *. -.log u in
                   if Float.is_finite bump then pcur +. bump else infinity);
              Engine.Propose
                (candidate, { Engine.bound = Some st.threshold; overhead = 0.0 })
            end);
    receive =
      (fun m perf ->
        let accepted = perf < st.threshold in
        if accepted then st.current <- Some (m, perf);
        st.temp <- st.temp *. st.cooling;
        accepted);
    encode =
      (fun () ->
        let fl = Codec.hex_of_float in
        [
          Printf.sprintf "anneal %d %d %s %s %s %s %Ld" st.max_evals st.evals
            (fl st.t0) (fl st.cooling) (fl st.temp) (fl st.p0)
            (Rng.state st.rng);
          (match st.current with
          | None -> "current none"
          | Some (m, p) -> "current " ^ Codec.incumbent_line m p);
        ]);
  }

let default_max_evals = 2000

let make ?(seed = 11) ?(max_evals = default_max_evals) ev =
  let t0 = 0.3 and cooling = 0.995 in
  strategy_of
    {
      ev;
      max_evals;
      t0;
      cooling;
      rng = Rng.create seed;
      current = None;
      p0 = nan;
      temp = t0;
      evals = 0;
      threshold = nan;
    }

let decode ev lines =
  let g = Evaluator.graph ev in
  match lines with
  | [ head; cur ] -> (
      let ( let* ) = Result.bind in
      let* st =
        match String.split_on_char ' ' head |> List.filter (( <> ) "") with
        | [ "anneal"; max_evals; evals; t0; cooling; temp; p0; rng ] -> (
            match
              ( int_of_string_opt max_evals,
                int_of_string_opt evals,
                Codec.float_of_hex t0,
                Codec.float_of_hex cooling,
                Codec.float_of_hex temp,
                Codec.float_of_hex p0,
                Int64.of_string_opt rng )
            with
            | Some max_evals, Some evals, Some t0, Some cooling, Some temp, Some p0,
              Some rng ->
                Ok
                  {
                    ev;
                    max_evals;
                    t0;
                    cooling;
                    rng = Rng.of_state rng;
                    current = None;
                    p0;
                    temp;
                    evals;
                    threshold = nan;
                  }
            | _ -> Error "Annealing.decode: bad anneal fields")
        | _ -> Error "Annealing.decode: bad anneal line"
      in
      let* () =
        match String.index_opt cur ' ' with
        | Some i when String.sub cur 0 i = "current" ->
            let* mp =
              Codec.parse_incumbent g (String.sub cur (i + 1) (String.length cur - i - 1))
            in
            st.current <- Some mp;
            Ok ()
        | _ -> Error "Annealing.decode: bad current line"
      in
      Ok (strategy_of st))
  | _ -> Error "Annealing.decode: expected 2 lines"
