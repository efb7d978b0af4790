type state = {
  ev : Evaluator.t;
  max_evals : int;
  rng : Rng.t;
  mutable evals : int;
  mutable bound : float;  (* best-so-far at proposal time — the pruning bound *)
}

let strategy_of st =
  let space = Evaluator.space st.ev in
  {
    Engine.name = "random";
    init = (fun _ -> ());
    step =
      (fun ctx ->
        if st.evals >= st.max_evals then Engine.Stop
        else begin
          st.evals <- st.evals + 1;
          let candidate = Space.random_mapping space st.rng in
          st.bound <- snd ctx.Engine.best;
          Engine.Propose (candidate, { Engine.bound = Some st.bound; overhead = 0.0 })
        end);
    receive = (fun _m perf -> perf < st.bound);
    encode =
      (fun () ->
        [ Printf.sprintf "random %d %d %Ld" st.max_evals st.evals (Rng.state st.rng) ]);
  }

let default_max_evals = 1000

let make ?(seed = 7) ?(max_evals = default_max_evals) ev =
  strategy_of { ev; max_evals; rng = Rng.create seed; evals = 0; bound = infinity }

let decode ev lines =
  match lines with
  | [ head ] -> (
      match String.split_on_char ' ' head |> List.filter (( <> ) "") with
      | [ "random"; max_evals; evals; rng ] -> (
          match
            (int_of_string_opt max_evals, int_of_string_opt evals, Int64.of_string_opt rng)
          with
          | Some max_evals, Some evals, Some rng ->
              Ok
                (strategy_of
                   { ev; max_evals; rng = Rng.of_state rng; evals; bound = infinity })
          | _ -> Error "Random_search.decode: bad fields")
      | _ -> Error "Random_search.decode: bad line")
  | _ -> Error "Random_search.decode: expected 1 line"
