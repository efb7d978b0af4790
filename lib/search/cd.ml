(* Coordinate descent as an Engine strategy: one Descent sweep over the
   start point's profile, accepting strict improvements.  The legacy
   self-contained loop moved verbatim into the engine protocol: the
   start evaluation, incumbent pinning and budget test are the engine's;
   the candidate order and bounds are the cursor's. *)

type state = {
  ev : Evaluator.t;
  surrogate : Surrogate.t option;  (* ranked rounds (see Descent) *)
  mutable incumbent : (Mapping.t * float) option;
  mutable sweep : Descent.t option;
}

let encode_state st =
  [
    (match st.incumbent with
    | None -> "incumbent none"
    | Some (m, p) -> "incumbent " ^ Codec.incumbent_line m p);
    (match st.sweep with None -> "sweep none" | Some c -> Descent.encode c);
  ]

let strategy_of st =
  {
    Engine.name = "cd";
    init = (fun ip -> st.incumbent <- Some ip);
    step =
      (fun _ctx ->
        match st.incumbent with
        | None -> Engine.Stop
        | Some (f, p) -> (
            let cur =
              match st.sweep with
              | Some c -> c
              | None ->
                  (* task order from the start point's noise-free
                     profile, as the legacy loop computed it *)
                  let c =
                    Descent.start ?surrogate:st.surrogate st.ev ~overlap:None
                      ~profile:(Evaluator.profile_for st.ev f)
                  in
                  st.sweep <- Some c;
                  c
            in
            match Descent.next cur ~incumbent:f with
            | Some cand -> Engine.Propose (cand, { Engine.bound = Some p; overhead = 0.0 })
            | None -> Engine.Stop));
    receive =
      (fun m perf ->
        match st.incumbent with
        | Some (_, p) when perf < p ->
            st.incumbent <- Some (m, perf);
            Option.iter Descent.abandon st.sweep;
            true
        | _ -> false);
    encode = (fun () -> encode_state st);
  }

let make ?surrogate ev = strategy_of { ev; surrogate; incumbent = None; sweep = None }

let decode ?surrogate ev lines =
  let g = Evaluator.graph ev in
  match lines with
  | [ inc; sweep ] -> (
      let st = { ev; surrogate; incumbent = None; sweep = None } in
      let ( let* ) = Result.bind in
      let* () =
        if inc = "incumbent none" then Ok ()
        else
          match String.index_opt inc ' ' with
          | Some i when String.sub inc 0 i = "incumbent" ->
              let* mp =
                Codec.parse_incumbent g
                  (String.sub inc (i + 1) (String.length inc - i - 1))
              in
              st.incumbent <- Some mp;
              Ok ()
          | _ -> Error "Cd.decode: bad incumbent line"
      in
      let* () =
        if sweep = "sweep none" then Ok ()
        else
          let* c = Descent.decode ?surrogate ev ~overlap:None sweep in
          st.sweep <- Some c;
          Ok ()
      in
      Ok (strategy_of st))
  | _ -> Error "Cd.decode: expected 2 lines"
