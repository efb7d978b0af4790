(* Coordinate descent as an Engine strategy: one Descent sweep over the
   start point's profile, accepting strict improvements.  The legacy
   self-contained loop moved verbatim into the engine protocol: the
   start evaluation, incumbent pinning and budget test are the engine's;
   the candidate order and bounds are the cursor's. *)

type state = {
  ev : Evaluator.t;
  batch : bool;  (* emit whole neighbour sets via Propose_batch *)
  min_batch : int;  (* rounds smaller than this run sequentially *)
  surrogate : Surrogate.t option;  (* ranked batches (see Descent) *)
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
            if st.batch then begin
              match Descent.next_gated cur ~incumbent:f ~min_batch:st.min_batch with
              | `Done -> Engine.Stop
              | `Batch cands ->
                  Engine.Propose_batch (cands, p)
              | `Seq cand ->
                  Engine.Propose (cand, { Engine.bound = Some p; overhead = 0.0 })
            end
            else
              match Descent.next cur ~incumbent:f with
              | Some cand ->
                  Engine.Propose (cand, { Engine.bound = Some p; overhead = 0.0 })
              | None -> Engine.Stop));
    receive =
      (fun m perf ->
        (* batched rounds consume per verdict (plain: specs; ranked:
           the queued candidate), gated sequential rounds consumed at
           proposal time — [deliver_verdict] dispatches *)
        if st.batch then
          (match st.sweep with
          | Some c -> Descent.deliver_verdict c
          | None -> ());
        match st.incumbent with
        | Some (_, p) when perf < p ->
            st.incumbent <- Some (m, perf);
            if st.surrogate <> None then
              (match st.sweep with Some c -> Descent.abandon c | None -> ());
            true
        | _ -> false);
    encode = (fun () -> encode_state st);
  }

let make ?(batch = false) ?(min_batch = 1) ?surrogate ev =
  strategy_of { ev; batch; min_batch; surrogate; incumbent = None; sweep = None }

let decode ?(batch = false) ?(min_batch = 1) ?surrogate ev lines =
  let g = Evaluator.graph ev in
  match lines with
  | [ inc; sweep ] -> (
      let st = { ev; batch; min_batch; surrogate; incumbent = None; sweep = None } in
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
