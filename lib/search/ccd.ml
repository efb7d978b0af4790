(* Constrained coordinate descent (Algorithm 1) as an Engine strategy:
   [rotations] Descent sweeps, each re-profiled from the current
   incumbent and constrained by the overlap graph C, with
   ⌈E₀/(N−1)⌉ lightest edges pruned between rotations so the final
   sweep runs unconstrained. *)

type state = {
  ev : Evaluator.t;
  surrogate : Surrogate.t option;  (* ranked rounds (see Descent) *)
  rotations : int;
  prune_per_rotation : int;
  mutable r : int;  (* current rotation, 0 before the first *)
  mutable overlap : Overlap.t;  (* C as used by rotation [r] *)
  mutable sweep : Descent.t option;
  mutable incumbent : (Mapping.t * float) option;
}

let overlap_opt c = if Overlap.is_empty c then None else Some c

let prune_per_rotation ~rotations c0 =
  (* ⌈E₀/(N−1)⌉ lightest edges removed after each rotation so the
     final rotation runs with C empty (Algorithm 1 line 8). *)
  let e0 = Overlap.n_edges c0 in
  if e0 = 0 then 0 else (e0 + rotations - 2) / (rotations - 1)

let advance st (f, _p) =
  if st.r >= st.rotations then Engine.Stop
  else begin
    if st.r > 0 then
      st.overlap <- Overlap.prune_lightest st.overlap st.prune_per_rotation;
    st.r <- st.r + 1;
    (* refresh the longest-running-first order against the incumbent,
       exactly at rotation entry as the legacy loop did *)
    let profile = Evaluator.profile_for st.ev f in
    st.sweep <-
      Some
        (Descent.start ?surrogate:st.surrogate st.ev
           ~overlap:(overlap_opt st.overlap) ~profile);
    Engine.Phase (Printf.sprintf "rotation %d/%d" st.r st.rotations)
  end

let strategy_of st =
  {
    Engine.name = "ccd";
    init = (fun ip -> st.incumbent <- Some ip);
    step =
      (fun _ctx ->
        match st.incumbent with
        | None -> Engine.Stop
        | Some ((f, p) as inc) -> (
            match st.sweep with
            | None -> advance st inc
            | Some cur -> (
                match Descent.next cur ~incumbent:f with
                | Some cand ->
                    Engine.Propose (cand, { Engine.bound = Some p; overhead = 0.0 })
                | None ->
                    st.sweep <- None;
                    advance st inc)));
    receive =
      (fun m perf ->
        match st.incumbent with
        | Some (_, p) when perf < p ->
            st.incumbent <- Some (m, perf);
            Option.iter Descent.abandon st.sweep;
            true
        | _ -> false);
    encode =
      (fun () ->
        [
          Printf.sprintf "rot %d %d" st.rotations st.r;
          (match st.incumbent with
          | None -> "incumbent none"
          | Some (m, p) -> "incumbent " ^ Codec.incumbent_line m p);
          (match st.sweep with None -> "sweep none" | Some c -> Descent.encode c);
        ]);
  }

let make ?surrogate ?(rotations = 5) ev =
  if rotations < 2 then invalid_arg "Ccd.make: rotations must be at least 2";
  let c0 = Overlap.of_graph (Evaluator.graph ev) in
  strategy_of
    {
      ev;
      surrogate;
      rotations;
      prune_per_rotation = prune_per_rotation ~rotations c0;
      r = 0;
      overlap = c0;
      sweep = None;
      incumbent = None;
    }

let decode ?surrogate ev lines =
  let g = Evaluator.graph ev in
  match lines with
  | [ rot; inc; sweep ] -> (
      let ( let* ) = Result.bind in
      let* rotations, r =
        match String.split_on_char ' ' rot |> List.filter (( <> ) "") with
        | [ "rot"; rots; r ] -> (
            match (int_of_string_opt rots, int_of_string_opt r) with
            | Some rots, Some r when rots >= 2 && r >= 0 && r <= rots -> Ok (rots, r)
            | _ -> Error "Ccd.decode: bad rot fields")
        | _ -> Error "Ccd.decode: bad rot line"
      in
      let c0 = Overlap.of_graph g in
      let ppr = prune_per_rotation ~rotations c0 in
      (* rotation r runs against C after r-1 prunes — deterministic, so
         the overlap graph is re-derived rather than serialized *)
      let overlap = ref c0 in
      for _ = 2 to r do
        overlap := Overlap.prune_lightest !overlap ppr
      done;
      let st =
        {
          ev;
          surrogate;
          rotations;
          prune_per_rotation = ppr;
          r;
          overlap = !overlap;
          sweep = None;
          incumbent = None;
        }
      in
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
          | _ -> Error "Ccd.decode: bad incumbent line"
      in
      let* () =
        if sweep = "sweep none" then Ok ()
        else
          let* c = Descent.decode ?surrogate ev ~overlap:(overlap_opt !overlap) sweep in
          st.sweep <- Some c;
          Ok ()
      in
      Ok (strategy_of st))
  | _ -> Error "Ccd.decode: expected 3 lines"
