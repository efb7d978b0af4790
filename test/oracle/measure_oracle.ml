type cfg = {
  scratch : Exec.scratch;
  noise_sigma : float;
  fallback : bool;
  iterations : int option;
  metric : Exec.result -> float;
}

let measure cfg ~base ~runs mapping =
  let rec go k acc =
    if k > runs then acc
    else
      match
        Exec.simulate ~noise_sigma:cfg.noise_sigma ~seed:(base + k) ~fallback:cfg.fallback
          ?iterations:cfg.iterations cfg.scratch mapping
      with
      | Ok r -> go (k + 1) (cfg.metric r :: acc)
      | Error e -> failwith ("Evaluator.measure: " ^ Placement.error_to_string e)
  in
  go 1 []

let final_protocol cfg ~base ~final_top ~final_runs db ~search_best ~search_perf =
  let candidates =
    match Rank_oracle.top db final_top with
    | [] -> [ (search_best, [ search_perf ]) ]
    | tops ->
        List.mapi
          (fun i e ->
            let m = e.Profiles_db.mapping in
            (m, measure cfg ~base:(base + (i * final_runs)) ~runs:final_runs m))
          tops
  in
  List.fold_left
    (fun ((_, bruns) as acc) ((_, runs) as cand) ->
      if Stats.mean runs < Stats.mean bruns then cand else acc)
    (List.hd candidates) (List.tl candidates)
