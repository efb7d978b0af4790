type result = {
  default_total : float;
  tuned_total : float;
  search_time : float;
  iterations_spent : int;
  best : Mapping.t;
  speedup : float;
}

let run ?(seed = 0) ?(search_fraction = 0.1) ?(rotations = 5) ~total_iterations machine
    graph =
  if total_iterations <= 0 then invalid_arg "Online.run: total_iterations must be positive";
  if search_fraction <= 0.0 || search_fraction >= 1.0 then
    invalid_arg "Online.run: search_fraction must be in (0,1)";
  let default = Mapping.default_start graph machine in
  let per_iter_default =
    match Exec.run ~noise_sigma:0.0 machine graph default ~iterations:1 with
    | Ok r -> r.Exec.per_iteration
    | Error e -> failwith ("Online.run: " ^ Placement.error_to_string e)
  in
  let default_total = per_iter_default *. float_of_int total_iterations in
  (* Inspector: candidate evaluations run a 1-iteration slice of the
     production job; the virtual time they accumulate is production
     time spent searching. *)
  let budget = search_fraction *. default_total in
  let ev =
    Evaluator.create ~runs:3 ~noise_sigma:0.02 ~seed ~iterations:1 machine graph
  in
  let best =
    (Engine.run
       ~budget:(Budget.make ~max_virtual:budget ())
       ~start:default ev (Ccd.make ~rotations ev))
      .Engine.best
  in
  let search_time = Evaluator.virtual_time ev in
  let iterations_spent =
    int_of_float (ceil (search_time /. Float.max per_iter_default 1e-300))
  in
  let iterations_spent = min iterations_spent total_iterations in
  let remaining = total_iterations - iterations_spent in
  let per_iter_best =
    match Exec.run ~noise_sigma:0.0 machine graph best ~iterations:1 with
    | Ok r -> r.Exec.per_iteration
    | Error _ -> per_iter_default
  in
  let tuned_total = search_time +. (per_iter_best *. float_of_int remaining) in
  {
    default_total;
    tuned_total;
    search_time;
    iterations_spent;
    best;
    speedup = default_total /. tuned_total;
  }
