type t = {
  max_trials : int option;
  max_virtual : float option;
  max_wall : float option;
}

let unlimited = { max_trials = None; max_virtual = None; max_wall = None }

let make ?max_trials ?max_virtual ?max_wall () =
  (match max_trials with
  | Some n when n < 0 -> invalid_arg "Budget.make: max_trials must be non-negative"
  | _ -> ());
  let finite_cap name = function
    | Some c when Float.is_nan c -> invalid_arg ("Budget.make: " ^ name ^ " is NaN")
    | Some c when c = infinity -> None (* an infinite cap is no cap *)
    | Some c when c < 0.0 -> invalid_arg ("Budget.make: " ^ name ^ " must be non-negative")
    | c -> c
  in
  {
    max_trials;
    max_virtual = finite_cap "max_virtual" max_virtual;
    max_wall = finite_cap "max_wall" max_wall;
  }

let is_unlimited b = b.max_trials = None && b.max_virtual = None && b.max_wall = None

let exhausted b ~trials ~vt ~wall =
  (match b.max_trials with Some n -> trials >= n | None -> false)
  || (match b.max_virtual with Some cap -> vt > cap | None -> false)
  || (match b.max_wall with Some cap -> wall > cap | None -> false)
