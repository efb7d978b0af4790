let work_per_domain = 1 lsl 18

let domains ~cores ~jobs ~work =
  max 1 (min (min 4 cores) (min jobs (work / work_per_domain)))

let map ~domains jobs =
  if domains < 1 then invalid_arg "Par.map: domains must be >= 1";
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let domains = min domains (max n 1) in
  if n = 0 then []
  else if domains = 1 then Array.to_list (Array.map (fun job -> job ()) jobs)
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let k = Atomic.fetch_and_add next 1 in
        if k >= n then continue := false else results.(k) <- Some (jobs.(k) ())
      done
    in
    (* a spawn refused at the domain limit leaves its jobs to the
       domains that did start, the calling one included *)
    let rec spawn k acc =
      if k = 0 then acc
      else
        match Domain.spawn worker with
        | d -> spawn (k - 1) (d :: acc)
        | exception Failure _ -> acc
    in
    let workers = spawn (domains - 1) [] in
    (* the calling domain is a worker too; join the rest even if it
       raises, then surface the first failure *)
    let inline_failure = match worker () with () -> None | exception e -> Some e in
    let join_failure =
      List.fold_left
        (fun acc d ->
          match Domain.join d with
          | () -> acc
          | exception e -> ( match acc with None -> Some e | some -> some))
        None (List.rev workers)
    in
    (match (inline_failure, join_failure) with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ());
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)
  end
