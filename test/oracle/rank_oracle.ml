let top db k =
  String.split_on_char '\n' (Profiles_db.save db)
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | key :: (_ :: _ as runs) -> Some (Stats.mean (List.map float_of_string runs), key)
         | _ -> None)
  |> List.sort (fun (pa, ka) (pb, kb) ->
         match compare pa pb with 0 -> compare ka kb | c -> c)
  |> List.filteri (fun i _ -> i < k)
  |> List.map (fun (_, key) -> Option.get (Profiles_db.find_key db key))
