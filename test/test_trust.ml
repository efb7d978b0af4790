(* Trust boundary of the checkpoint codec.  The serve daemon reads
   checkpoint envelopes back from its state directory, so a truncated,
   corrupted or hostile envelope must come back as an [Error], never as
   an exception that takes a worker down:

   - [Engine.snapshot_of_string] never raises, on arbitrary bytes and on
     line-level mutations of a real CCD envelope (dropped or duplicated
     lines, section counts of 10^9 or negative, nan/inf in place of hex
     floats);
   - [Slice.resume] on a mutated envelope returns [Ok] or [Error] and
     never raises — including when the mutation parses and the resumed
     slice runs on poisoned state. *)

open QCheck

let machine = Presets.shepard ~nodes:1
let graph = App.stencil.App.graph ~nodes:1 ~input:"500x500"

let cfg =
  { Slice.default_cfg with Slice.algo = Driver.Ccd { rotations = 2 }; runs = 2 }

(* A real paused CCD search with every optional section present: the
   serve defaults train a surrogate and keep a symmetry seen-set. *)
let envelope =
  lazy
    (match Slice.start ~slice_trials:12 cfg machine graph with
    | Slice.Paused p, _ -> p.Slice.ckpt
    | Slice.Finished _, _ -> failwith "test_trust: the search finished in one slice")

let lines_of s = Array.of_list (String.split_on_char '\n' s)
let words l = String.split_on_char ' ' l

let is_hex_float w =
  let starts_0x i = String.length w > i + 2 && String.sub w i 2 = "0x" in
  starts_0x 0 || (String.length w > 0 && w.[0] = '-' && starts_0x 1)

let huge_counts = [| "1000000000"; "-1"; "-1000000000" |]
let poison_floats = [| "nan"; "-nan"; "inf"; "-inf"; "infinity" |]

(* One line-level mutation, chosen and placed by [rng]. *)
let mutate rng lines =
  let n = Array.length lines in
  let i = Random.State.int rng n in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  match Random.State.int rng 4 with
  | 0 -> Array.append (Array.sub lines 0 i) (Array.sub lines (i + 1) (n - i - 1))
  | 1 ->
      Array.concat
        [ Array.sub lines 0 (i + 1); [| lines.(i) |]; Array.sub lines (i + 1) (n - i - 1) ]
  | 2 -> (
      (* a section header (or any "<word> <int>" line) gets a huge or
         negative count *)
      let headers =
        List.filter
          (fun j ->
            match words lines.(j) with
            | [ _; c ] -> int_of_string_opt c <> None
            | _ -> false)
          (List.init n Fun.id)
      in
      match headers with
      | [] -> lines
      | hs ->
          let j = List.nth hs (Random.State.int rng (List.length hs)) in
          let l = Array.copy lines in
          l.(j) <- List.hd (words lines.(j)) ^ " " ^ pick huge_counts;
          l)
  | _ -> (
      (* a hex float anywhere becomes nan or an infinity *)
      let sites =
        List.concat_map
          (fun j ->
            List.filteri (fun _ w -> is_hex_float w) (words lines.(j))
            |> List.map (fun w -> (j, w)))
          (List.init n Fun.id)
      in
      match sites with
      | [] -> lines
      | ss ->
          let j, w = List.nth ss (Random.State.int rng (List.length ss)) in
          let l = Array.copy lines in
          l.(j) <-
            String.concat " "
              (List.map (fun x -> if x = w then pick poison_floats else x) (words lines.(j)));
          l)

(* one to four mutations of the real envelope *)
let mutated_envelope =
  make ~print:Fun.id (fun rng ->
      let lines = ref (lines_of (Lazy.force envelope)) in
      for _ = 0 to Random.State.int rng 3 do
        lines := mutate rng !lines
      done;
      String.concat "\n" (Array.to_list !lines))

let never_raises f = match f () with _ -> true | exception _ -> false

let prop_bytes =
  Test.make ~count:300 ~name:"snapshot_of_string never raises on arbitrary bytes"
    (make Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 256)))
    (fun s ->
      never_raises (fun () -> Engine.snapshot_of_string s)
      && never_raises (fun () ->
             Engine.snapshot_of_string ("automap-checkpoint 1\n" ^ s)))

let prop_mutated_snapshot =
  Test.make ~count:300 ~name:"snapshot_of_string never raises on mutated envelopes"
    mutated_envelope (fun s -> never_raises (fun () -> Engine.snapshot_of_string s))

let prop_mutated_resume =
  Test.make ~count:60 ~name:"Slice.resume returns Ok or Error on mutated envelopes"
    mutated_envelope (fun ckpt ->
      match Slice.resume ~slice_trials:4 cfg machine graph ~ckpt with
      | Ok _ | Error _ -> true
      | exception e ->
          Test.fail_reportf "Slice.resume raised %s" (Printexc.to_string e))

(* The properties above only mean something if both outcomes are
   reachable: the untouched envelope resumes, and a poisoned section
   count is refused. *)
let test_envelope_baseline () =
  let ckpt = Lazy.force envelope in
  (match Slice.resume ~slice_trials:4 cfg machine graph ~ckpt with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the untouched envelope must resume: %s" e);
  let poisoned =
    String.concat "\n"
      (List.map
         (fun l -> match words l with [ "profiles"; _ ] -> "profiles 1000000000" | _ -> l)
         (String.split_on_char '\n' ckpt))
  in
  match Engine.snapshot_of_string poisoned with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a profiles count of 10^9 must be refused"

let suite =
  Alcotest.test_case "envelope baseline" `Quick test_envelope_baseline
  :: List.map QCheck_alcotest.to_alcotest
       [ prop_bytes; prop_mutated_snapshot; prop_mutated_resume ]
