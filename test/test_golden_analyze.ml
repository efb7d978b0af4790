(* Golden analyze reports: the exact text the CLI's [analyze] command
   emits for every bundled app on the Shepard and Lassen presets.
   Regenerate after an intentional report change with:
     for p in shepard lassen; do for a in "circuit n50w200" \
       "stencil 500x500" "pennant 320x90" "htr 8x8y9z" "maestro lf4r16"; do
       set -- $a; dune exec bin/automap_cli.exe -- analyze -a $1 -i $2 \
         -n 2 -c $p -o test/golden/analyze_${1}_${p}.txt; done; done *)

let cases =
  [
    (App.circuit, "n50w200");
    (App.stencil, "500x500");
    (App.pennant, "320x90");
    (App.htr, "8x8y9z");
    (App.maestro, "lf4r16");
  ]

let presets = [ ("shepard", Presets.shepard); ("lassen", Presets.lassen) ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* locate the first differing line so a mismatch is actionable *)
let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go n = function
    | x :: xs, y :: ys when x = y -> go (n + 1) (xs, ys)
    | x :: _, y :: _ -> Printf.sprintf "line %d:\n  golden: %s\n  actual: %s" n x y
    | x :: _, [] -> Printf.sprintf "line %d only in golden: %s" n x
    | [], y :: _ -> Printf.sprintf "line %d only in actual: %s" n y
    | [], [] -> "identical"
  in
  go 1 (la, lb)

(* Topology presets: text and strict-JSON reports for two meshes and a
   fat-tree, pinning the topology summary line / object and the routed
   machine stanza.  The 1024-node mesh pins the machine lint at scale.
   Regenerate with:
     for c in grid:8x8 grid:32x32 fattree:3:4; do
       f=$(echo $c | tr -d ':' | sed 's/fattree34/fattree3_4/'); \
       dune exec bin/automap_cli.exe -- analyze -a stencil -i 500x500 \
         -c $c -o test/golden/analyze_stencil_${f}.txt; \
       dune exec bin/automap_cli.exe -- analyze -a stencil -i 500x500 \
         -c $c --json -o test/golden/analyze_stencil_${f}.json; done
   (grid:8x8 -> grid8x8, grid:32x32 -> grid32x32, fattree:3:4 -> fattree3_4) *)
let topo_cases =
  [ ("grid:8x8", "grid8x8"); ("grid:32x32", "grid32x32"); ("fattree:3:4", "fattree3_4") ]

let test_golden_topology () =
  List.iter
    (fun (spec, fname) ->
      let machine =
        match Presets.of_spec spec ~nodes:1 with
        | Ok m -> m
        | Error e -> Alcotest.fail e
      in
      let g = App.stencil.App.graph ~nodes:machine.Machine.nodes ~input:"500x500" in
      let t = Analysis.analyze machine g in
      let check_kind ext render =
        let path = Printf.sprintf "golden/analyze_stencil_%s.%s" fname ext in
        let golden = read_file path in
        let actual = render t in
        if actual <> golden then
          Alcotest.fail
            (Printf.sprintf "%s differs; %s" path (first_diff golden actual))
      in
      check_kind "txt" (Format.asprintf "%a" Analysis.report);
      check_kind "json" Analysis.to_json)
    topo_cases

let test_golden () =
  List.iter
    (fun (pname, mk) ->
      let machine = mk ~nodes:2 in
      List.iter
        (fun ((app : App.t), input) ->
          let g = app.App.graph ~nodes:2 ~input in
          let actual =
            Format.asprintf "%a" Analysis.report (Analysis.analyze machine g)
          in
          let cli_name = String.lowercase_ascii app.App.app_name in
          let path = Printf.sprintf "golden/analyze_%s_%s.txt" cli_name pname in
          let golden = read_file path in
          if actual <> golden then
            Alcotest.fail
              (Printf.sprintf "%s differs; %s" path (first_diff golden actual)))
        cases)
    presets

let suite =
  [
    Alcotest.test_case "analyze reports match golden" `Quick test_golden;
    Alcotest.test_case "topology analyze reports match golden" `Quick
      test_golden_topology;
  ]
