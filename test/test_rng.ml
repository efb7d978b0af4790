let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  (* advancing the copy does not affect the original *)
  let before = Rng.copy a in
  ignore (Rng.bits64 b);
  Alcotest.(check int64) "original unaffected" (Rng.bits64 before) (Rng.bits64 a)

let test_split_diverges () =
  let a = Rng.create 3 in
  let child = Rng.split a in
  let x = Rng.bits64 a and y = Rng.bits64 child in
  Alcotest.(check bool) "parent and child streams differ" true (x <> y)

let test_int_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_int_invalid () =
  let r = Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_float_mean () =
  let r = Rng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float r 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "uniform mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_gaussian_moments () =
  let r = Rng.create 17 in
  let n = 20_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.gaussian r in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (abs_float mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (abs_float (var -. 1.0) < 0.08)

let test_lognormal_median () =
  let r = Rng.create 19 in
  let n = 10_001 in
  let vs = List.init n (fun _ -> Rng.lognormal r ~sigma:0.1) in
  let med = Stats.median vs in
  Alcotest.(check bool) "median near 1.0" true (abs_float (med -. 1.0) < 0.02);
  List.iter (fun v -> Alcotest.(check bool) "positive" true (v > 0.0)) vs

let test_choose () =
  let r = Rng.create 23 in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.choose r a) a)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose r [||]))

let test_shuffle_permutation () =
  let r = Rng.create 29 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let prop_int_uniformish =
  QCheck.Test.make ~name:"rng int covers full range"
    QCheck.(int_bound 1000)
    (fun seed ->
      let r = Rng.create seed in
      let seen = Array.make 4 false in
      for _ = 1 to 200 do
        seen.(Rng.int r 4) <- true
      done;
      Array.for_all Fun.id seen)

(* The bulk draw is the same stream: [fill_lognormal] over
   consecutive ranges writes what as many successive [lognormal] calls
   return, bit for bit, touches nothing outside its ranges, and leaves
   the same state behind. *)
let prop_fill_lognormal_is_lognormal =
  QCheck.Test.make ~count:200 ~name:"fill_lognormal equals successive lognormal draws"
    QCheck.(
      triple int (int_bound 2) (list_of_size Gen.(0 -- 6) (int_bound 300)))
    (fun (seed, si, lens) ->
      let sigma = [| 0.01; 0.03; 0.5 |].(si) in
      let total = List.fold_left ( + ) 0 lens in
      let buf = Array.make (total + 2) Float.nan in
      let bulk = Rng.create seed and one = Rng.create seed in
      ignore
        (List.fold_left
           (fun pos len ->
             Rng.fill_lognormal bulk ~sigma buf ~pos ~len;
             pos + len)
           1 lens);
      let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
      let ok = ref (Float.is_nan buf.(0) && Float.is_nan buf.(total + 1)) in
      for i = 1 to total do
        if not (same buf.(i) (Rng.lognormal one ~sigma)) then ok := false
      done;
      !ok && Rng.state bulk = Rng.state one)

(* SplitMix64's output function, inverted step by step: an xor-shift
   by [k] undoes by iterating, and a multiplication by an odd constant
   by the constant's inverse mod 2^64 (Newton's iteration doubles the
   correct low bits each round, starting from 3). *)
let unxorshift z k =
  let r = ref z in
  for _ = 1 to (64 / k) + 1 do
    r := Int64.logxor z (Int64.shift_right_logical !r k)
  done;
  !r

let inverse_odd c =
  let x = ref c in
  for _ = 1 to 5 do
    x := Int64.mul !x (Int64.sub 2L (Int64.mul c !x))
  done;
  !x

let unmix z =
  let z = unxorshift z 31 in
  let z = Int64.mul z (inverse_odd 0x94D049BB133111EBL) in
  let z = unxorshift z 27 in
  let z = Int64.mul z (inverse_odd 0xBF58476D1CE4E5B9L) in
  unxorshift z 30

let golden_gamma = 0x9E3779B97F4A7C15L

(* A state whose next 64 bits have their top 53 bits zero makes the
   uniform draw exactly 0.0, which Box–Muller must redraw ([log 0] is
   -inf).  Both draws must take the redraw: one more step of the state
   than a draw without it, and the same finite value. *)
let test_fill_lognormal_redraw () =
  let target = 0x5A5L in
  let state = Int64.sub (unmix target) golden_gamma in
  Alcotest.(check int64) "the state yields the target bits" target
    (Rng.bits64 (Rng.of_state state));
  Alcotest.(check (float 0.0)) "whose uniform draw is zero" 0.0
    (Rng.float (Rng.of_state state) 1.0);
  let one = Rng.of_state state and bulk = Rng.of_state state in
  let v = Rng.lognormal one ~sigma:0.03 in
  let buf = [| Float.nan |] in
  Rng.fill_lognormal bulk ~sigma:0.03 buf ~pos:0 ~len:1;
  let after_three = Int64.add state (Int64.mul 3L golden_gamma) in
  Alcotest.(check int64) "lognormal redrew u1" after_three (Rng.state one);
  Alcotest.(check int64) "fill_lognormal redrew u1" after_three (Rng.state bulk);
  Alcotest.(check bool) "the value is finite" true (Float.is_finite v);
  Alcotest.(check int64) "the same value, bit for bit" (Int64.bits_of_float v)
    (Int64.bits_of_float buf.(0))

let test_fill_lognormal_range () =
  let r = Rng.create 1 in
  let buf = Array.make 4 0.0 in
  Alcotest.check_raises "past the end"
    (Invalid_argument "Rng.fill_lognormal: range outside the buffer") (fun () ->
      Rng.fill_lognormal r ~sigma:0.03 buf ~pos:2 ~len:3);
  Alcotest.check_raises "negative length"
    (Invalid_argument "Rng.fill_lognormal: range outside the buffer") (fun () ->
      Rng.fill_lognormal r ~sigma:0.03 buf ~pos:0 ~len:(-1))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "copy" `Quick test_copy_independent;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int invalid" `Quick test_int_invalid;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "lognormal median" `Quick test_lognormal_median;
    Alcotest.test_case "choose" `Quick test_choose;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    QCheck_alcotest.to_alcotest prop_int_uniformish;
    QCheck_alcotest.to_alcotest prop_fill_lognormal_is_lognormal;
    Alcotest.test_case "fill_lognormal takes the u1 redraw" `Quick
      test_fill_lognormal_redraw;
    Alcotest.test_case "fill_lognormal range check" `Quick test_fill_lognormal_range;
  ]
