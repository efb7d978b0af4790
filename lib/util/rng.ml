type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }
let state t = t.state
let of_state s = { state = s }
let set_state t s = t.state <- s

(* SplitMix64 output function: two xor-shift-multiply rounds. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  (* Using the mixed output as the seed of the child stream keeps the
     two streams decorrelated even for adjacent parent states. *)
  { state = bits64 t }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value is a non-negative OCaml int (native ints
     are 63-bit).  Rejection-free modulo is fine here: n is always tiny
     (choice among kinds, techniques, tasks) relative to 2^62, so bias
     is negligible for our purposes. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

(* 53 random mantissa bits of [bits], scaled to [0, x). *)
let[@inline] scaled x bits =
  let v = Int64.to_float (Int64.shift_right_logical bits 11) in
  x *. (v /. 9007199254740992.0)

let float t x = scaled x (bits64 t)

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-300 then draw ()
    else
      let u2 = float t 1.0 in
      sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
  in
  draw ()

let lognormal t ~sigma = exp (sigma *. gaussian t)

(* [lognormal] [len] times with the state in a local, which the native
   compiler keeps unboxed: the same float operations in the same order,
   redraw included, and one boxed state per call, not per draw. *)
let fill_lognormal t ~sigma buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length buf - len then
    invalid_arg "Rng.fill_lognormal: range outside the buffer";
  let s = ref t.state in
  for i = pos to pos + len - 1 do
    s := Int64.add !s golden_gamma;
    let u1 = ref (scaled 1.0 (mix !s)) in
    while !u1 <= 1e-300 do
      s := Int64.add !s golden_gamma;
      u1 := scaled 1.0 (mix !s)
    done;
    s := Int64.add !s golden_gamma;
    let u2 = scaled 1.0 (mix !s) in
    Array.unsafe_set buf i
      (exp (sigma *. (sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2))))
  done;
  t.state <- !s

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
