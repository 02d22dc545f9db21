(* The SplitMix64 state lives unboxed in 8 bytes, so a draw reads,
   advances and writes it without allocating a boxed [int64]. [next] is
   inlined into every draw, and the draws that return an [int] keep the
   mixed word unboxed until it is cut down to the result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let create seed = of_state (mix (Int64.of_int seed))
let int64 t = next t
let split t = of_state (next t)

(* 62 uniform nonnegative bits ([Int64.to_int] keeps the low 63 bits,
   masking with [max_int] clears the sign), then a rejection loop to
   remove the modulo bias exactly. *)
let rec draw t bound =
  let r = Int64.to_int (next t) land max_int in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then draw t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw t bound

let int_incl t lo hi =
  if hi < lo then invalid_arg "Rng.int_incl: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
