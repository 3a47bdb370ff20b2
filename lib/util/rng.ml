(* The splitmix64 state lives unboxed in 8 bytes: a mutable [int64]
   field would hold a pointer to a boxed copy, reallocated on every draw.
   [next] and [mix] are inlined into each draw, so the compiler keeps the
   whole computation in registers and a draw allocates nothing. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let[@osiris.alloc_ok "unboxed: feeds only Int64 primitives"] z =
    Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L)
  in
  let[@osiris.alloc_ok "unboxed: feeds only Int64 primitives"] z =
    Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL)
  in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] next t =
  let[@osiris.alloc_ok "unboxed: stored and mixed by Int64 primitives"] s =
    Int64.add (Bytes.get_int64_ne t 0) golden
  in
  Bytes.set_int64_ne t 0 s;
  mix s

let bits64 t = next t

let split t = of_state (next t)

let int t n =
  if n <= 0 then
    (invalid_arg "Rng.int: bound must be positive"
    [@osiris.alloc_ok "cold error path: raises"]);
  (* Rejection-free for our purposes: modulo bias is negligible for n
     far below 2^62. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int n))

(* Inlined at the call site so the result stays unboxed there too. *)
let[@inline] float t x =
  let[@osiris.alloc_ok "unboxed: feeds only float arithmetic"] u =
    Int64.to_float (Int64.shift_right_logical (next t) 11)
  in
  x *. u /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L

let chance t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-300 else u in
  -.mean *. log u

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
