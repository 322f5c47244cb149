(* IEEE-754 binary64 over int64 bit patterns.

   The arithmetic entry points run on the host FPU when the operands and
   the result sit in a window where the host's round-to-nearest-even
   result is provably what Sf_core computes, and fall back to Sf_core
   (the soft path, and the specification) everywhere else.  See DESIGN.md,
   "Host-FPU fast path". *)

open Sf_types

let fmt = Sf_core.f64_fmt

let of_float = Int64.bits_of_float
let to_float = Int64.float_of_bits

let zero = Sf_core.zero fmt false
let neg_zero = Sf_core.zero fmt true
let one = of_float 1.0
let infinity = Sf_core.infinity fmt false
let neg_infinity = Sf_core.infinity fmt true
let default_nan style = Sf_core.default_nan fmt style

let classify = Sf_core.classify fmt
let is_nan = Sf_core.is_nan fmt
let is_snan = Sf_core.is_snan fmt
let is_inf = Sf_core.is_inf fmt
let is_zero = Sf_core.is_zero fmt
let sign = Sf_core.sign_of fmt

(* --- host-FPU fast path ---------------------------------------------------

   The window: a biased exponent in [64, 1983], i.e. magnitudes in
   [2^-959, 2^961).  When every operand is in it (or is +-0) and so is the
   host result (or the result is an exact zero), no overflow, underflow,
   invalid or divide-by-zero can occur, and the host's result is the
   correctly rounded one.  The only flag left is inexact, which an
   error-free transformation decides exactly: its residual is a multiple
   of at least 2^-1065, so it is non-zero exactly when the rounding lost
   something. *)

let[@inline] biased_exp x = Int64.to_int (Int64.shift_right_logical x 52) land 0x7FF
let[@inline] in_window x = let e = biased_exp x in e >= 64 && e <= 1983
let[@inline] is_pm_zero x = Int64.shift_left x 1 = 0L
let[@inline] operand_ok x = in_window x || is_pm_zero x
let[@inline] not_nan x = Int64.logand x Int64.max_int <= 0x7FF0_0000_0000_0000L
let[@inline] nearest = function Nearest_even -> true | _ -> false
let[@inline] inexact_if flags residual = if residual <> 0.0 then flags.inexact <- true

(* TwoSum: the exact rounding error of [s = x +. y]. *)
let[@inline] two_sum_err x y s =
  let y' = s -. x in
  (x -. (s -. y')) +. (y -. y')

(* Sums of window operands are multiples of 2^-1011, so a zero sum is
   exact. *)
let add ?style ?(rm = Nearest_even) flags a b =
  if nearest rm && operand_ok a && operand_ok b then begin
    let x = to_float a and y = to_float b in
    let s = x +. y in
    let r = of_float s in
    if in_window r || is_pm_zero r then begin
      inexact_if flags (two_sum_err x y s);
      r
    end
    else Sf_core.add ?style fmt flags rm a b
  end
  else Sf_core.add ?style fmt flags rm a b

let neg = Sf_core.neg fmt
let abs = Sf_core.abs fmt

(* As in Sf_core: a - b is a + (-b), NaN operands included. *)
let sub ?style ?rm flags a b = add ?style ?rm flags a (neg b)

(* A zero product is exact only when an operand is zero; otherwise it
   underflowed. *)
let mul ?style ?(rm = Nearest_even) flags a b =
  if nearest rm && operand_ok a && operand_ok b then begin
    let x = to_float a and y = to_float b in
    let p = x *. y in
    let r = of_float p in
    if in_window r then begin
      inexact_if flags (Float.fma x y (-.p));
      r
    end
    else if is_pm_zero a || is_pm_zero b then r
    else Sf_core.mul ?style fmt flags rm a b
  end
  else Sf_core.mul ?style fmt flags rm a b

(* A zero divisor always takes the soft path (divide-by-zero, or invalid
   for 0/0). *)
let div ?style ?(rm = Nearest_even) flags a b =
  if nearest rm && operand_ok a && in_window b then begin
    let x = to_float a and y = to_float b in
    let q = x /. y in
    let r = of_float q in
    if in_window r then begin
      inexact_if flags (Float.fma (-.q) y x);
      r
    end
    else if is_pm_zero a then r
    else Sf_core.div ?style fmt flags rm a b
  end
  else Sf_core.div ?style fmt flags rm a b

(* The root of a positive window operand is itself in the window; negative
   operands take the soft path (invalid, and [style]'s default NaN). *)
let sqrt ?style ?(rm = Nearest_even) flags a =
  if nearest rm && a > 0L && in_window a then begin
    let x = to_float a in
    let s = Float.sqrt x in
    inexact_if flags (Float.fma (-.s) s x);
    of_float s
  end
  else if nearest rm && is_pm_zero a then a
  else Sf_core.sqrt ?style fmt flags rm a

(* Non-NaN operands compare on the host (no flags), with -0 below +0 on a
   tie; NaNs take the soft path, which propagates them. *)
let min_ flags a b =
  if not_nan a && not_nan b then begin
    let x = to_float a and y = to_float b in
    if x < y then a else if x > y then b else if a < 0L then a else b
  end
  else Sf_core.min_ fmt flags a b

let max_ flags a b =
  if not_nan a && not_nan b then begin
    let x = to_float a and y = to_float b in
    if x > y then a else if x < y then b else if a < 0L then b else a
  end
  else Sf_core.max_ fmt flags a b

let compare_ flags a b = Sf_core.compare_ fmt flags a b
let eq flags a b = Sf_core.eq fmt flags a b
let lt flags a b = Sf_core.lt fmt flags a b
let le flags a b = Sf_core.le fmt flags a b

(* Every integer of magnitude at most 2^53 is exact in binary64, under any
   rounding mode. *)
let of_int64 ?(rm = Nearest_even) flags v =
  let u = Int64.add v 0x20_0000_0000_0000L in
  if u >= 0L && u <= 0x40_0000_0000_0000L then of_float (Int64.to_float v)
  else Sf_core.of_int64 fmt flags rm v

let of_uint64 ?(rm = Nearest_even) flags v = Sf_core.of_uint64 fmt flags rm v
let to_int64 ?(rm = Toward_zero) flags v = Sf_core.to_int64 fmt flags rm v
let to_f32 ?(rm = Nearest_even) flags v = Sf_core.convert ~from:fmt ~to_:Sf_core.f32_fmt flags rm v
