(* 64-bit manipulation helpers used throughout the DBT.

   All values are carried as [int64]; narrower widths are represented
   zero-extended in the low bits unless stated otherwise. *)

let ( +% ) = Int64.add
let ( -% ) = Int64.sub
let ( *% ) = Int64.mul
let ( &% ) = Int64.logand
let ( |% ) = Int64.logor
let ( ^% ) = Int64.logxor
let lnot64 = Int64.lognot

(* Shift amounts are masked to 0..63 as on real hardware. *)
let shl x n = Int64.shift_left x (n land 63)
let shr x n = Int64.shift_right_logical x (n land 63)
let sar x n = Int64.shift_right x (n land 63)

(* A mask of [n] ones in the low bits. [mask 64] is all-ones, [mask 0] zero. *)
let mask n =
  if n <= 0 then 0L
  else if n >= 64 then -1L
  else Int64.shift_left 1L n -% 1L

(* Extract [len] bits of [x] starting at bit [lo] (LSB = 0). *)
let extract x ~lo ~len = shr x lo &% mask len

(* Insert the low [len] bits of [v] into [x] at position [lo]. *)
let insert x ~lo ~len v =
  let m = shl (mask len) lo in
  x &% lnot64 m |% (shl v lo &% m)

let bit x i = extract x ~lo:i ~len:1 <> 0L

(* Sign-extend the low [width] bits of [x] to 64 bits. *)
let sign_extend x ~width =
  if width <= 0 || width >= 64 then x
  else
    let shift = 64 - width in
    sar (shl x shift) shift

(* Truncate [x] to [width] bits (zero-extended representation). *)
let zero_extend x ~width = x &% mask width

let rotate_right x n ~width =
  let n = n mod width in
  if n = 0 then zero_extend x ~width
  else
    let x = zero_extend x ~width in
    zero_extend (shr x n |% shl x (width - n)) ~width

let rotate_left x n ~width = rotate_right x (width - (n mod width)) ~width

(* Unsigned comparison on int64. *)
let ucompare = Int64.unsigned_compare
let ult a b = ucompare a b < 0
let ule a b = ucompare a b <= 0
let udiv = Int64.unsigned_div
let urem = Int64.unsigned_rem

(* The bit-counting and reversal operations below are loop-free (SWAR):
   the executor evaluates them on every Bit1 instruction.  Widths are
   in [0, 64]. *)

external bswap64 : int64 -> int64 = "%bswap_int64"

let popcount x =
  let x = x -% (shr x 1 &% 0x5555_5555_5555_5555L) in
  let x = (x &% 0x3333_3333_3333_3333L) +% (shr x 2 &% 0x3333_3333_3333_3333L) in
  let x = (x +% shr x 4) &% 0x0F0F_0F0F_0F0F_0F0FL in
  Int64.to_int (shr (x *% 0x0101_0101_0101_0101L) 56)

(* Leading zeros of the low [width] bits: smear the highest set bit
   down, then count what is left clear above it. *)
let clz ?(width = 64) x =
  let x = zero_extend x ~width in
  let x = x |% shr x 1 in
  let x = x |% shr x 2 in
  let x = x |% shr x 4 in
  let x = x |% shr x 8 in
  let x = x |% shr x 16 in
  let x = x |% shr x 32 in
  popcount (lnot64 x) - (64 - width)

(* Trailing zeros of the low [width] bits: count the ones below the
   lowest set bit. *)
let ctz ?(width = 64) x =
  let x = zero_extend x ~width in
  if x = 0L then width else popcount ((x &% Int64.neg x) -% 1L)

(* Reverse the low [width] bits: swap bits, pairs and nibbles within each
   byte, byte-swap, then drop the bits above [width]. *)
let bit_reverse x ~width =
  if width <= 0 then 0L
  else
    let swap x m k = (shr x k &% m) |% shl (x &% m) k in
    let x = swap x 0x5555_5555_5555_5555L 1 in
    let x = swap x 0x3333_3333_3333_3333L 2 in
    let x = swap x 0x0F0F_0F0F_0F0F_0F0FL 4 in
    shr (bswap64 x) (64 - width)

(* Byte-swap the low [width / 8] bytes (width is 16, 32 or 64). *)
let byte_swap x ~width =
  let n = width / 8 in
  if n <= 0 then 0L else shr (bswap64 x) (64 - (8 * n))

(* Align [x] down/up to a power-of-two [align]. *)
let align_down x align = x &% lnot64 (Int64.of_int (align - 1))
let align_up x align = align_down (x +% Int64.of_int (align - 1)) align
let is_aligned x align = x &% Int64.of_int (align - 1) = 0L

(* Carry and overflow of a 64-bit addition with carry-in, as the ARM
   pseudo-code's AddWithCarry computes them. *)
let add_with_carry ?(width = 64) a b carry_in =
  let a = zero_extend a ~width and b = zero_extend b ~width in
  let cin = if carry_in then 1L else 0L in
  let result = zero_extend (a +% b +% cin) ~width in
  (* Carry-out of a + b + cin in [width] bits: with cin=0 the sum wrapped iff
     it is strictly below [a]; with cin=1 it wrapped iff it is <= [a]. *)
  let carry = if carry_in then ule result a else ult result a in
  let sa = bit a (width - 1) and sb = bit b (width - 1) and sr = bit result (width - 1) in
  let overflow = sa = sb && sr <> sa in
  (result, carry, overflow)

let hex x = Printf.sprintf "0x%Lx" x
