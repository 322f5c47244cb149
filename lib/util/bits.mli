(** 64-bit manipulation helpers used throughout the DBT.

    All values are carried as {!int64}; narrower widths are represented
    zero-extended in the low bits unless stated otherwise. *)

val ( +% ) : int64 -> int64 -> int64
val ( -% ) : int64 -> int64 -> int64
val ( *% ) : int64 -> int64 -> int64
val ( &% ) : int64 -> int64 -> int64
val ( |% ) : int64 -> int64 -> int64
val ( ^% ) : int64 -> int64 -> int64
val lnot64 : int64 -> int64

(** Logical shift left; the amount is masked to 0..63 as on real hardware. *)
val shl : int64 -> int -> int64

(** Logical shift right (amount masked to 0..63). *)
val shr : int64 -> int -> int64

(** Arithmetic shift right (amount masked to 0..63). *)
val sar : int64 -> int -> int64

(** [mask n] is [n] one-bits in the low positions; [mask 64] is all-ones,
    [mask 0] is zero. *)
val mask : int -> int64

(** [extract x ~lo ~len] returns [len] bits of [x] starting at bit [lo]
    (bit 0 = LSB), zero-extended. *)
val extract : int64 -> lo:int -> len:int -> int64

(** [insert x ~lo ~len v] returns [x] with the low [len] bits of [v]
    written at position [lo]. *)
val insert : int64 -> lo:int -> len:int -> int64 -> int64

(** [bit x i] is bit [i] of [x]. *)
val bit : int64 -> int -> bool

(** Sign-extend the low [width] bits of the argument to 64 bits. *)
val sign_extend : int64 -> width:int -> int64

(** Truncate to [width] bits (zero-extended representation). *)
val zero_extend : int64 -> width:int -> int64

(** Rotate within the given width; results are zero-extended. *)
val rotate_right : int64 -> int -> width:int -> int64

val rotate_left : int64 -> int -> width:int -> int64

(** Unsigned comparison, {!Int64.unsigned_compare}. *)
val ucompare : int64 -> int64 -> int

val ult : int64 -> int64 -> bool
val ule : int64 -> int64 -> bool
val udiv : int64 -> int64 -> int64
val urem : int64 -> int64 -> int64
val popcount : int64 -> int

(** Count leading zeros within [width] (default 64); returns [width] for
    zero. *)
val clz : ?width:int -> int64 -> int

(** Count trailing zeros within [width] (default 64); returns [width] for
    zero. *)
val ctz : ?width:int -> int64 -> int

(** Reverse the low [width] bits. *)
val bit_reverse : int64 -> width:int -> int64

(** Byte-swap within [width] bits (16, 32 or 64). *)
val byte_swap : int64 -> width:int -> int64

val align_down : int64 -> int -> int64
val align_up : int64 -> int -> int64
val is_aligned : int64 -> int -> bool

(** [add_with_carry ?width a b cin] returns [(result, carry_out,
    signed_overflow)] of the [width]-bit addition [a + b + cin], as the
    ARM pseudo-code's AddWithCarry computes them. *)
val add_with_carry : ?width:int -> int64 -> int64 -> bool -> int64 * bool * bool

(** Hexadecimal rendering. *)
val hex : int64 -> string
