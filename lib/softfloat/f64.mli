(** IEEE-754 binary64 over [int64] bit patterns.

    All operations are bit-exact and give {!Sf_core}'s exception flags.
    [add], [sub], [mul], [div], [sqrt], [of_int64], [min_] and [max_] run
    on the host FPU when the operands and the result lie in a window where
    that is provably exact, and on {!Sf_core} (the soft path) otherwise;
    the test suite checks both paths.  Exception flags
    accumulate into the caller-provided {!Sf_types.flags}. *)

open Sf_types

val fmt : Sf_core.fmt

(** Bridges to native floats (exact: OCaml floats are binary64). *)
val of_float : float -> int64

val to_float : int64 -> float

val zero : int64
val neg_zero : int64
val one : int64
val infinity : int64
val neg_infinity : int64

(** Default NaN under the given architecture convention: positive for ARM,
    the negative "indefinite" for x86 (paper Table 2). *)
val default_nan : nan_style -> int64

val classify : int64 -> fclass
val is_nan : int64 -> bool
val is_snan : int64 -> bool
val is_inf : int64 -> bool
val is_zero : int64 -> bool
val sign : int64 -> bool

(** Arithmetic; [style] selects the default-NaN convention for invalid
    operations (default ARM), [rm] the rounding mode (default
    round-to-nearest-even). *)
val add : ?style:nan_style -> ?rm:rounding -> flags -> int64 -> int64 -> int64

val sub : ?style:nan_style -> ?rm:rounding -> flags -> int64 -> int64 -> int64
val mul : ?style:nan_style -> ?rm:rounding -> flags -> int64 -> int64 -> int64
val div : ?style:nan_style -> ?rm:rounding -> flags -> int64 -> int64 -> int64
val sqrt : ?style:nan_style -> ?rm:rounding -> flags -> int64 -> int64
val neg : int64 -> int64
val abs : int64 -> int64

(** ARM FMIN/FMAX semantics: NaNs propagate; -0 orders below +0. *)
val min_ : flags -> int64 -> int64 -> int64

val max_ : flags -> int64 -> int64 -> int64

val compare_ : flags -> int64 -> int64 -> Sf_core.cmp
val eq : flags -> int64 -> int64 -> bool
val lt : flags -> int64 -> int64 -> bool
val le : flags -> int64 -> int64 -> bool

val of_int64 : ?rm:rounding -> flags -> int64 -> int64
val of_uint64 : ?rm:rounding -> flags -> int64 -> int64

(** Conversion to signed int64; truncating by default, saturating with the
    invalid flag on overflow/NaN (AArch64 FCVTZS). *)
val to_int64 : ?rm:rounding -> flags -> int64 -> int64

val to_f32 : ?rm:rounding -> flags -> int64 -> int64
