(** The abstract value domain of both abstract interpreters
    ([Ssa.Absint] and [Hostir.Absint]).

    An abstract set of 64-bit values: bottom (no value) or the product of
    a known-bits mask pair (each bit known-0, known-1 or unknown) and an
    unsigned interval, the two halves refining each other.  Widening
    climbs the [2^k-1] ladder, so ascending chains stabilize within about
    64 steps while width facts survive.

    The transfers take the conventions both layers' concrete semantics
    share: shift amounts are taken modulo 64, [udiv x 0 = 0] and
    [urem x 0 = x].  They are sound for every argument, constants
    included; each layer still folds constant x constant exactly against
    its own reference semantics. *)

type t

(** {1 Constructors} *)

val bot : t
val top : t
val const : int64 -> t

(** [range lo hi] is the unsigned interval [lo..hi]. *)
val range : int64 -> int64 -> t

(** [of_width w]: all values representable in [w] unsigned bits. *)
val of_width : int -> t

val of_bool : bool -> t

(** [{0, 1}]. *)
val bool_unknown : t

(** {1 Queries} *)

val is_bot : t -> bool
val is_top : t -> bool

(** Structural equality of two abstractions. *)
val equal : t -> t -> bool

(** [Some c] iff the abstraction is the singleton [{c}]. *)
val is_const : t -> int64 option

(** Mask of bits proved zero (all-ones for bottom). *)
val known_zeros : t -> int64

(** Mask of bits proved one (zero for bottom). *)
val known_ones : t -> int64

(** Unsigned interval bounds [(lo, hi)]; [None] for bottom. *)
val bounds : t -> (int64 * int64) option

(** Concretization membership: is the concrete value contained? *)
val contains : t -> int64 -> bool

(** {1 Lattice} *)

val join : t -> t -> t
val meet : t -> t -> t

(** [widen old next] over-approximates [join old next] and guarantees
    convergence of ascending chains. *)
val widen : t -> t -> t

(** Lattice order: [leq a b] iff every value of [a] is a value of [b]. *)
val leq : t -> t -> bool

(** [comparable a b] iff one abstraction contains the other.  Two sound
    approximations of the same concrete value are always comparable in
    practice here; disjoint ones prove a semantic change. *)
val comparable : t -> t -> bool

val to_string : t -> string

(** {1 Transfer functions} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val udiv : t -> t -> t
val urem : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shl : t -> t -> t
val lshr : t -> t -> t

(** Precise only on provably non-negative values ([[0, hi]] for an
    unknown amount); [top] otherwise. *)
val ashr : t -> t -> t

(** Zero ([signed = false]) or sign extension of the low [bits] bits. *)
val normalize : bits:int -> signed:bool -> t -> t

(** {1 Comparisons and redundancy tests} *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** [decide cmp ~signed a b] is [Some r] when [a cmp b] is [r] for every
    pair of members, [None] when unknown.  [signed] only matters for the
    orders, which are decided when both operands are provably
    non-negative. *)
val decide : cmp -> signed:bool -> t -> t -> bool option

(** [mask_redundant v m]: [x land m = x] for every member [x] of [v]. *)
val mask_redundant : t -> int64 -> bool

(** [fits ~bits ~signed v]: zero ([signed = false]) or sign extension of
    the low [bits] bits is the identity on every member of [v]. *)
val fits : bits:int -> signed:bool -> t -> bool
