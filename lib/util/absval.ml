(* The abstract value domain shared by both abstract interpreters
   (Ssa.Absint over SSA actions, Hostir.Absint over HostIR streams).

   A value is a product of *known-bits* (each of the 64 bits is known-0,
   known-1 or unknown) and an *unsigned interval* [lo, hi].  The two
   halves refine each other on construction: an interval upper bound
   forces the high bits to known-zero, and known bits tighten the
   interval bounds.

   Widening: interval upper bounds climb the 2^k-1 ladder at loop heads
   (at most 64 rungs), lower bounds drop to 0, and the known-bits half
   needs no widening (its lattice has finite height).

   The transfers below are the layer-independent ones.  Both layers'
   concrete semantics agree on them: shift amounts are taken modulo 64,
   unsigned division by zero yields 0 and the remainder by zero yields
   the dividend.  Each layer still folds constant x constant itself,
   against its own reference semantics. *)

(* Invariants of [V] (established by [make]):
   - zeros land ones = 0
   - ones <=u lo <=u hi <=u lognot zeros (all comparisons unsigned) *)
type av = { zeros : int64; ones : int64; lo : int64; hi : int64 }

type t = Bot | V of av

let umin a b = if Bits.ule a b then a else b
let umax a b = if Bits.ule a b then b else a

(* Number of significant bits of an unsigned value. *)
let sigbits v = 64 - Bits.clz v

let make zeros ones lo hi =
  if Int64.logand zeros ones <> 0L then Bot
  else begin
    (* Mutual refinement of the two halves, to a fixed point: interval
       bounds clamp to what the bits allow, and the interval's high bound
       forces leading known-zeros. *)
    let zeros = ref zeros and lo = ref (umax lo ones) and hi = ref (umin hi (Int64.lognot zeros)) in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      let z = Int64.lognot (Bits.mask (sigbits !hi)) in
      if Int64.logand z (Int64.lognot !zeros) <> 0L then begin
        zeros := Int64.logor !zeros z;
        continue_ := true
      end;
      let hi' = umin !hi (Int64.lognot !zeros) in
      if hi' <> !hi then begin
        hi := hi';
        continue_ := true
      end
    done;
    if Int64.logand !zeros ones <> 0L then Bot
    else if Bits.ult !hi !lo then Bot
    else V { zeros = !zeros; ones; lo = !lo; hi = !hi }
  end

(* --- constructors and queries ---------------------------------------------- *)

let bot = Bot
let top = make 0L 0L 0L (-1L)
let const c = make (Int64.lognot c) c c c
let range lo hi = make 0L 0L lo hi
let of_width w = if w >= 64 then top else if w <= 0 then const 0L else range 0L (Bits.mask w)
let of_bool b = const (if b then 1L else 0L)
let bool_unknown = of_width 1
let is_bot = function Bot -> true | V _ -> false

let equal a b =
  match (a, b) with
  | Bot, Bot -> true
  | V a, V b -> a.zeros = b.zeros && a.ones = b.ones && a.lo = b.lo && a.hi = b.hi
  | _ -> false

let is_top v = equal v top

let is_const = function
  | Bot -> None
  | V { lo; hi; _ } -> if lo = hi then Some lo else None

let known_zeros = function Bot -> -1L | V { zeros; _ } -> zeros
let known_ones = function Bot -> 0L | V { ones; _ } -> ones
let bounds = function Bot -> None | V { lo; hi; _ } -> Some (lo, hi)

let contains v c =
  match v with
  | Bot -> false
  | V { zeros; ones; lo; hi } ->
    Int64.logand c zeros = 0L
    && Int64.logand c ones = ones
    && Bits.ule lo c && Bits.ule c hi

(* --- lattice operations ---------------------------------------------------- *)

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | V a, V b ->
    make (Int64.logand a.zeros b.zeros) (Int64.logand a.ones b.ones) (umin a.lo b.lo)
      (umax a.hi b.hi)

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | V a, V b ->
    make (Int64.logor a.zeros b.zeros) (Int64.logor a.ones b.ones) (umax a.lo b.lo)
      (umin a.hi b.hi)

(* Smallest all-ones value >=u v: the widening ladder. *)
let next_mask v = if v = 0L then 0L else Bits.mask (sigbits v)

(* [widen old new_] over-approximates [join old new_] and guarantees
   convergence: the interval's hi climbs the 2^k-1 ladder and lo drops
   straight to 0, while the known-bits half just intersects (finite
   height, no widening needed). *)
let widen a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | V a, V b ->
    let lo = if Bits.ult b.lo a.lo then 0L else a.lo in
    let hi = if Bits.ult a.hi b.hi then next_mask b.hi else a.hi in
    make (Int64.logand a.zeros b.zeros) (Int64.logand a.ones b.ones) lo hi

let leq a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | V a, V b ->
    Int64.logand b.zeros (Int64.lognot a.zeros) = 0L
    && Int64.logand b.ones (Int64.lognot a.ones) = 0L
    && Bits.ule b.lo a.lo && Bits.ule a.hi b.hi

(* Two sound approximations of the same concrete value must share at least
   one concrete member; disjoint approximations prove a semantic change. *)
let comparable a b = leq a b || leq b a

let to_string = function
  | Bot -> "bot"
  | V { zeros; ones; lo; hi } ->
    if lo = hi then Printf.sprintf "{%Lu}" lo
    else
      Printf.sprintf "[%Lu,%Lu]%s" lo hi
        (if zeros = Int64.lognot (Bits.mask (sigbits hi)) && ones = 0L then ""
         else Printf.sprintf " bits(z=%Lx,o=%Lx)" zeros ones)

(* --- transfer functions ---------------------------------------------------- *)

let lift2 f a b = match (a, b) with Bot, _ | _, Bot -> Bot | V va, V vb -> f va vb

let add =
  lift2 (fun va vb ->
      let lo = Int64.add va.lo vb.lo and hi = Int64.add va.hi vb.hi in
      if Bits.ult lo va.lo || Bits.ult hi va.hi then top else range lo hi)

let sub =
  lift2 (fun va vb ->
      if Bits.ule vb.hi va.lo then range (Int64.sub va.lo vb.hi) (Int64.sub va.hi vb.lo) else top)

let mul =
  lift2 (fun va vb ->
      if Bits.ule va.hi 0xFFFFFFFFL && Bits.ule vb.hi 0xFFFFFFFFL then
        range (Int64.mul va.lo vb.lo) (Int64.mul va.hi vb.hi)
      else top)

let udiv =
  lift2 (fun va vb ->
      let lo = if contains (V vb) 0L then 0L else Bits.udiv va.lo vb.hi in
      range lo (Bits.udiv va.hi (umax vb.lo 1L)))

let urem =
  lift2 (fun va vb ->
      if vb.hi = 0L then V va
      else if contains (V vb) 0L then range 0L va.hi
      else range 0L (umin va.hi (Int64.sub vb.hi 1L)))

let logand =
  lift2 (fun va vb ->
      make (Int64.logor va.zeros vb.zeros) (Int64.logand va.ones vb.ones) 0L (umin va.hi vb.hi))

let logor =
  lift2 (fun va vb ->
      make (Int64.logand va.zeros vb.zeros) (Int64.logor va.ones vb.ones) (umax va.lo vb.lo)
        (Bits.mask (max (sigbits va.hi) (sigbits vb.hi))))

let logxor =
  lift2 (fun va vb ->
      make
        (Int64.logor (Int64.logand va.zeros vb.zeros) (Int64.logand va.ones vb.ones))
        (Int64.logor (Int64.logand va.zeros vb.ones) (Int64.logand va.ones vb.zeros))
        0L
        (Bits.mask (max (sigbits va.hi) (sigbits vb.hi))))

let lognot = function
  | Bot -> Bot
  | V va -> make va.ones va.zeros (Int64.lognot va.hi) (Int64.lognot va.lo)

(* A shift amount, when it is known. *)
let amount vb = if vb.lo = vb.hi then Some (Int64.to_int (Int64.logand vb.lo 63L)) else None

let shl =
  lift2 (fun va vb ->
      match amount vb with
      | Some k ->
        let zeros = Int64.logor (Int64.shift_left va.zeros k) (Bits.mask k) in
        let ones = Int64.shift_left va.ones k in
        if va.hi = 0L || sigbits va.hi + k <= 64 then
          make zeros ones (Bits.shl va.lo k) (Bits.shl va.hi k)
        else make zeros ones 0L (-1L)
      | None -> top)

let lshr_by va k =
  let zeros =
    Int64.logor (Bits.shr va.zeros k) (if k = 0 then 0L else Int64.shift_left (Bits.mask k) (64 - k))
  in
  make zeros (Bits.shr va.ones k) (Bits.shr va.lo k) (Bits.shr va.hi k)

(* Any logical right shift shrinks the value unsignedly. *)
let lshr = lift2 (fun va vb -> match amount vb with Some k -> lshr_by va k | None -> range 0L va.hi)

(* Only a provably non-negative value is shifted precisely: there the
   arithmetic shift is the logical one. *)
let ashr =
  lift2 (fun va vb ->
      if not (Bits.bit va.zeros 63) then top
      else match amount vb with Some k -> lshr_by va k | None -> range 0L va.hi)

(* Zero/sign extension of the low [bits] bits, matching
   Bits.zero_extend / Bits.sign_extend. *)
let normalize ~bits ~signed a =
  match a with
  | Bot -> Bot
  | V va ->
    if bits >= 64 then a
    else if not signed then
      let m = Bits.mask bits in
      if Bits.ule va.hi m then a
      else make (Int64.logor va.zeros (Int64.lognot m)) (Int64.logand va.ones m) 0L m
    else begin
      let m = Bits.mask bits in
      if Bits.bit va.zeros (bits - 1) then begin
        (* Sign bit known clear: sext = zext of the low bits. *)
        if Bits.ule va.hi (Bits.mask (bits - 1)) then a
        else
          make
            (Int64.logor (Int64.logand va.zeros m) (Int64.lognot m))
            (Int64.logand va.ones m) 0L
            (Bits.mask (bits - 1))
      end
      else if Bits.bit va.ones (bits - 1) then
        (* Sign bit known set: the high bits all become ones. *)
        make (Int64.logand va.zeros m)
          (Int64.logor (Int64.logand va.ones m) (Int64.lognot m))
          0L (-1L)
      else
        make
          (Int64.logand va.zeros (Bits.mask (bits - 1)))
          (Int64.logand va.ones (Bits.mask (bits - 1)))
          0L (-1L)
    end

(* --- comparisons and redundancy tests -------------------------------------- *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(* Decide a comparison from the interval/bits halves; [None] = unknown.
   Equality is decided by disjointness.  Orders are decided in unsigned
   terms; the signed ones only when both operands are provably
   non-negative (bit 63 known-zero), where the orders coincide. *)
let decide cmp ~signed a b =
  match (a, b) with
  | Bot, _ | _, Bot -> None
  | V va, V vb -> (
    let lt x y = if Bits.ult x.hi y.lo then Some true else if Bits.ule y.hi x.lo then Some false else None in
    let le x y = if Bits.ule x.hi y.lo then Some true else if Bits.ult y.hi x.lo then Some false else None in
    let nonneg v = Bits.bit v.zeros 63 in
    match cmp with
    | Eq | Ne ->
      let eq =
        match (is_const a, is_const b) with
        | Some x, Some y -> Some (x = y)
        | _ ->
          if Bits.ult va.hi vb.lo || Bits.ult vb.hi va.lo
             || Int64.logand va.ones vb.zeros <> 0L
             || Int64.logand va.zeros vb.ones <> 0L
          then Some false
          else None
      in
      if cmp = Eq then eq else Option.map not eq
    | _ when signed && not (nonneg va && nonneg vb) -> None
    | Lt -> lt va vb
    | Le -> le va vb
    | Gt -> lt vb va
    | Ge -> le vb va)

(* [x land m = x] for every member [x]: no possibly-set bit is cleared. *)
let mask_redundant v m = Int64.logand (Int64.lognot (known_zeros v)) (Int64.lognot m) = 0L

let fits ~bits ~signed v = leq v (of_width (if signed then bits - 1 else bits))
