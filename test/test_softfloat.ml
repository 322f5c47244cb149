(* The soft path (Sf_core) is validated against the host FPU: OCaml floats
   are IEEE binary64 with round-to-nearest-even, so for every binary64
   operation the host is a bit-exact oracle (modulo NaN payloads, which we
   compare as "both NaN").  F64 itself runs on the host FPU inside its
   window, so those checks call Sf_core directly; F64 is then checked
   against Sf_core, bit for bit and flag for flag. *)

open Softfloat

let flags () = Sf_types.new_flags ()

(* The soft path, with F64's signatures. *)
module Soft = struct
  open Sf_types

  let fmt = Sf_core.f64_fmt
  let add ?style ?(rm = Nearest_even) f a b = Sf_core.add ?style fmt f rm a b
  let sub ?style ?(rm = Nearest_even) f a b = Sf_core.sub ?style fmt f rm a b
  let mul ?style ?(rm = Nearest_even) f a b = Sf_core.mul ?style fmt f rm a b
  let div ?style ?(rm = Nearest_even) f a b = Sf_core.div ?style fmt f rm a b
  let sqrt ?style ?(rm = Nearest_even) f a = Sf_core.sqrt ?style fmt f rm a
  let min_ f a b = Sf_core.min_ fmt f a b
  let max_ f a b = Sf_core.max_ fmt f a b
  let lt f a b = Sf_core.lt fmt f a b
  let of_int64 ?(rm = Nearest_even) f v = Sf_core.of_int64 fmt f rm v
end

let same_f64 a b = a = b || (F64.is_nan a && F64.is_nan b)

let check_same name expected got =
  if not (same_f64 expected got) then
    Alcotest.failf "%s: expected %Lx (%h) got %Lx (%h)" name expected (F64.to_float expected) got
      (F64.to_float got)

let binop_cases =
  [
    ("1.5+2.25", 1.5, 2.25, `Add);
    ("sub eq", 1.0, 1.0, `Sub);
    ("cancel", 1.0000000000000002, 1.0, `Sub);
    ("mul", 1.5, 3.0, `Mul);
    ("mul tiny", 1e-308, 1e-10, `Mul);
    ("div", 1.0, 3.0, `Div);
    ("div denormal", 4e-320, 3.0, `Div);
    ("add inf", infinity, 1.0, `Add);
    ("inf-inf", infinity, infinity, `Sub);
    ("0/0", 0.0, 0.0, `Div);
    ("x/0", 5.0, 0.0, `Div);
    ("-0 + +0", -0.0, 0.0, `Add);
    ("subnormal sum", 5e-324, 5e-324, `Add);
    ("near-overflow", 1.7e308, 1.7e308, `Add);
  ]

let test_binop_vectors () =
  List.iter
    (fun (name, x, y, op) ->
      let a = F64.of_float x and b = F64.of_float y in
      let host, mine =
        match op with
        | `Add -> (x +. y, Soft.add (flags ()) a b)
        | `Sub -> (x -. y, Soft.sub (flags ()) a b)
        | `Mul -> (x *. y, Soft.mul (flags ()) a b)
        | `Div -> (x /. y, Soft.div (flags ()) a b)
      in
      check_same name (F64.of_float host) mine)
    binop_cases

let test_sqrt_vectors () =
  List.iter
    (fun x ->
      let host = F64.of_float (Float.sqrt x) in
      let mine = Soft.sqrt (flags ()) (F64.of_float x) in
      check_same (Printf.sprintf "sqrt %h" x) host mine)
    [ 0.0; 1.0; 2.0; 4.0; 0.5; 1e300; 1e-300; 5e-324; 2.2250738585072014e-308; 3.14159; 1e16 ]

let test_sqrt_nan_sign () =
  (* Table 2 of the paper: x86 yields -NaN on negative inputs, ARM +NaN. *)
  let neg = F64.of_float (-0.5) in
  let x86 = Archfp.x86_sqrtsd neg and arm = Archfp.arm_fsqrt neg in
  Alcotest.(check bool) "x86 sign" true (F64.sign x86);
  Alcotest.(check bool) "arm sign" false (F64.sign arm);
  Alcotest.(check bool) "both nan" true (F64.is_nan x86 && F64.is_nan arm);
  (* -0.0 has an exact square root of -0.0 on both. *)
  check_same "sqrt -0 x86" F64.neg_zero (Archfp.x86_sqrtsd F64.neg_zero);
  check_same "sqrt -0 arm" F64.neg_zero (Archfp.arm_fsqrt F64.neg_zero);
  (* The fix-up turns the x86 result into the ARM result. *)
  check_same "fixup" arm (Archfp.fixup_sqrt_result ~input:neg x86)

let test_flags () =
  let f = flags () in
  let _ = F64.div f (F64.of_float 1.0) F64.zero in
  Alcotest.(check bool) "div_by_zero" true f.Sf_types.div_by_zero;
  let f = flags () in
  let _ = F64.add f F64.infinity F64.neg_infinity in
  Alcotest.(check bool) "invalid" true f.Sf_types.invalid;
  let f = flags () in
  let big = F64.of_float 1.7976931348623157e308 in
  let _ = F64.mul f big big in
  Alcotest.(check bool) "overflow" true f.Sf_types.overflow;
  Alcotest.(check bool) "inexact" true f.Sf_types.inexact

let test_compare () =
  let f = flags () in
  let one = F64.of_float 1.0 and two = F64.of_float 2.0 in
  Alcotest.(check bool) "lt" true (F64.lt f one two);
  Alcotest.(check bool) "le eq" true (F64.le f one one);
  Alcotest.(check bool) "eq zeros" true (F64.eq f F64.zero F64.neg_zero);
  let nan = F64.default_nan Sf_types.Arm_nan in
  Alcotest.(check bool) "nan not eq" false (F64.eq f nan nan);
  Alcotest.(check bool) "nan not lt" false (F64.lt f nan one);
  Alcotest.(check bool) "neg lt pos" true (F64.lt f (F64.of_float (-1.0)) one)

let test_int_conversions () =
  let f = flags () in
  List.iter
    (fun v ->
      Alcotest.(check int64)
        (Printf.sprintf "of_int64 %Ld" v)
        (F64.of_float (Int64.to_float v))
        (F64.of_int64 f v))
    [ 0L; 1L; -1L; 123456789L; Int64.max_int; Int64.min_int; 4503599627370497L ];
  List.iter
    (fun x ->
      Alcotest.(check int64)
        (Printf.sprintf "to_int64 %h" x)
        (Int64.of_float x)
        (F64.to_int64 f (F64.of_float x)))
    [ 0.0; 1.9; -1.9; 1e15; -1e15; 0.5 ]

let test_f32_basics () =
  let f = flags () in
  let a = F32.of_float 1.5 and b = F32.of_float 2.5 in
  Alcotest.(check int64) "f32 add" (F32.of_float 4.0) (F32.add f a b);
  Alcotest.(check int64) "f32 mul" (F32.of_float 3.75) (F32.mul f a b);
  Alcotest.(check int64) "f32 div" (F32.of_float 0.6) (F32.div f a b);
  Alcotest.(check int64) "f32 sqrt" (F32.of_float 1.5) (F32.sqrt f (F32.of_float 2.25));
  (* Round-trip through f64 is exact for f32 values. *)
  Alcotest.(check int64) "f32->f64->f32" a (F64.to_f32 f (F32.to_f64 f a))

(* Generator biased towards interesting exponents: uniform bit patterns are
   almost always huge-exponent normals. *)
let f64_gen =
  QCheck2.Gen.(
    oneof
      [
        int64;
        (* small exponent range around 1.0 *)
        map2
          (fun frac e ->
            Int64.logor
              (Int64.logand frac 0xFFFFFFFFFFFFFL)
              (Int64.shift_left (Int64.of_int (1023 + e)) 52))
          int64 (int_range (-60) 60);
        (* subnormals *)
        map (fun f -> Int64.logand f 0xFFFFFFFFFFFFFL) int64;
        oneofl
          [ 0L; Int64.min_int; F64.infinity; F64.neg_infinity; F64.default_nan Sf_types.Arm_nan ];
      ])

let mk_prop name host mine =
  QCheck2.Test.make ~name ~count:2000 QCheck2.Gen.(pair f64_gen f64_gen) (fun (a, b) ->
      let expected = F64.of_float (host (F64.to_float a) (F64.to_float b)) in
      same_f64 expected (mine (flags ()) a b))

let prop_add = mk_prop "f64 add matches host" ( +. ) Soft.add
let prop_sub = mk_prop "f64 sub matches host" ( -. ) Soft.sub
let prop_mul = mk_prop "f64 mul matches host" ( *. ) Soft.mul
let prop_div = mk_prop "f64 div matches host" ( /. ) Soft.div

let prop_sqrt =
  QCheck2.Test.make ~name:"f64 sqrt matches host" ~count:2000 f64_gen (fun a ->
      let expected = F64.of_float (Float.sqrt (F64.to_float a)) in
      same_f64 expected (Soft.sqrt (flags ()) a))

let prop_compare =
  QCheck2.Test.make ~name:"f64 lt matches host" ~count:2000 QCheck2.Gen.(pair f64_gen f64_gen)
    (fun (a, b) -> Soft.lt (flags ()) a b = (F64.to_float a < F64.to_float b))

let prop_f32_roundtrip =
  QCheck2.Test.make ~name:"f32->f64 conversion matches host" ~count:2000 QCheck2.Gen.int64
    (fun bits ->
      let b32 = Int64.logand bits 0xFFFFFFFFL in
      let expected = F64.of_float (F32.to_float b32) in
      same_f64 expected (F32.to_f64 (flags ()) b32))

let prop_f64_to_f32 =
  QCheck2.Test.make ~name:"f64->f32 conversion matches host" ~count:2000 f64_gen (fun a ->
      (* OCaml exposes binary32 rounding via Int32.bits_of_float. *)
      let expected = Int64.logand (Int64.of_int32 (Int32.bits_of_float (F64.to_float a))) 0xFFFFFFFFL in
      let got = F64.to_f32 (flags ()) a in
      expected = got || (F32.is_nan expected && F32.is_nan got))

(* --- F64 (host fast path inside its window) = Sf_core --------------------- *)

let pack_f64 sign exp frac =
  Int64.logor
    (if sign then Int64.min_int else 0L)
    (Int64.logor (Int64.shift_left (Int64.of_int exp) 52) (Int64.logand frac 0xF_FFFF_FFFF_FFFFL))

let two53 = 0x20_0000_0000_0000L

(* Operands biased to the window edges (biased exponents 64 and 1983),
   the subnormal and overflow boundaries, specials of both NaN kinds and
   integer values around 2^53.  Short fractions make exact results (no
   inexact) common. *)
let edge_gen =
  let open QCheck2.Gen in
  let frac =
    oneof
      [ int64; return 0L; return (-1L); map (fun k -> Int64.shift_left (Int64.of_int k) 44) (int_bound 255) ]
  in
  let with_exp exps = map3 pack_f64 bool (oneofl exps) frac in
  frequency
    [
      (6, with_exp [ 1; 2; 63; 64; 65; 1982; 1983; 1984; 2045; 2046 ]);
      (3, map3 pack_f64 bool (int_range 960 1086) frac);
      (1, map3 pack_f64 bool (return 0) frac);
      ( 1,
        oneofl
          [
            0L; Int64.min_int; F64.infinity; F64.neg_infinity; 0x7FF8_0000_0000_0000L;
            0xFFF8_0000_0000_0001L; 0x7FF0_0000_0000_0001L; 0xFFF4_0000_0000_0000L;
          ] );
      (2, map (fun k -> F64.of_float (float_of_int k)) (int_range (-1000) 1000));
      (1, map (fun k -> F64.of_float (Int64.to_float (Int64.add two53 (Int64.of_int k)))) (int_range (-4) 4));
      (1, int64);
    ]

(* Integers of every magnitude, concentrated around +-2^53. *)
let int_gen =
  let open QCheck2.Gen in
  oneof
    [
      map (fun k -> Int64.add two53 (Int64.of_int k)) (int_range (-4) 4);
      map (fun k -> Int64.sub (Int64.neg two53) (Int64.of_int k)) (int_range (-4) 4);
      oneofl [ 0L; 1L; -1L; Int64.max_int; Int64.min_int ];
      map Int64.of_int (int_range (-100000) 100000);
      int64;
    ]

let show_flags (f : Sf_types.flags) =
  Printf.sprintf "inv=%b dz=%b of=%b uf=%b ix=%b" f.invalid f.div_by_zero f.overflow f.underflow
    f.inexact

let rm_name = function
  | Sf_types.Nearest_even -> "rne"
  | Sf_types.Toward_zero -> "rtz"
  | Sf_types.Toward_pos -> "rup"
  | Sf_types.Toward_neg -> "rdn"
  | Sf_types.Nearest_away -> "rna"

(* Half the samples round to nearest-even (the fast path's mode); the
   other modes must reach the soft path even for window operands. *)
let rm_gen =
  QCheck2.Gen.frequencyl
    Sf_types.
      [ (4, Nearest_even); (1, Nearest_away); (1, Toward_zero); (1, Toward_pos); (1, Toward_neg) ]

(* 25,000 samples take under a second; QCHECK_LONG=1 multiplies that by
   200 (5 M samples). *)
let prop_fast_is_soft =
  QCheck2.Test.make ~name:"f64 fast path matches Sf_core (bits and flags)" ~count:25_000
    ~long_factor:200
    QCheck2.Gen.(quad edge_gen edge_gen int_gen rm_gen)
    ~print:(fun (a, b, v, rm) -> Printf.sprintf "a=%Lx b=%Lx v=%Ld rm=%s" a b v (rm_name rm))
    (fun (a, b, v, rm) ->
      (* [fast] and [soft] on fresh flags must agree on the result and on
         all five flags. *)
      let bits op fast soft =
        let ff = flags () and sf = flags () in
        let r = fast ff and s = soft sf in
        (r = s && ff = sf)
        || QCheck2.Test.fail_reportf "%s a=%Lx b=%Lx v=%Ld rm=%s: fast %Lx (%s), soft %Lx (%s)" op a b v
             (rm_name rm) r (show_flags ff) s (show_flags sf)
      in
      List.for_all
        (fun style ->
          bits "add" (fun f -> F64.add ~style ~rm f a b) (fun f -> Soft.add ~style ~rm f a b)
          && bits "sub" (fun f -> F64.sub ~style ~rm f a b) (fun f -> Soft.sub ~style ~rm f a b)
          && bits "mul" (fun f -> F64.mul ~style ~rm f a b) (fun f -> Soft.mul ~style ~rm f a b)
          && bits "div" (fun f -> F64.div ~style ~rm f a b) (fun f -> Soft.div ~style ~rm f a b)
          && bits "sqrt" (fun f -> F64.sqrt ~style ~rm f a) (fun f -> Soft.sqrt ~style ~rm f a))
        [ Sf_types.Arm_nan; Sf_types.X86_nan ]
      && bits "min" (fun f -> F64.min_ f a b) (fun f -> Soft.min_ f a b)
      && bits "max" (fun f -> F64.max_ f a b) (fun f -> Soft.max_ f a b)
      && bits "of_int64" (fun f -> F64.of_int64 ~rm f v) (fun f -> Soft.of_int64 ~rm f v))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "softfloat",
    [
      Alcotest.test_case "binop vectors" `Quick test_binop_vectors;
      Alcotest.test_case "sqrt vectors" `Quick test_sqrt_vectors;
      Alcotest.test_case "sqrt nan sign (Table 2)" `Quick test_sqrt_nan_sign;
      Alcotest.test_case "exception flags" `Quick test_flags;
      Alcotest.test_case "compare" `Quick test_compare;
      Alcotest.test_case "int conversions" `Quick test_int_conversions;
      Alcotest.test_case "f32 basics" `Quick test_f32_basics;
      q prop_add;
      q prop_sub;
      q prop_mul;
      q prop_div;
      q prop_sqrt;
      q prop_compare;
      q prop_f32_roundtrip;
      q prop_f64_to_f32;
      q prop_fast_is_soft;
    ] )
