open Dbt_util

let check_i64 = Alcotest.(check int64)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_mask () =
  check_i64 "mask 0" 0L (Bits.mask 0);
  check_i64 "mask 1" 1L (Bits.mask 1);
  check_i64 "mask 8" 0xFFL (Bits.mask 8);
  check_i64 "mask 63" Int64.max_int (Bits.mask 63);
  check_i64 "mask 64" (-1L) (Bits.mask 64)

let test_extract_insert () =
  check_i64 "extract mid" 0xCDL (Bits.extract 0xABCDEFL ~lo:8 ~len:8);
  check_i64 "extract top" 1L (Bits.extract Int64.min_int ~lo:63 ~len:1);
  check_i64 "insert" 0xAB12EFL (Bits.insert 0xABCDEFL ~lo:8 ~len:8 0x12L);
  check_i64 "insert truncates" 0xAB12EFL (Bits.insert 0xABCDEFL ~lo:8 ~len:8 0xF12L)

let test_sign_extend () =
  check_i64 "sext8 neg" (-1L) (Bits.sign_extend 0xFFL ~width:8);
  check_i64 "sext8 pos" 0x7FL (Bits.sign_extend 0x7FL ~width:8);
  check_i64 "sext32" (-2147483648L) (Bits.sign_extend 0x80000000L ~width:32);
  check_i64 "sext64 identity" (-5L) (Bits.sign_extend (-5L) ~width:64)

let test_rotate () =
  check_i64 "ror32" 0x80000000L (Bits.rotate_right 1L 1 ~width:32);
  check_i64 "ror64" Int64.min_int (Bits.rotate_right 1L 1 ~width:64);
  check_i64 "rol inverse" 0x12345678L (Bits.rotate_left (Bits.rotate_right 0x12345678L 13 ~width:32) 13 ~width:32)

let test_count () =
  check_int "popcount" 32 (Bits.popcount 0x5555555555555555L);
  check_int "clz 1" 63 (Bits.clz 1L);
  check_int "clz 0" 64 (Bits.clz 0L);
  check_int "clz32" 31 (Bits.clz ~width:32 1L);
  check_int "ctz" 4 (Bits.ctz 0x10L);
  check_int "ctz 0" 64 (Bits.ctz 0L)

let test_byte_swap () =
  check_i64 "bswap32" 0x78563412L (Bits.byte_swap 0x12345678L ~width:32);
  check_i64 "bswap16" 0x3412L (Bits.byte_swap 0x1234L ~width:16)

let test_add_with_carry () =
  let r, c, v = Bits.add_with_carry (-1L) 1L false in
  check_i64 "wrap result" 0L r;
  check_bool "wrap carry" true c;
  check_bool "wrap overflow" false v;
  let r, c, v = Bits.add_with_carry Int64.max_int 1L false in
  check_i64 "ovf result" Int64.min_int r;
  check_bool "ovf carry" false c;
  check_bool "ovf overflow" true v;
  let _, c, _ = Bits.add_with_carry (-1L) 0L true in
  check_bool "carry-in wrap" true c;
  let r, c, _ = Bits.add_with_carry ~width:32 0xFFFFFFFFL 0L true in
  check_i64 "w32 result" 0L r;
  check_bool "w32 carry" true c

let test_align () =
  check_i64 "align_down" 0x1000L (Bits.align_down 0x1FFFL 4096);
  check_i64 "align_up" 0x2000L (Bits.align_up 0x1001L 4096);
  check_bool "is_aligned" true (Bits.is_aligned 0x3000L 4096);
  check_bool "not aligned" false (Bits.is_aligned 0x3001L 4096)

(* Property tests *)
let prop_extract_insert =
  QCheck2.Test.make ~name:"insert then extract is identity" ~count:500
    QCheck2.Gen.(triple (int_range 0 56) (int_range 1 8) int64)
    (fun (lo, len, v) ->
      let v' = Bits.extract v ~lo:0 ~len in
      Bits.extract (Bits.insert 0L ~lo ~len v') ~lo ~len = v')

let prop_rotate_inverse =
  QCheck2.Test.make ~name:"rotate_left inverts rotate_right" ~count:500
    QCheck2.Gen.(pair (int_range 0 63) int64)
    (fun (n, x) ->
      Bits.rotate_left (Bits.rotate_right x n ~width:64) n ~width:64 = x)

let prop_popcount_split =
  QCheck2.Test.make ~name:"popcount splits at bit 32" ~count:500 QCheck2.Gen.int64
    (fun x ->
      Bits.popcount x
      = Bits.popcount (Bits.extract x ~lo:0 ~len:32) + Bits.popcount (Bits.extract x ~lo:32 ~len:32))

let prop_sign_extend_idempotent =
  QCheck2.Test.make ~name:"sign_extend is idempotent" ~count:500
    QCheck2.Gen.(pair (int_range 1 63) int64)
    (fun (w, x) ->
      let once = Bits.sign_extend x ~width:w in
      Bits.sign_extend once ~width:w = once)

let prop_add_with_carry_matches_int64 =
  QCheck2.Test.make ~name:"add_with_carry result matches Int64.add" ~count:500
    QCheck2.Gen.(pair int64 int64)
    (fun (a, b) ->
      let r, _, _ = Bits.add_with_carry a b false in
      r = Int64.add a b)

(* Bit-at-a-time reference models of the loop-free operations. *)
module Model = struct
  let bit x i = Int64.logand (Int64.shift_right_logical x i) 1L <> 0L

  let popcount x =
    let n = ref 0 in
    for i = 0 to 63 do
      if bit x i then incr n
    done;
    !n

  let clz ~width x =
    let rec go i = if i < 0 then width else if bit x i then width - 1 - i else go (i - 1) in
    go (width - 1)

  let ctz ~width x =
    let rec go i = if i >= width then width else if bit x i then i else go (i + 1) in
    go 0

  let bit_reverse x ~width =
    let r = ref 0L in
    for i = 0 to width - 1 do
      if bit x i then r := Int64.logor !r (Int64.shift_left 1L (width - 1 - i))
    done;
    !r

  let byte_swap x ~width =
    let n = width / 8 in
    let r = ref 0L in
    for i = 0 to n - 1 do
      let byte = Int64.logand (Int64.shift_right_logical x (8 * i)) 0xFFL in
      r := Int64.logor !r (Int64.shift_left byte (8 * (n - 1 - i)))
    done;
    !r
end

let check_against_model width x =
  let x' = Bits.zero_extend x ~width in
  let fail what a b = failwith (Printf.sprintf "%s width %d of %Lx: %Ld <> model %Ld" what width x a b) in
  let eq what a b = if a <> b then fail what a b in
  eq "popcount" (Int64.of_int (Bits.popcount x)) (Int64.of_int (Model.popcount x));
  eq "clz" (Int64.of_int (Bits.clz ~width x)) (Int64.of_int (Model.clz ~width x'));
  eq "ctz" (Int64.of_int (Bits.ctz ~width x)) (Int64.of_int (Model.ctz ~width x'));
  eq "bit_reverse" (Bits.bit_reverse x ~width) (Model.bit_reverse x ~width);
  eq "byte_swap" (Bits.byte_swap x ~width) (Model.byte_swap x ~width);
  true

(* Every width, including each Bit1 width (16, 32, 64), on zero, all-ones
   and single-bit values. *)
let test_bitops_edges () =
  for width = 0 to 64 do
    List.iter
      (fun x -> ignore (check_against_model width x))
      ([ 0L; -1L; 1L; Int64.min_int; Int64.max_int ] @ List.init 64 (fun i -> Int64.shift_left 1L i))
  done

let prop_bitops_match_model =
  QCheck2.Test.make ~name:"loop-free bit ops match a bit-at-a-time model" ~count:3000
    QCheck2.Gen.(
      pair
        (oneof [ oneofl [ 16; 32; 64 ]; int_range 0 64 ])
        (oneof [ oneofl [ 0L; -1L ]; int64; map (fun k -> Int64.shift_right_logical (-1L) k) (int_range 0 63) ]))
    (fun (width, x) -> check_against_model width x)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "bits",
    [
      Alcotest.test_case "mask" `Quick test_mask;
      Alcotest.test_case "extract/insert" `Quick test_extract_insert;
      Alcotest.test_case "sign_extend" `Quick test_sign_extend;
      Alcotest.test_case "rotate" `Quick test_rotate;
      Alcotest.test_case "popcount/clz/ctz" `Quick test_count;
      Alcotest.test_case "byte_swap" `Quick test_byte_swap;
      Alcotest.test_case "add_with_carry" `Quick test_add_with_carry;
      Alcotest.test_case "align" `Quick test_align;
      Alcotest.test_case "bit ops vs model at every width" `Quick test_bitops_edges;
      q prop_extract_insert;
      q prop_rotate_inverse;
      q prop_popcount_split;
      q prop_sign_extend_idempotent;
      q prop_add_with_carry_matches_int64;
      q prop_bitops_match_model;
    ] )
