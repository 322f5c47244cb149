(* Tests for the abstract-interpretation layer: the shared value domain
   (Dbt_util.Absval: lattice soundness, every transfer against plain
   Int64 semantics, the redundancy tests, the rules that were tightened
   when the two layers' copies merged), the SSA layer's operator mapping
   against the concrete evaluator, whole-action soundness against the SSA
   interpreter, the translation validator, the out-of-range access
   checker, and the analysis-driven absint-simplify pass. *)

open Ssa
module A = Absint
module V = Dbt_util.Absval

let toy_arch () = Lazy.force Toy_arch.arch
let model () = Lazy.force Toy_arch.model

let build_unopt name =
  let arch = toy_arch () in
  Build.execute arch (Option.get (Adl.Ast.find_execute arch name))

let build_opt level name =
  let action = build_unopt name in
  let ctx = Offline.opt_context (toy_arch ()) name in
  Opt.optimize ~ctx ~level action;
  action

(* --- random abstract values paired with a concrete member ----------------- *)

let rand64 prng =
  match Dbt_util.Prng.int prng 5 with
  | 0 -> Int64.of_int (Dbt_util.Prng.int prng 256)
  | 1 -> Int64.of_int (Dbt_util.Prng.int prng 65536)
  | 2 -> Dbt_util.Prng.int64 prng
  | 3 -> Int64.of_int (Dbt_util.Prng.int prng 4) (* zero divisors, tiny shifts *)
  | _ -> Int64.neg (Int64.of_int (1 + Dbt_util.Prng.int prng 256))

let sample prng : V.t * int64 =
  let c = rand64 prng in
  match Dbt_util.Prng.int prng 5 with
  | 0 -> (V.const c, c)
  | 1 -> (V.top, c)
  | 2 ->
    let d = rand64 prng in
    let lo, hi = if Int64.unsigned_compare c d <= 0 then (c, d) else (d, c) in
    (V.range lo hi, c)
  | 3 -> (V.join (V.const c) (V.const (rand64 prng)), c)
  | _ ->
    let w = 1 + Dbt_util.Prng.int prng 64 in
    let mask = if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L in
    let c = Int64.logand c mask in
    (V.of_width w, c)

(* --- the shared domain (Dbt_util.Absval) ----------------------------------- *)

let test_lattice_basics () =
  Alcotest.(check bool) "bot is bot" true (V.is_bot V.bot);
  Alcotest.(check bool) "top not bot" false (V.is_bot V.top);
  Alcotest.(check (option int64)) "const singleton" (Some 42L) (V.is_const (V.const 42L));
  Alcotest.(check bool) "top contains -1" true (V.contains V.top (-1L));
  Alcotest.(check bool) "bot leq const" true (V.leq V.bot (V.const 7L));
  Alcotest.(check bool) "const leq top" true (V.leq (V.const 7L) V.top);
  Alcotest.(check bool) "range membership" true (V.contains (V.range 10L 20L) 15L);
  Alcotest.(check bool) "range exclusion" false (V.contains (V.range 10L 20L) 21L);
  (* of_width carries both halves of the product domain *)
  Alcotest.(check bool) "width-8 excludes 256" false (V.contains (V.of_width 8) 256L);
  Alcotest.(check int64) "width-8 known zeros" (Int64.lognot 0xFFL) (V.known_zeros (V.of_width 8));
  Alcotest.(check int64) "const known ones" 0x5L (V.known_ones (V.const 5L))

let test_lattice_random () =
  let prng = Dbt_util.Prng.create 101L in
  for _ = 1 to 2000 do
    let a, x = sample prng in
    let b, y = sample prng in
    let j = V.join a b in
    if not (V.contains j x && V.contains j y) then
      Alcotest.failf "join %s %s = %s loses a member" (V.to_string a) (V.to_string b)
        (V.to_string j);
    if not (V.leq a j && V.leq b j) then
      Alcotest.failf "join %s %s = %s is not an upper bound" (V.to_string a) (V.to_string b)
        (V.to_string j);
    let w = V.widen a b in
    if not (V.leq j w) then
      Alcotest.failf "widen %s %s = %s below join %s" (V.to_string a) (V.to_string b)
        (V.to_string w) (V.to_string j);
    (if V.contains a y && V.contains b y then
       let m = V.meet a b in
       if not (V.contains m y) then
         Alcotest.failf "meet %s %s = %s loses shared member %Ld" (V.to_string a)
           (V.to_string b) (V.to_string m) y);
    if not (V.leq a a) then Alcotest.failf "leq not reflexive on %s" (V.to_string a)
  done

let test_widen_converges () =
  (* Ascending chains stabilize: widening climbs the 2^k-1 ladder, so at
     most ~64 strict increases are possible. *)
  let v = ref (V.const 0L) in
  let steps = ref 0 in
  (try
     for i = 1 to 200 do
       let next = V.widen !v (V.range 0L (Int64.of_int (2 * i))) in
       if V.leq next !v then raise Exit;
       v := next;
       incr steps
     done;
     Alcotest.fail "widening chain did not stabilize in 200 steps"
   with Exit -> ());
  Alcotest.(check bool) "stabilized within 70 strict steps" true (!steps <= 70)

(* Zero or sign extension of the low [bits] bits. *)
let ext ~bits ~signed x =
  if bits = 64 then x
  else if signed then Int64.shift_right (Int64.shift_left x (64 - bits)) (64 - bits)
  else Int64.logand x (Int64.sub (Int64.shift_left 1L bits) 1L)

(* Every shared transfer against plain Int64 semantics (shift amounts
   modulo 64, udiv x 0 = 0, urem x 0 = x). *)
let test_absval_transfers () =
  let prng = Dbt_util.Prng.create 404L in
  let sh f x y = f x (Int64.to_int (Int64.logand y 63L)) in
  let binops =
    [
      ("add", V.add, Int64.add);
      ("sub", V.sub, Int64.sub);
      ("mul", V.mul, Int64.mul);
      ("udiv", V.udiv, fun x y -> if y = 0L then 0L else Int64.unsigned_div x y);
      ("urem", V.urem, fun x y -> if y = 0L then x else Int64.unsigned_rem x y);
      ("logand", V.logand, Int64.logand);
      ("logor", V.logor, Int64.logor);
      ("logxor", V.logxor, Int64.logxor);
      ("shl", V.shl, sh Int64.shift_left);
      ("lshr", V.lshr, sh Int64.shift_right_logical);
      ("ashr", V.ashr, sh Int64.shift_right);
    ]
  in
  let cmps =
    [
      (V.Eq, ( = ), ( = ));
      (V.Ne, ( <> ), ( <> ));
      (V.Lt, ( < ), fun x y -> Int64.unsigned_compare x y < 0);
      (V.Le, ( <= ), fun x y -> Int64.unsigned_compare x y <= 0);
      (V.Gt, ( > ), fun x y -> Int64.unsigned_compare x y > 0);
      (V.Ge, ( >= ), fun x y -> Int64.unsigned_compare x y >= 0);
    ]
  in
  let decided = ref 0 in
  for _ = 1 to 3000 do
    let a, x = sample prng in
    let b, y = sample prng in
    List.iter
      (fun (name, f, concrete) ->
        let r = f a b and c = concrete x y in
        if not (V.contains r c) then
          Alcotest.failf "unsound %s: %Ld, %Ld -> %Ld not in %s (from %s, %s)" name x y c
            (V.to_string r) (V.to_string a) (V.to_string b))
      binops;
    if not (V.contains (V.lognot a) (Int64.lognot x)) then
      Alcotest.failf "unsound lognot of %Ld in %s" x (V.to_string a);
    let bits = 1 + Dbt_util.Prng.int prng 64 in
    List.iter
      (fun signed ->
        let c = ext ~bits ~signed x in
        if not (V.contains (V.normalize ~bits ~signed a) c) then
          Alcotest.failf "unsound normalize %d/%b: %Ld -> %Ld not in %s" bits signed x c
            (V.to_string (V.normalize ~bits ~signed a)))
      [ false; true ];
    List.iter
      (fun (cmp, scmp, ucmp) ->
        List.iter
          (fun signed ->
            match V.decide cmp ~signed a b with
            | None -> ()
            | Some r ->
              incr decided;
              let c = if signed then scmp (Int64.compare x y) 0 else ucmp x y in
              if r <> c then
                Alcotest.failf "wrong decision (signed=%b) on %Ld, %Ld from %s, %s" signed x y
                  (V.to_string a) (V.to_string b))
          [ false; true ])
      cmps
  done;
  Alcotest.(check bool) "comparisons were decided" true (!decided > 1000)

(* When a redundancy test says "redundant", the rewrite it licenses must
   be the identity on every sampled member. *)
let test_absval_redundancy () =
  let prng = Dbt_util.Prng.create 505L in
  let masks = ref 0 and fitted = ref 0 in
  for _ = 1 to 3000 do
    let v, x = sample prng in
    (* Half the masks cover every possibly-set bit, so "redundant" fires. *)
    let m =
      if Dbt_util.Prng.int prng 2 = 0 then rand64 prng
      else Int64.logor (Int64.lognot (V.known_zeros v)) (rand64 prng)
    in
    if V.mask_redundant v m then begin
      incr masks;
      if Int64.logand x m <> x then
        Alcotest.failf "mask %Lx called redundant on %s but clears bits of %Ld" m (V.to_string v) x
    end;
    for bits = 1 to 64 do
      List.iter
        (fun signed ->
          if V.fits ~bits ~signed v then begin
            incr fitted;
            if ext ~bits ~signed x <> x then
              Alcotest.failf "%s said to fit %d bits (signed=%b) but %Ld changes" (V.to_string v)
                bits signed x
          end)
        [ false; true ]
    done
  done;
  Alcotest.(check bool) "masks found redundant" true (!masks > 500);
  Alcotest.(check bool) "extensions found redundant" true (!fitted > 5000)

(* The tighter of two sound rules, where the layers once disagreed,
   pinned through each layer's own API. *)
let test_tightened_rules () =
  let bounds = Alcotest.(option (pair int64 int64)) in
  (* SSA: arithmetic shift of a non-negative value by an unknown amount
     stays below the value instead of going to top. *)
  Alcotest.check bounds "SSA sar of [0,255] by [1,2]" (Some (0L, 255L))
    (V.bounds (A.binary Adl.Ast.Shr ~signed:true (V.of_width 8) (V.range 1L 2L)));
  (* SSA: signed equality of disjoint values is decided even when an
     operand may be negative. *)
  Alcotest.(check (option int64)) "SSA signed {-2,-1} = [0,5]" (Some 0L)
    (V.is_const
       (A.binary Adl.Ast.Eq ~signed:true (V.join (V.const (-2L)) (V.const (-1L))) (V.range 0L 5L)));
  (* HostIR: unsigned divide and remainder keep SSA's quotient bounds. *)
  let module H = Hostir.Absint in
  let module Hir = Hostir.Hir in
  let st =
    List.fold_left
      (fun s (r, v) -> H.write s (Hir.Vreg r) v)
      H.state_top
      [ (1, V.range 100L 200L); (2, V.range 2L 4L); (3, V.join (V.const 4L) (V.const 6L)) ]
  in
  let run ins = H.read (H.transfer ~classify:(fun _ -> Hostir.Effects.C_clobber) st ins) (Hir.Vreg 0) in
  Alcotest.check bounds "HostIR udiv [100,200] by [2,4]" (Some (25L, 100L))
    (V.bounds (run (Hir.Divrem (false, false, Hir.Vreg 0, Hir.Vreg 1, Hir.Vreg 2))));
  let r = run (Hir.Divrem (false, true, Hir.Vreg 0, Hir.Vreg 3, Hir.Imm 0L)) in
  Alcotest.(check int64) "HostIR urem by zero keeps the dividend's known one" 4L (V.known_ones r);
  Alcotest.check bounds "HostIR urem by zero keeps the dividend's bounds" (Some (4L, 6L)) (V.bounds r)

(* The SSA layer's operator mapping, with constant folding through Eval. *)
let test_transfer_soundness () =
  let prng = Dbt_util.Prng.create 202L in
  let binops =
    [ Adl.Ast.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Eq; Ne; Lt; Le; Gt; Ge ]
  in
  for _ = 1 to 3000 do
    let a, x = sample prng in
    let b, y = sample prng in
    let op = List.nth binops (Dbt_util.Prng.int prng (List.length binops)) in
    let signed = Dbt_util.Prng.int prng 2 = 0 in
    let concrete = Adl.Eval.binop op ~signed x y in
    let abstract = A.binary op ~signed a b in
    if not (V.contains abstract concrete) then
      Alcotest.failf "unsound binary %s: %Ld op %Ld = %Ld not in %s (from %s, %s)"
        (Ir.string_of_binop op) x y concrete (V.to_string abstract) (V.to_string a)
        (V.to_string b)
  done;
  let unops = [ Adl.Ast.Neg; Adl.Ast.Not; Adl.Ast.Lnot ] in
  for _ = 1 to 1000 do
    let a, x = sample prng in
    let op = List.nth unops (Dbt_util.Prng.int prng 3) in
    let concrete = Adl.Eval.unop op x in
    let abstract = A.unary op a in
    if not (V.contains abstract concrete) then
      Alcotest.failf "unsound unary: %Ld -> %Ld not in %s" x concrete (V.to_string abstract)
  done;
  for _ = 1 to 1000 do
    let a, x = sample prng in
    let bits = 1 + Dbt_util.Prng.int prng 64 in
    let signed = Dbt_util.Prng.int prng 2 = 0 in
    let concrete = Adl.Eval.normalize (Adl.Ast.Tint { bits; signed }) x in
    let abstract = V.normalize ~bits ~signed a in
    if not (V.contains abstract concrete) then
      Alcotest.failf "unsound normalize %d/%b: %Ld -> %Ld not in %s" bits signed x concrete
        (V.to_string abstract)
  done

(* --- whole-action soundness against the interpreter ----------------------- *)

let encodings prng =
  let r n = Dbt_util.Prng.int prng n in
  [
    Toy_arch.enc_add ~rd:(r 16) ~ra:(r 16) ~rb:(r 16) ~imm:(r 4096);
    Toy_arch.enc_addi ~rd:(r 16) ~ra:(r 16) ~imm:(r 65536);
    Toy_arch.enc_beq ~ra:(r 16) ~rb:(r 16) ~off:(r 65536);
    Toy_arch.enc_ld ~rd:(r 16) ~ra:(r 16) ~off:(r 256 * 8);
    Toy_arch.enc_st ~rs:(r 16) ~ra:(r 16) ~off:(r 256 * 8);
    Toy_arch.enc_halt;
    Toy_arch.enc_csel ~rd:(r 16) ~ra:(r 16) ~rb:(r 16) ~cond:(r 16);
    Toy_arch.enc_shl ~rd:(r 16) ~ra:(r 16) ~sh:(r 128);
    Toy_arch.enc_fadd ~rd:(r 16) ~ra:(r 16) ~rb:(r 16);
    Toy_arch.enc_loopy ~rd:(r 16) ~n:(r 16);
  ]

(* Every value the concrete interpreter computes must be contained in
   the abstract value the analysis assigned to the same statement; the
   analysis sees only the field *widths*, so one summary covers every
   decoding of the class.  Run on unoptimized and O4 actions alike,
   >=1000 (action, input) pairs. *)
let test_action_soundness () =
  let prng = Dbt_util.Prng.create 303L in
  let m = model () in
  let cache = Hashtbl.create 32 in
  let analyzed name opt =
    match Hashtbl.find_opt cache (name, opt) with
    | Some av -> av
    | None ->
      let action = if opt then build_opt 4 name else build_unopt name in
      let summary = A.analyze ~ctx:(Offline.opt_context (toy_arch ()) name) action in
      Hashtbl.replace cache (name, opt) (action, summary);
      (action, summary)
  in
  let pairs = ref 0 and checked = ref 0 in
  for _ = 1 to 50 do
    List.iter
      (fun word ->
        match Offline.decode m word with
        | None -> Alcotest.failf "undecodable test encoding %Lx" word
        | Some d ->
          List.iter
            (fun opt ->
              let action, summary = analyzed d.Adl.Decode.name opt in
              let state = Toy_arch.fresh_state () in
              for i = 0 to 15 do
                state.Toy_arch.gpr.(i) <- Dbt_util.Prng.int64 prng
              done;
              state.Toy_arch.slots.(0) <- 0x1000L;
              state.Toy_arch.slots.(1) <- Int64.of_int (Dbt_util.Prng.int prng 16);
              let st = Toy_arch.interp_state state in
              incr pairs;
              Interp.run
                ~trace:(fun id v ->
                  incr checked;
                  let av = A.value summary id in
                  if not (V.contains av v) then
                    Alcotest.failf "unsound: %s%s s_%d = %Ld not in %s (word %Lx)"
                      d.Adl.Decode.name
                      (if opt then " (O4)" else "")
                      id v (V.to_string av) word)
                st action
                ~field:(fun n -> List.assoc n d.Adl.Decode.field_values))
            [ false; true ])
      (encodings prng)
  done;
  Alcotest.(check bool) ">=1000 action/input pairs" true (!pairs >= 1000);
  Alcotest.(check bool) "traced a large value sample" true (!checked > 10_000)

(* --- translation validator ------------------------------------------------ *)

let test_validator_clean () =
  List.iter
    (fun (x : Adl.Ast.execute) ->
      let name = x.Adl.Ast.x_name in
      let ctx = Offline.opt_context (toy_arch ()) name in
      List.iter
        (fun level ->
          let reference = build_unopt name in
          let optimized = build_opt level name in
          let findings, compared = A.validate ~ctx ~reference ~optimized () in
          Alcotest.(check int)
            (Printf.sprintf "no findings for %s at O%d" name level)
            0 (List.length findings);
          Alcotest.(check bool)
            (Printf.sprintf "%s at O%d compared statements" name level)
            true (compared > 0))
        [ 1; 2; 3; 4 ])
    (toy_arch ()).Adl.Ast.a_executes

let test_validator_catches_wrong_const () =
  (* Deliberately corrupt an optimized action: changing any surviving
     constant changes the abstract value at that id to a disjoint
     singleton, which the validator must flag as incomparable. *)
  let name = "beq" in
  let ctx = Offline.opt_context (toy_arch ()) name in
  let reference = build_unopt name in
  let optimized = build_opt 4 name in
  let corrupted = ref false in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.Ir.desc with
          | Ir.Const c when not !corrupted ->
            i.Ir.desc <- Ir.Const (Int64.add c 1L);
            corrupted := true
          | _ -> ())
        b.Ir.insts)
    optimized.Ir.blocks;
  Alcotest.(check bool) "fixture found a constant to corrupt" true !corrupted;
  let findings, _ = A.validate ~ctx ~reference ~optimized () in
  Alcotest.(check bool) "corrupted constant caught" true (List.length findings > 0)

let test_validator_catches_shape_change () =
  (* Retargeting an effectful statement to another bank is a shape
     change: abstract values cannot expose it, the structural check
     must. *)
  let name = "add" in
  let ctx = Offline.opt_context (toy_arch ()) name in
  let reference = build_unopt name in
  let optimized = build_opt 4 name in
  let corrupted = ref false in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.Ir.desc with
          | Ir.Bank_write (bank, idx, v) when not !corrupted ->
            i.Ir.desc <- Ir.Bank_write (bank + 1, idx, v);
            corrupted := true
          | _ -> ())
        b.Ir.insts)
    optimized.Ir.blocks;
  Alcotest.(check bool) "fixture found a bank write to corrupt" true !corrupted;
  let findings, _ = A.validate ~ctx ~reference ~optimized () in
  Alcotest.(check bool) "bank retarget caught" true (List.length findings > 0)

(* --- out-of-range access checker ------------------------------------------ *)

let test_ranges_clean () =
  List.iter
    (fun (x : Adl.Ast.execute) ->
      let name = x.Adl.Ast.x_name in
      let ctx = Offline.opt_context (toy_arch ()) name in
      let action = build_opt 4 name in
      let findings, _ = A.check_ranges ~ctx action in
      Alcotest.(check int) (Printf.sprintf "%s accesses in range" name) 0
        (List.length findings))
    (toy_arch ()).Adl.Ast.a_executes

let test_ranges_catches_overflow () =
  (* A 4-bit field indexing a 4-element bank: [0,15] cannot be proved
     within [0,3]. *)
  let src =
    {|
arch "t" { wordsize 64; endian little; bank R : uint64[4]; reg PC : uint64; }
decode k "00000000 rd:4 00000000000000000000";
execute(k) { write_register_bank(R, inst.rd, 1); }
|}
  in
  let m = Offline.build ~opt_level:1 src in
  let arch = m.Offline.arch in
  let action = Build.execute arch (Option.get (Adl.Ast.find_execute arch "k")) in
  let ctx = Offline.opt_context arch "k" in
  let findings, checked = A.check_ranges ~ctx action in
  Alcotest.(check bool) "checked the access" true (checked > 0);
  Alcotest.(check bool) "overflow flagged" true (List.length findings > 0)

(* --- hardened replace_uses ------------------------------------------------- *)

let test_replace_uses_errors () =
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    go 0
  in
  let action = build_unopt "add" in
  let some_id =
    List.find_map
      (fun b ->
        List.find_map
          (fun i -> if Ir.produces_value i.Ir.desc then Some i.Ir.id else None)
          b.Ir.insts)
      action.Ir.blocks
    |> Option.get
  in
  (match Opt.replace_uses action ~from:some_id ~to_:some_id with
  | () -> Alcotest.fail "self-replacement accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "self-replacement names action" true (contains msg "add"));
  match Opt.replace_uses action ~from:some_id ~to_:999999 with
  | () -> Alcotest.fail "undefined replacement accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "undefined replacement names id" true (contains msg "999999");
    Alcotest.(check bool) "undefined replacement names action" true (contains msg "add")

(* --- the absint-simplify pass ---------------------------------------------- *)

let test_simplify_folds () =
  (* inst.w is a 3-bit field: the analysis proves w < 8 always true and
     w & 7 redundant; value propagation alone can prove neither. *)
  let src =
    {|
arch "t" { wordsize 64; endian little; bank R : uint64[8]; reg PC : uint64; }
decode k "00000000 d:3 w:3 000000000000000000";
execute(k) {
  uint64 x = read_register_bank(R, inst.d);
  if (inst.w < 8) {
    write_register_bank(R, inst.d, x + (inst.w & 7));
  } else {
    write_register_bank(R, inst.d, 0);
  }
}
|}
  in
  let m = Offline.build ~opt_level:1 src in
  let arch = m.Offline.arch in
  let build level =
    let action = Build.execute arch (Option.get (Adl.Ast.find_execute arch "k")) in
    Opt.optimize ~ctx:(Offline.opt_context arch "k") ~level action;
    action
  in
  let at2 = build 2 in
  A.reset_simplify_stats ();
  let at3 = build 3 in
  let st = A.simplify_stats in
  Alcotest.(check bool) "O3 folded the always-true branch" true (st.A.branches_folded >= 1);
  Alcotest.(check bool) "O3 dropped the redundant mask or folded it" true
    (st.A.masks_dropped + st.A.stmts_folded >= 1);
  Alcotest.(check bool) "O3 has fewer blocks than O2" true
    (List.length at3.Ir.blocks < List.length at2.Ir.blocks);
  (* The folded action must still be semantically intact. *)
  let reference = Build.execute arch (Option.get (Adl.Ast.find_execute arch "k")) in
  let findings, _ =
    A.validate ~ctx:(Offline.opt_context arch "k") ~reference ~optimized:at3 ()
  in
  Alcotest.(check int) "folded action validates" 0 (List.length findings)

let suite =
  ( "absint",
    [
      Alcotest.test_case "lattice basics" `Quick test_lattice_basics;
      Alcotest.test_case "lattice random soundness" `Quick test_lattice_random;
      Alcotest.test_case "widening converges" `Quick test_widen_converges;
      Alcotest.test_case "absval transfers vs Int64" `Quick test_absval_transfers;
      Alcotest.test_case "absval redundancy tests vs members" `Quick test_absval_redundancy;
      Alcotest.test_case "absval tightened rules" `Quick test_tightened_rules;
      Alcotest.test_case "transfer soundness vs Eval" `Quick test_transfer_soundness;
      Alcotest.test_case "whole-action soundness vs Interp" `Quick test_action_soundness;
      Alcotest.test_case "validator passes real optimizations" `Quick test_validator_clean;
      Alcotest.test_case "validator catches wrong constant" `Quick test_validator_catches_wrong_const;
      Alcotest.test_case "validator catches shape change" `Quick test_validator_catches_shape_change;
      Alcotest.test_case "range checker passes toy model" `Quick test_ranges_clean;
      Alcotest.test_case "range checker catches overflow" `Quick test_ranges_catches_overflow;
      Alcotest.test_case "replace_uses errors are descriptive" `Quick test_replace_uses_errors;
      Alcotest.test_case "absint-simplify folds on field facts" `Quick test_simplify_folds;
    ] )
