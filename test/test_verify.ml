(* Tests for the pipeline verifier & lint layer: SSA well-formedness
   (Ssa.Verify), post-regalloc HostIR invariants (Hostir.Verify), and
   decode-table analysis (Adl.Declint).

   The negative fixtures are deliberately broken IR: each must be caught
   and reported with enough context (pass name, statement, block) to
   pinpoint the fault. *)

open Ssa

let toy_arch () = Lazy.force Toy_arch.arch
let toy_model () = Lazy.force Toy_arch.model

let build_unopt name =
  let arch = toy_arch () in
  Build.execute arch (Option.get (Adl.Ast.find_execute arch name))

(* --- SSA verifier: positive -------------------------------------------------- *)

let test_toy_actions_verify_clean () =
  let arch = toy_arch () in
  List.iter
    (fun (x : Adl.Ast.execute) ->
      let ctx = Offline.opt_context arch x.Adl.Ast.x_name in
      List.iter
        (fun level ->
          let action = Build.execute arch x in
          (* ~verify:true checks after construction and after every pass;
             a violation raises. *)
          Opt.optimize ~ctx ~verify:true ~level action;
          Alcotest.(check (list string))
            (Printf.sprintf "%s at O%d clean" x.Adl.Ast.x_name level)
            []
            (List.map Verify.string_of_violation (Verify.check action)))
        [ 1; 2; 3; 4 ])
    arch.Adl.Ast.a_executes

(* --- SSA verifier: negative fixtures ----------------------------------------- *)

let mk_action ?(next_var = 0) name blocks =
  let a = Ir.create_action name in
  a.Ir.blocks <- blocks;
  (* next_id = one past the highest statement id present *)
  a.Ir.next_id <-
    1 + List.fold_left (fun acc b -> List.fold_left (fun acc i -> max acc i.Ir.id) acc b.Ir.insts) 0 blocks;
  a.Ir.next_var <- next_var;
  for v = 0 to next_var - 1 do
    Hashtbl.replace a.Ir.var_names v (Printf.sprintf "v%d" v)
  done;
  a

let inst id desc = { Ir.id; desc }
let block bid insts term = { Ir.bid; insts; term }

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let expect_violation what action needle =
  let vs = Verify.check action in
  let msgs = List.map Verify.string_of_violation vs in
  if not (List.exists (fun m -> contains m needle) msgs) then
    Alcotest.failf "%s: expected a violation containing %S, got [%s]" what needle
      (String.concat "; " msgs)

let test_catches_undefined_use () =
  expect_violation "undefined use"
    (mk_action "f" [ block 0 [ inst 0 (Ir.Unary (Adl.Ast.Not, 7)) ] Ir.Ret ])
    "use of undefined value s_7"

let test_catches_non_value_use () =
  (* s1 is a register write (produces no value); s2 uses it. *)
  expect_violation "non-value use"
    (mk_action "f"
       [
         block 0
           [
             inst 0 (Ir.Const 1L);
             inst 1 (Ir.Reg_write (0, 0));
             inst 2 (Ir.Unary (Adl.Ast.Not, 1));
           ]
           Ir.Ret;
       ])
    "use of non-value statement s_1"

let test_catches_use_before_def () =
  expect_violation "use before def"
    (mk_action "f"
       [ block 0 [ inst 0 (Ir.Unary (Adl.Ast.Not, 1)); inst 1 (Ir.Const 1L) ] Ir.Ret ])
    "use of s_1 before its definition"

let test_catches_non_dominating_def () =
  (* b1 and b2 are sibling branch arms; b2 uses a value defined in b1. *)
  expect_violation "non-dominating def"
    (mk_action "f"
       [
         block 0 [ inst 0 (Ir.Const 1L) ] (Ir.Branch (0, 1, 2));
         block 1 [ inst 1 (Ir.Const 2L) ] (Ir.Jump 3);
         block 2 [ inst 2 (Ir.Unary (Adl.Ast.Not, 1)) ] (Ir.Jump 3);
         block 3 [] Ir.Ret;
       ])
    "does not dominate"

let test_catches_bad_jump_target () =
  expect_violation "bad jump target"
    (mk_action "f" [ block 0 [ inst 0 (Ir.Const 1L) ] (Ir.Jump 7) ])
    "terminator targets missing block b_7"

let test_catches_duplicate_ids () =
  expect_violation "duplicate statement ids"
    (mk_action "f" [ block 0 [ inst 0 (Ir.Const 1L); inst 0 (Ir.Const 2L) ] Ir.Ret ])
    "duplicate statement id"

let test_catches_var_out_of_range () =
  expect_violation "var out of range"
    (mk_action "f" [ block 0 [ inst 0 (Ir.Var_read 3) ] Ir.Ret ])
    "variable v3 outside [0, next_var)"

let test_catches_phi_in_entry () =
  expect_violation "phi in entry"
    (mk_action "f"
       [
         block 0 [ inst 0 (Ir.Const 1L); inst 1 (Ir.Phi [ (0, 0) ]) ] Ir.Ret;
       ])
    "phi in entry block"

let test_catches_phi_bad_arm () =
  (* b2 exists but is not a predecessor of b1. *)
  expect_violation "phi arm for non-predecessor"
    (mk_action "f"
       [
         block 0 [ inst 0 (Ir.Const 1L) ] (Ir.Jump 1);
         block 1 [ inst 1 (Ir.Phi [ (0, 0); (2, 0) ]) ] Ir.Ret;
         block 2 [] Ir.Ret;
       ])
    "phi arm for b_2 which is not a predecessor"

let test_catches_phi_missing_arm () =
  expect_violation "phi missing arm"
    (mk_action "f"
       [
         block 0 [ inst 0 (Ir.Const 1L) ] (Ir.Branch (0, 1, 2));
         block 1 [] (Ir.Jump 3);
         block 2 [] (Ir.Jump 3);
         block 3 [ inst 1 (Ir.Phi [ (1, 0) ]) ] Ir.Ret;
       ])
    "phi misses an arm for predecessor b_2"

(* The acceptance-critical property: a deliberately broken pass run under
   ~verify:true is caught and attributed to that pass *by name*. *)
let test_broken_pass_attributed_by_name () =
  let action = build_unopt "add" in
  let ctx = Offline.opt_context (toy_arch ()) "add" in
  (* Find a value id that actually has uses, so clobbering it changes the IR. *)
  let used_id =
    List.find_map
      (fun b ->
        List.find_map
          (fun i -> match Ir.operands i.Ir.desc with o :: _ -> Some o | [] -> None)
          b.Ir.insts)
      action.Ir.blocks
    |> Option.get
  in
  (* replace_uses itself now rejects an undefined replacement, so the
     broken pass corrupts operands directly, as a buggy pass would. *)
  let broken =
    {
      Opt.pname = "clobber-uses";
      level = 1;
      run =
        (fun _ a ->
          let subst x = if x = used_id then 999999 else x in
          List.iter
            (fun b ->
              List.iter (fun i -> i.Ir.desc <- Ir.map_operands subst i.Ir.desc) b.Ir.insts)
            a.Ir.blocks;
          true);
    }
  in
  match Opt.run_passes ~ctx ~verify:true [ broken ] action with
  | () -> Alcotest.fail "broken pass went undetected"
  | exception Verify.Invalid { action = aname; phase; violations } ->
    Alcotest.(check string) "attributed to the broken pass" "clobber-uses" phase;
    Alcotest.(check string) "names the action" "add" aname;
    Alcotest.(check bool) "reports the dangling use" true
      (List.exists
         (fun v -> contains (Verify.string_of_violation v) "use of undefined value s_999999")
         violations)

(* A healthy pass list under ~verify:true must not raise even when passes
   report changes. *)
let test_real_passes_verify_silently () =
  let action = build_unopt "beq" in
  let ctx = Offline.opt_context (toy_arch ()) "beq" in
  Opt.run_passes ~ctx ~verify:true Opt.passes action

(* --- Ir.find_block error message (satellite) --------------------------------- *)

let test_find_block_error_is_descriptive () =
  let action = mk_action "myaction" [ block 0 [ inst 0 (Ir.Const 1L) ] Ir.Ret ] in
  match Ir.find_block action 42 with
  | _ -> Alcotest.fail "find_block found a missing block"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the action" true (contains msg "myaction");
    Alcotest.(check bool) "names the missing block" true (contains msg "b_42");
    Alcotest.(check bool) "lists present blocks" true (contains msg "b_0")

(* --- Analysis.classify edge cases (satellite) -------------------------------- *)

let test_classify_select_all_fixed () =
  let a =
    mk_action "f"
      [
        block 0
          [
            inst 0 (Ir.Const 1L);
            inst 1 (Ir.Const 2L);
            inst 2 (Ir.Const 3L);
            inst 3 (Ir.Select (0, 1, 2));
          ]
          Ir.Ret;
      ]
  in
  let r = Analysis.classify a in
  Alcotest.(check bool) "all-fixed select is fixed" true
    (Hashtbl.find_opt r.Analysis.of_stmt 3 <> Some Analysis.Dynamic)

let test_classify_select_mixed () =
  (* Condition is a constant but one arm reads guest state: dynamic. *)
  let a =
    mk_action "f"
      [
        block 0
          [
            inst 0 (Ir.Const 1L);
            inst 1 (Ir.Reg_read 0);
            inst 2 (Ir.Const 3L);
            inst 3 (Ir.Select (0, 1, 2));
          ]
          Ir.Ret;
      ]
  in
  let r = Analysis.classify a in
  Alcotest.(check bool) "mixed select is dynamic" true
    (Hashtbl.find_opt r.Analysis.of_stmt 3 = Some Analysis.Dynamic)

let test_classify_phi_is_dynamic () =
  (* Phi arms are all constants, but a phi merges run-time control flow:
     always dynamic. *)
  let a =
    mk_action "f"
      [
        block 0 [ inst 0 (Ir.Const 1L) ] (Ir.Jump 1);
        block 1 [ inst 1 (Ir.Phi [ (0, 0) ]) ] Ir.Ret;
      ]
  in
  let r = Analysis.classify a in
  Alcotest.(check bool) "phi is dynamic" true
    (Hashtbl.find_opt r.Analysis.of_stmt 1 = Some Analysis.Dynamic);
  Alcotest.(check (list string)) "fixture verifies clean" []
    (List.map Verify.string_of_violation (Verify.check a))

let test_classify_effect () =
  (* Effects produce no value: classify must not record a fixedness for
     them, and fixed operands stay fixed despite feeding an effect. *)
  let a =
    mk_action "f"
      [
        block 0
          [ inst 0 (Ir.Const 1L); inst 1 (Ir.Effect ("halt", [ 0 ])) ]
          Ir.Ret;
      ]
  in
  let r = Analysis.classify a in
  Alcotest.(check bool) "effect has no value fixedness" true
    (Hashtbl.find_opt r.Analysis.of_stmt 1 = None);
  Alcotest.(check bool) "effect operand stays fixed" true
    (Hashtbl.find_opt r.Analysis.of_stmt 0 <> Some Analysis.Dynamic)

(* --- HostIR verifier ---------------------------------------------------------- *)

let toy_dag_cfg =
  {
    Hostir.Dag.bank_offset = (fun ~bank:_ ~index -> index * 8);
    slot_offset = (fun s -> 256 + (s * 8));
    lower_intrinsic = (fun _ -> Hostir.Dag.L_inline);
    effect_helper = Captive.Common.effect_helper_index;
    coproc_read_helper = Captive.Common.h_coproc_read;
    coproc_write_helper = Captive.Common.h_coproc_write;
    split_va_check = false;
    as_switch_helper = Captive.Common.h_as_switch;
  }

let translate_toy name field =
  let action = build_unopt name in
  let ctx = Offline.opt_context (toy_arch ()) name in
  Opt.optimize ~ctx ~level:4 action;
  let dag = Hostir.Dag.create toy_dag_cfg in
  Gen.translate (Hostir.Dag.emitter dag) action ~field ~inc_pc:(Some 4);
  Hostir.Dag.raw dag (Hostir.Hir.Exit 0);
  Hostir.Dag.finish dag

let test_hostir_real_translation_clean () =
  let field = function "rd" -> 1L | "ra" -> 2L | "rb" -> 3L | "imm" -> 5L | _ -> 0L in
  let original = translate_toy "add" field in
  let ra = Hostir.Regalloc.run original in
  Alcotest.(check (list string))
    "real translation passes" []
    (List.map Hostir.Verify.string_of_violation (Hostir.Verify.check ~original ra))

let fab ?(dead = [||]) ?(n_slots = 0) instrs =
  let instrs = Array.of_list instrs in
  let dead = if Array.length dead = Array.length instrs then dead else Array.map (fun _ -> false) instrs in
  { Hostir.Regalloc.instrs; dead; n_slots; n_spilled = 0; n_dead = 0 }

let expect_hostir what r ?original needle =
  let vs = Hostir.Verify.check ?original r in
  let msgs = List.map Hostir.Verify.string_of_violation vs in
  if not (List.exists (fun m -> contains m needle) msgs) then
    Alcotest.failf "%s: expected a violation containing %S, got [%s]" what needle
      (String.concat "; " msgs)

let test_hostir_catches_surviving_vreg () =
  expect_hostir "surviving vreg"
    (fab [ Hostir.Hir.Mov (Hostir.Hir.Preg 0, Hostir.Hir.Vreg 3) ])
    "virtual register %v3 survived allocation"

let test_hostir_catches_bad_slot () =
  expect_hostir "slot out of frame"
    (fab ~n_slots:1 [ Hostir.Hir.Mov (Hostir.Hir.Preg 0, Hostir.Hir.Slot 2) ])
    "spill slot 2 outside frame of 1 slots"

let test_hostir_catches_bad_preg () =
  expect_hostir "preg outside host file"
    (fab [ Hostir.Hir.Mov (Hostir.Hir.Preg 20, Hostir.Hir.Imm 1L) ])
    "physical register %r20 outside the host register file"

let test_hostir_catches_missing_label () =
  expect_hostir "branch to missing label" (fab [ Hostir.Hir.Jmp 5 ]) "branch to missing label L5"

let test_hostir_catches_unsound_dead_marking () =
  (* Instruction 0 is marked dead but its destination feeds the live
     instruction 1. *)
  let original =
    [|
      Hostir.Hir.Mov (Hostir.Hir.Vreg 0, Hostir.Hir.Imm 1L);
      Hostir.Hir.Mov (Hostir.Hir.Vreg 1, Hostir.Hir.Vreg 0);
    |]
  in
  expect_hostir "unsound dead marking"
    (fab ~dead:[| true; false |]
       [
         Hostir.Hir.Mov (Hostir.Hir.Preg 0, Hostir.Hir.Imm 1L);
         Hostir.Hir.Mov (Hostir.Hir.Preg 1, Hostir.Hir.Preg 0);
       ])
    ~original "dead instruction's destination %v0 is used by a live instruction"

let test_hostir_catches_impure_dead () =
  let call = Hostir.Hir.Call (0, [||], None) in
  expect_hostir "impure marked dead"
    (fab ~dead:[| true |] [ call ])
    ~original:[| call |] "impure instruction marked dead"

(* --- decode-table lint --------------------------------------------------------- *)

let pos0 = { Adl.Ast.line = 0; col = 0 }
let e d = { Adl.Ast.e = d; pos = pos0; ty = Adl.Ast.u64 }
let bits s = List.init (String.length s) (fun i -> Adl.Ast.Bit (s.[i] = '1'))
let fld n w = [ Adl.Ast.Fld (n, w) ]

let dec ?when_ name pattern =
  { Adl.Ast.d_name = name; d_pattern = pattern; d_when = when_; d_attrs = [] }

let kinds vs = List.map (fun v -> (v.Adl.Declint.l_kind, v.Adl.Declint.l_insn)) vs

let test_declint_toy_clean () =
  Alcotest.(check (list string)) "toy decode table lints clean" []
    (List.map Adl.Declint.string_of_violation (Adl.Declint.check_arch (toy_arch ())))

let test_declint_catches_shadowed () =
  let d1 = dec "wild" (bits "00000000" @ fld "x" 24) in
  let d2 = dec "never" (bits "00000000" @ bits "00000001" @ fld "y" 16) in
  Alcotest.(check bool) "later contained pattern is shadowed" true
    (List.mem (Adl.Declint.Shadowed, "never") (kinds (Adl.Declint.check_decodes [ d1; d2 ])))

let test_declint_catches_ambiguous_overlap () =
  (* Both fix the top byte to 0x01; d1 additionally fixes bit 0, d2 bit 23.
     Their match sets intersect without containment and neither has a
     `when`: ambiguous. *)
  let d1 = dec "a" (bits "00000001" @ fld "x" 23 @ bits "0") in
  let d2 = dec "b" (bits "00000001" @ bits "1" @ fld "y" 23) in
  Alcotest.(check bool) "ambiguous overlap flagged" true
    (List.mem (Adl.Declint.Overlap, "a") (kinds (Adl.Declint.check_decodes [ d1; d2 ])))

let test_declint_priority_idiom_not_flagged () =
  (* The specific pattern declared before the general one is the idiomatic
     priority encoding (leaves are tried in declaration order): clean. *)
  let specific = dec "halt" (bits "00000010" @ bits "000000000000000000000000") in
  let general = dec "op" (bits "00000010" @ fld "z" 24) in
  Alcotest.(check (list string)) "specific-first containment is clean" []
    (List.map Adl.Declint.string_of_violation (Adl.Declint.check_decodes [ specific; general ]))

let test_declint_when_disambiguates () =
  (* Same patterns as the ambiguity case, but a `when` on one side resolves
     the intersection; the shl2/shbig idiom of the toy arch. *)
  let w = e (Adl.Ast.Binop (Adl.Ast.Lt, e (Adl.Ast.Var "x"), e (Adl.Ast.Int_lit 4L))) in
  let d1 = dec "a" ~when_:w (bits "00000001" @ fld "x" 23 @ bits "0") in
  let d2 = dec "b" (bits "00000001" @ bits "1" @ fld "y" 23) in
  Alcotest.(check (list string)) "when-guarded overlap is clean" []
    (List.map Adl.Declint.string_of_violation (Adl.Declint.check_decodes [ d1; d2 ]))

let test_declint_catches_bad_when () =
  let w = e (Adl.Ast.Binop (Adl.Ast.Lt, e (Adl.Ast.Var "nope"), e (Adl.Ast.Int_lit 3L))) in
  let d = dec "f" ~when_:w (bits "00000011" @ fld "x" 24) in
  Alcotest.(check bool) "unknown field in when flagged" true
    (List.mem (Adl.Declint.Bad_when, "f") (kinds (Adl.Declint.check_decodes [ d ])))

let test_declint_catches_bad_width () =
  (* 8 + 16 = 24 bits: the pattern does not cover the instruction word. *)
  let short = dec "short" (bits "00000100" @ fld "x" 16) in
  Alcotest.(check bool) "short pattern flagged" true
    (List.mem (Adl.Declint.Bad_field, "short") (kinds (Adl.Declint.check_decodes [ short ])));
  (* 8 + 40 = 48 bits: the field extraction runs off the bottom of the word. *)
  let wide = dec "wide" (bits "00000100" @ fld "x" 40) in
  Alcotest.(check bool) "over-wide field flagged" true
    (List.mem (Adl.Declint.Bad_field, "wide") (kinds (Adl.Declint.check_decodes [ wide ])))

(* --- differential property tests (satellite) ----------------------------------- *)

(* For random decoded toy instances and random machine states, the SSA
   interpreter must produce the identical final state before and after
   Opt.optimize at every level O1-O4. *)
let prop_toy_optimize_preserves_interp =
  QCheck.Test.make ~count:60 ~name:"optimize preserves Interp semantics (toy, random)"
    QCheck.(triple (int_bound 9) (int_bound 0xFFFFFF) int64)
    (fun (opcode, low, seed) ->
      let word = Int64.of_int (((opcode + 1) lsl 24) lor low) in
      match Offline.decode (toy_model ()) word with
      | None -> true (* e.g. halt requires an all-zero low word *)
      | Some d ->
        let name = d.Adl.Decode.name in
        let fields = d.Adl.Decode.field_values in
        let prng = Dbt_util.Prng.create seed in
        let base = Toy_arch.fresh_state () in
        for i = 0 to 15 do
          base.Toy_arch.gpr.(i) <- Dbt_util.Prng.int64 prng
        done;
        base.Toy_arch.slots.(0) <- 0x1000L;
        base.Toy_arch.slots.(1) <- Int64.of_int (Dbt_util.Prng.int prng 16);
        let run action =
          let s = Toy_arch.clone_state base in
          Interp.run (Toy_arch.interp_state s) action ~field:(fun n -> List.assoc n fields);
          s
        in
        let reference = run (build_unopt name) in
        List.for_all
          (fun level ->
            let action = build_unopt name in
            let ctx = Offline.opt_context (toy_arch ()) name in
            Opt.optimize ~ctx ~level action;
            let got = run action in
            Toy_arch.state_equal reference got
            || QCheck.Test.fail_reportf "O%d changed semantics of %s (word %Lx)" level name word)
          [ 1; 2; 3; 4 ])

(* Same property over the full ARMv8-A model: unoptimized SSA straight out
   of Build.execute vs every optimization level, on random instances of a
   set of template encodings. *)
let test_arm_optimize_preserves_interp () =
  let m = Guest_arm.Arm.model_at_level 4 in
  let arch = m.Offline.arch in
  let prng = Dbt_util.Prng.create 20260806L in
  let templates =
    [ 0x8B020020L; 0x11001020L; 0xF9400020L; 0x9AC20820L; 0xD2800140L; 0x92401C20L;
      0xEB02003FL; 0x9A821040L; 0x13017C41L ]
  in
  let run action fields =
    let gpr = Array.make 32 0L and vec = Array.make 64 0L and slots = Array.make 16 0L in
    let sprng = Dbt_util.Prng.create 7L in
    for i = 0 to 31 do gpr.(i) <- Dbt_util.Prng.int64 sprng done;
    slots.(2) <- 5L (* NZCV *);
    slots.(3) <- 1L (* EL1 *);
    let pc = ref 0x4000L in
    let writes = ref [] in
    let st =
      {
        Interp.bank_read = (fun bank i -> if bank = 0 then gpr.(i land 31) else vec.(i land 63));
        bank_write =
          (fun bank i v -> if bank = 0 then gpr.(i land 31) <- v else vec.(i land 63) <- v);
        reg_read = (fun sl -> slots.(sl));
        reg_write = (fun sl v -> slots.(sl) <- v);
        pc_read = (fun () -> !pc);
        pc_write = (fun v -> pc := v);
        mem_read =
          (fun bits a -> Dbt_util.Bits.zero_extend (Int64.mul a 0x9E3779B97F4A7C15L) ~width:bits);
        mem_write = (fun bits a v -> writes := (bits, a, v) :: !writes);
        coproc_read = (fun id -> Int64.mul id 7L);
        coproc_write = (fun id v -> writes := (0, id, v) :: !writes);
        effect =
          (fun name args ->
            writes :=
              (1, Int64.of_int (Hashtbl.hash name), List.fold_left Int64.add 0L args) :: !writes);
      }
    in
    let field n = if n = "__el" then 1L else List.assoc n fields in
    Interp.run st action ~field;
    (gpr, vec, slots, !pc, !writes)
  in
  let tested = ref 0 in
  List.iter
    (fun t ->
      for _ = 1 to 4 do
        let r n = Dbt_util.Prng.int prng n in
        let w = Dbt_util.Bits.insert t ~lo:0 ~len:5 (Int64.of_int (r 32)) in
        let w = Dbt_util.Bits.insert w ~lo:5 ~len:5 (Int64.of_int (r 32)) in
        let w = Dbt_util.Bits.insert w ~lo:16 ~len:5 (Int64.of_int (r 32)) in
        match Offline.decode m w with
        | None -> ()
        | Some d ->
          incr tested;
          let name = d.Adl.Decode.name in
          let fields = d.Adl.Decode.field_values in
          let x = Option.get (Adl.Ast.find_execute arch name) in
          let reference = run (Build.execute arch x) fields in
          let ctx = Offline.opt_context arch name in
          List.iter
            (fun level ->
              let action = Build.execute arch x in
              Opt.optimize ~ctx ~level action;
              if run action fields <> reference then
                Alcotest.failf "O%d changed semantics of %s (word %08Lx)" level name w)
            [ 1; 2; 3; 4 ]
      done)
    templates;
  Alcotest.(check bool) "tested a reasonable sample" true (!tested > 20)

let suite =
  ( "verify",
    [
      Alcotest.test_case "toy actions verify clean at O1-O4" `Quick test_toy_actions_verify_clean;
      Alcotest.test_case "catches undefined use" `Quick test_catches_undefined_use;
      Alcotest.test_case "catches non-value use" `Quick test_catches_non_value_use;
      Alcotest.test_case "catches use before def" `Quick test_catches_use_before_def;
      Alcotest.test_case "catches non-dominating def" `Quick test_catches_non_dominating_def;
      Alcotest.test_case "catches bad jump target" `Quick test_catches_bad_jump_target;
      Alcotest.test_case "catches duplicate ids" `Quick test_catches_duplicate_ids;
      Alcotest.test_case "catches var out of range" `Quick test_catches_var_out_of_range;
      Alcotest.test_case "catches phi in entry" `Quick test_catches_phi_in_entry;
      Alcotest.test_case "catches phi arm for non-predecessor" `Quick test_catches_phi_bad_arm;
      Alcotest.test_case "catches phi missing arm" `Quick test_catches_phi_missing_arm;
      Alcotest.test_case "broken pass attributed by name" `Quick
        test_broken_pass_attributed_by_name;
      Alcotest.test_case "real passes verify silently" `Quick test_real_passes_verify_silently;
      Alcotest.test_case "find_block error is descriptive" `Quick
        test_find_block_error_is_descriptive;
      Alcotest.test_case "classify: all-fixed select" `Quick test_classify_select_all_fixed;
      Alcotest.test_case "classify: mixed select" `Quick test_classify_select_mixed;
      Alcotest.test_case "classify: phi is dynamic" `Quick test_classify_phi_is_dynamic;
      Alcotest.test_case "classify: effect" `Quick test_classify_effect;
      Alcotest.test_case "hostir: real translation clean" `Quick
        test_hostir_real_translation_clean;
      Alcotest.test_case "hostir: catches surviving vreg" `Quick test_hostir_catches_surviving_vreg;
      Alcotest.test_case "hostir: catches bad slot" `Quick test_hostir_catches_bad_slot;
      Alcotest.test_case "hostir: catches bad preg" `Quick test_hostir_catches_bad_preg;
      Alcotest.test_case "hostir: catches missing label" `Quick test_hostir_catches_missing_label;
      Alcotest.test_case "hostir: catches unsound dead marking" `Quick
        test_hostir_catches_unsound_dead_marking;
      Alcotest.test_case "hostir: catches impure dead" `Quick test_hostir_catches_impure_dead;
      Alcotest.test_case "declint: toy table clean" `Quick test_declint_toy_clean;
      Alcotest.test_case "declint: catches shadowed" `Quick test_declint_catches_shadowed;
      Alcotest.test_case "declint: catches ambiguous overlap" `Quick
        test_declint_catches_ambiguous_overlap;
      Alcotest.test_case "declint: priority idiom not flagged" `Quick
        test_declint_priority_idiom_not_flagged;
      Alcotest.test_case "declint: when disambiguates" `Quick test_declint_when_disambiguates;
      Alcotest.test_case "declint: catches bad when" `Quick test_declint_catches_bad_when;
      Alcotest.test_case "declint: catches bad width" `Quick test_declint_catches_bad_width;
      QCheck_alcotest.to_alcotest prop_toy_optimize_preserves_interp;
      Alcotest.test_case "ARM: optimize preserves Interp (differential)" `Slow
        test_arm_optimize_preserves_interp;
    ] )
