(* SSA construction and optimization tests.

   The central property: for every instruction and random machine state,
   interpreting the *unoptimized* SSA and the SSA optimized at any level
   O1-O4 must produce identical final states. *)

open Ssa

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

let test_paper_add_example () =
  (* The paper's Fig. 3 -> Fig. 6 flow: the optimized `add` collapses to a
     handful of statements (two reads, one add, one write, plus the folded
     immediate). *)
  let unopt = build_unopt "add" in
  let opt = build_opt 4 "add" in
  Alcotest.(check bool) "optimization shrinks add" true (Ir.size opt < Ir.size unopt);
  Alcotest.(check int) "single block" 1 (List.length opt.Ir.blocks);
  Alcotest.(check bool) "small" true (Ir.size opt <= 12);
  (* No variable traffic must survive in straight-line code at O4. *)
  let has_var_ops =
    List.exists
      (fun b ->
        List.exists
          (fun i -> match i.Ir.desc with Ir.Var_read _ | Ir.Var_write _ -> true | _ -> false)
          b.Ir.insts)
      opt.Ir.blocks
  in
  Alcotest.(check bool) "no var ops" false has_var_ops

let test_opt_levels_shrink () =
  let size_at level =
    List.fold_left
      (fun acc x -> acc + Ir.size (build_opt level x.Adl.Ast.x_name))
      0
      (toy_arch ()).Adl.Ast.a_executes
  in
  let s1 = size_at 1 and s4 = size_at 4 in
  Alcotest.(check bool) (Printf.sprintf "O4 (%d) < O1 (%d)" s4 s1) true (s4 < s1)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_ssa_printer () =
  let opt = build_opt 4 "add" in
  let s = Ir.to_string opt in
  Alcotest.(check bool) "mentions bankregread" true (contains s "bankregread")

(* Differential testing: unoptimized vs optimized, on random states. *)
let run_action action fields state =
  let st = Toy_arch.interp_state state in
  Interp.run st action ~field:(fun n -> List.assoc n fields)

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

let test_opt_equivalence () =
  let prng = Dbt_util.Prng.create 42L in
  let m = model () in
  for _ = 1 to 40 do
    List.iter
      (fun word ->
        match Offline.decode m word with
        | None -> Alcotest.failf "undecodable test encoding %Lx" word
        | Some d ->
          let fields = d.Adl.Decode.field_values in
          let base = Toy_arch.fresh_state () in
          for i = 0 to 15 do
            base.Toy_arch.gpr.(i) <- Dbt_util.Prng.int64 prng
          done;
          base.Toy_arch.slots.(0) <- 0x1000L;
          base.Toy_arch.slots.(1) <- Int64.of_int (Dbt_util.Prng.int prng 16);
          let unopt_state = Toy_arch.clone_state base in
          let name = d.Adl.Decode.name in
          run_action (build_unopt name) fields unopt_state;
          List.iter
            (fun level ->
              let opt_state = Toy_arch.clone_state base in
              run_action (build_opt level name) fields opt_state;
              if not (Toy_arch.state_equal unopt_state opt_state) then
                Alcotest.failf "O%d changed semantics of %s (word %Lx)" level name word)
            [ 1; 2; 3; 4 ])
      (encodings prng)
  done

let test_fixed_control_flow_detection () =
  let field_of name v = fun f -> if f = name then v else 0L in
  (* `add` is straight-line: fixed. *)
  Alcotest.(check bool) "add fixed" true
    (Gen.has_fixed_control_flow (build_opt 4 "add") ~field:(fun _ -> 0L));
  (* `beq` branches on register values: dynamic. *)
  Alcotest.(check bool) "beq dynamic" false
    (Gen.has_fixed_control_flow (build_opt 4 "beq") ~field:(fun _ -> 0L));
  (* `loopy` has a fixed loop: unrolls, stays fixed. *)
  Alcotest.(check bool) "loopy fixed" true
    (Gen.has_fixed_control_flow (build_opt 4 "loopy") ~field:(field_of "n" 7L));
  (* `csel` uses select, not branches: fixed. *)
  Alcotest.(check bool) "csel fixed" true
    (Gen.has_fixed_control_flow (build_opt 4 "csel") ~field:(fun _ -> 0L));
  (* The symbolic half (the template miner's view): a field left unpinned
     that steers the fixed loop must be pinned; one that only feeds
     arithmetic reaches [mat] as a symbolic operand. *)
  let operands = ref [] in
  let ctx : unit Gen.ctx =
    {
      Gen.em = Emitter.null;
      mat = (fun v -> operands := v :: !operands);
      sym_load = (fun ~bank:_ _ -> ());
      sym_store = (fun ~bank:_ _ () -> ());
      clear = ignore;
    }
  in
  let run name ~unpinned =
    Gen.run ctx (build_opt 4 name) ~field:(fun _ -> 0L) ~pinned:(( <> ) unpinned) ~inc_pc:None
  in
  Alcotest.check_raises "loopy with n unpinned" (Gen.Need_pin [ "n" ]) (fun () ->
      run "loopy" ~unpinned:"n");
  run "add" ~unpinned:"imm";
  Alcotest.(check bool) "add's unpinned imm reaches mat as Sym" true
    (List.exists
       (function Gen.Sym e -> List.mem "imm" (Gen.support [] e) | _ -> false)
       !operands)

let test_offline_fold_fp () =
  (* fp64_add over two constants must fold offline via softfloat. *)
  let src =
    {|
arch "t" { wordsize 64; endian little; bank R : uint64[4]; reg PC : uint64; }
decode f "00000000 d:4 00000000000000000000";
execute(f) {
  write_register_bank(R, inst.d, fp64_add(0x3FF0000000000000, 0x4000000000000000));
}
|}
  in
  let m = Offline.build ~opt_level:4 src in
  let action = Offline.action m "f" in
  let has_const_3 =
    List.exists
      (fun b ->
        List.exists
          (fun i -> i.Ir.desc = Ir.Const 0x4008000000000000L (* 3.0 *))
          b.Ir.insts)
      action.Ir.blocks
  in
  Alcotest.(check bool) "fp folded to 3.0" true has_const_3

(* The full ARMv8-A model must be semantically identical at every offline
   optimization level: run random instruction instances through the SSA
   interpreter at O1 and O4 and compare complete final states. *)
let test_arm_opt_levels_agree () =
  let m1 = Guest_arm.Arm.model_at_level 1 in
  let m4 = Guest_arm.Arm.model_at_level 4 in
  let prng = Dbt_util.Prng.create 20260706L in
  let mk_state () =
    let gpr = Array.make 32 0L in
    let vec = Array.make 64 0L in
    let slots = Array.make 16 0L in
    for i = 0 to 31 do gpr.(i) <- Dbt_util.Prng.int64 prng done;
    for i = 0 to 63 do vec.(i) <- Dbt_util.Prng.int64 prng done;
    slots.(2) <- Int64.of_int (Dbt_util.Prng.int prng 16); (* NZCV *)
    slots.(3) <- 1L; (* EL1 *)
    (gpr, vec, slots)
  in
  let run model word (gpr0, vec0, slots0) =
    match Offline.decode model word with
    | None -> None
    | Some d ->
      let gpr = Array.copy gpr0 and vec = Array.copy vec0 and slots = Array.copy slots0 in
      let pc = ref 0x4000L in
      let writes = ref [] in
      let st =
        {
          Interp.bank_read = (fun bank i -> if bank = 0 then gpr.(i land 31) else vec.(i land 63));
          bank_write = (fun bank i v -> if bank = 0 then gpr.(i land 31) <- v else vec.(i land 63) <- v);
          reg_read = (fun sl -> slots.(sl));
          reg_write = (fun sl v -> slots.(sl) <- v);
          pc_read = (fun () -> !pc);
          pc_write = (fun v -> pc := v);
          mem_read =
            (fun bits a -> Dbt_util.Bits.zero_extend (Int64.mul a 0x9E3779B97F4A7C15L) ~width:bits);
          mem_write = (fun bits a v -> writes := (bits, a, v) :: !writes);
          coproc_read = (fun id -> Int64.mul id 7L);
          coproc_write = (fun id v -> writes := (0, id, v) :: !writes);
          effect = (fun name args -> writes := (1, Int64.of_int (Hashtbl.hash name), List.fold_left Int64.add 0L args) :: !writes);
        }
      in
      let field n = if n = "__el" then 1L else List.assoc n d.Adl.Decode.field_values in
      Interp.run st (Offline.action model d.Adl.Decode.name) ~field;
      Some (gpr, vec, slots, !pc, !writes)
  in
  let r n = Dbt_util.Prng.int prng n in
  let words = ref [] in
  (* random instances of every decodable class: flip random field bits on a
     set of template encodings *)
  let templates =
    [ 0x8B020020L; 0x11001020L; 0xF9400020L; 0xA9400420L; 0x9AC20820L; 0x1E602820L;
      0x4EE28420L; 0x4E62D420L; 0xD2800140L; 0x92401C20L; 0xEB02003FL; 0x9A821040L;
      0xDAC01020L; 0x13017C41L; 0x93407C41L; 0x1E604020L; 0x9E620020L ]
  in
  for _ = 1 to 300 do
    let t = List.nth templates (r (List.length templates)) in
    (* randomize register fields (bits 0-4, 5-9, 16-20) *)
    let w = Dbt_util.Bits.insert t ~lo:0 ~len:5 (Int64.of_int (r 32)) in
    let w = Dbt_util.Bits.insert w ~lo:5 ~len:5 (Int64.of_int (r 32)) in
    let w = Dbt_util.Bits.insert w ~lo:16 ~len:5 (Int64.of_int (r 32)) in
    words := w :: !words
  done;
  let tested = ref 0 in
  List.iter
    (fun word ->
      let st = mk_state () in
      match (run m1 word st, run m4 word st) with
      | Some a, Some b ->
        incr tested;
        if a <> b then Alcotest.failf "O1 and O4 disagree on %08Lx" word
      | None, None -> ()
      | _ -> Alcotest.failf "decode differs across levels for %08Lx" word)
    !words;
  Alcotest.(check bool) "tested a reasonable sample" true (!tested > 150)

let test_fixed_dynamic_analysis () =
  (* Paper Sec. 2.2.2: struct reads are fixed, bankregreads dynamic. *)
  let m = Guest_arm.Arm.model_at_level 4 in
  let action = Ssa.Offline.action m "add_sub_imm" in
  let r = Analysis.classify action in
  let seen_fixed_struct = ref false and seen_dyn_bankread = ref false in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.Ir.desc with
          | Ir.Struct _ ->
            if Hashtbl.find_opt r.Analysis.of_stmt i.Ir.id <> Some Analysis.Dynamic then
              seen_fixed_struct := true
          | Ir.Bank_read _ ->
            if Hashtbl.find_opt r.Analysis.of_stmt i.Ir.id = Some Analysis.Dynamic then
              seen_dyn_bankread := true
          | _ -> ())
        b.Ir.insts)
    action.Ir.blocks;
  Alcotest.(check bool) "struct reads fixed" true !seen_fixed_struct;
  Alcotest.(check bool) "bank reads dynamic" true !seen_dyn_bankread;
  (* add_sub_imm's internal control flow keys on fields: all fixed. *)
  Alcotest.(check int) "no dynamic branches in add_sub_imm" 0 r.Analysis.dynamic_branches;
  (* b_cond tests NZCV: must have a dynamic branch. *)
  let bc = Ssa.Offline.action m "b_cond" in
  let rbc = Analysis.classify bc in
  Alcotest.(check bool) "b_cond has a dynamic branch" true (rbc.Analysis.dynamic_branches > 0)

(* --- PHI analysis on hand-built CFGs ------------------------------------- *)

let phi_pass = List.find (fun p -> p.Opt.pname = "PHI Analysis/Elimination") Opt.passes

(* An action from (block id, statements, terminator) triples; statement
   ids are whatever the fixture says, and next_id is one past the last. *)
let hand_action blocks =
  let a = Ir.create_action "fixture" in
  ignore (Ir.fresh_var a "v");
  a.Ir.blocks <-
    List.map
      (fun (bid, insts, term) ->
        { Ir.bid; insts = List.map (fun (id, desc) -> { Ir.id; desc }) insts; term })
      blocks;
  a.Ir.next_id <-
    1 + List.fold_left (fun m b -> List.fold_left (fun m i -> max m i.Ir.id) m b.Ir.insts) 0 a.Ir.blocks;
  a

let stmt a id =
  List.find_map (fun b -> List.find_opt (fun i -> i.Ir.id = id) b.Ir.insts) a.Ir.blocks

let check_clean a =
  Alcotest.(check (list string)) "well-formed" [] (List.map Verify.string_of_violation (Verify.check a))

let test_phi_one_def_across_back_edge () =
  (* v is written once before the loop: the loop head's read sees that
     write along the entry edge and itself along the back edge. *)
  let a =
    hand_action
      [
        (0, [ (0, Ir.Const 5L); (1, Ir.Var_write (0, 0)) ], Ir.Jump 1);
        ( 1,
          [ (2, Ir.Var_read 0); (3, Ir.Reg_read 0); (4, Ir.Binary (Adl.Ast.Add, false, 2, 3));
            (5, Ir.Reg_write (1, 4)) ],
          Ir.Branch (3, 1, 2) );
        (2, [], Ir.Ret);
      ]
  in
  Alcotest.(check bool) "changed" true (phi_pass.Opt.run Opt.no_context a);
  Alcotest.(check bool) "read promoted" true (stmt a 2 = None);
  Alcotest.(check bool) "use rewritten to the write's value" true
    (Option.map (fun i -> i.Ir.desc) (stmt a 4) = Some (Ir.Binary (Adl.Ast.Add, false, 0, 3)));
  check_clean a

let test_phi_two_defs_keep_read () =
  (* The loop body writes v, so its head sees two definitions; the exit
     block sees only the body's write. *)
  let a =
    hand_action
      [
        (0, [ (0, Ir.Const 5L); (1, Ir.Var_write (0, 0)) ], Ir.Jump 1);
        ( 1,
          [ (2, Ir.Var_read 0); (3, Ir.Const 1L); (4, Ir.Binary (Adl.Ast.Add, false, 2, 3));
            (5, Ir.Var_write (0, 4)); (6, Ir.Reg_read 0) ],
          Ir.Branch (6, 1, 2) );
        (2, [ (7, Ir.Var_read 0); (8, Ir.Reg_write (1, 7)) ], Ir.Ret);
      ]
  in
  Alcotest.(check bool) "changed" true (phi_pass.Opt.run Opt.no_context a);
  Alcotest.(check bool) "loop-head read kept" true (stmt a 2 <> None);
  Alcotest.(check bool) "exit read promoted to the body's write" true
    (stmt a 7 = None && Option.map (fun i -> i.Ir.desc) (stmt a 8) = Some (Ir.Reg_write (1, 4)));
  check_clean a

let test_phi_read_before_write_stays () =
  (* Only the other arm writes v: the read reaches Bot and stays, and a
     second read in its block shares it. *)
  let a =
    hand_action
      [
        (0, [ (0, Ir.Reg_read 0) ], Ir.Branch (0, 1, 2));
        (1, [ (1, Ir.Const 3L); (2, Ir.Var_write (0, 1)) ], Ir.Jump 3);
        ( 2,
          [ (3, Ir.Var_read 0); (4, Ir.Var_read 0); (5, Ir.Binary (Adl.Ast.Add, false, 3, 4));
            (6, Ir.Reg_write (1, 5)) ],
          Ir.Jump 3 );
        (3, [], Ir.Ret);
      ]
  in
  Alcotest.(check bool) "changed" true (phi_pass.Opt.run Opt.no_context a);
  Alcotest.(check bool) "first read stays" true (stmt a 3 <> None);
  Alcotest.(check bool) "second read shares it" true
    (stmt a 4 = None
    && Option.map (fun i -> i.Ir.desc) (stmt a 5) = Some (Ir.Binary (Adl.Ast.Add, false, 3, 3)));
  check_clean a

(* A pass sees the aliases it made earlier in the same walk, as if every
   use had been rewritten at once: s3 = s0 + 0 makes the select's arms
   equal, so one run folds the select too, and the write and the branch
   end up on s0. *)
let test_aliases_within_one_pass () =
  let vp = List.find (fun p -> p.Opt.pname = "Value Propagation") Opt.passes in
  let a =
    hand_action
      [
        ( 0,
          [ (0, Ir.Reg_read 0); (1, Ir.Reg_read 1); (2, Ir.Const 0L);
            (3, Ir.Binary (Adl.Ast.Add, false, 0, 2)); (4, Ir.Select (1, 3, 0));
            (5, Ir.Reg_write (2, 4)) ],
          Ir.Branch (4, 1, 1) );
        (1, [], Ir.Ret);
      ]
  in
  Alcotest.(check bool) "changed" true (vp.Opt.run Opt.no_context a);
  Alcotest.(check bool) "write renamed through both aliases" true
    (Option.map (fun i -> i.Ir.desc) (stmt a 5) = Some (Ir.Reg_write (2, 0)));
  Alcotest.(check bool) "branch condition renamed" true
    ((List.hd a.Ir.blocks).Ir.term = Ir.Branch (0, 1, 1));
  (* Block 1 comes first in the list but runs after block 2: its alias
     s5 -> s3 is made before s3 -> s0, and the write follows the chain. *)
  let a =
    hand_action
      [
        (0, [], Ir.Jump 2);
        (1, [ (4, Ir.Const 0L); (5, Ir.Binary (Adl.Ast.Or, false, 3, 4)); (6, Ir.Reg_write (2, 5)) ], Ir.Ret);
        (2, [ (0, Ir.Reg_read 0); (2, Ir.Const 0L); (3, Ir.Binary (Adl.Ast.Add, false, 0, 2)) ], Ir.Jump 1);
      ]
  in
  Alcotest.(check bool) "changed" true (vp.Opt.run Opt.no_context a);
  Alcotest.(check bool) "write renamed along the chain" true
    (Option.map (fun i -> i.Ir.desc) (stmt a 6) = Some (Ir.Reg_write (2, 0)))

(* --- the offline pipeline's output, pinned ------------------------------- *)

(* MD5 of [Ir.to_string] of every action of both guest models at O1-O4,
   in declaration order.  A change meant to move the pipeline's output
   updates this digest and says so. *)
let test_model_digest () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun model_at_level ->
      List.iter
        (fun level ->
          let m = model_at_level level in
          List.iter
            (fun x -> Buffer.add_string buf (Ir.to_string (Offline.action m x.Adl.Ast.x_name)))
            m.Offline.arch.Adl.Ast.a_executes)
        [ 1; 2; 3; 4 ])
    [ Guest_arm.Arm.model_at_level; Guest_riscv.Riscv.model_at_level ];
  Alcotest.(check string) "digest" "eb9bc937738e74e1d9268d4742d2cc3e"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_models_built_once () =
  Alcotest.(check bool) "same O2 model twice" true
    (Guest_arm.Arm.model_at_level 2 == Guest_arm.Arm.model_at_level 2);
  Alcotest.(check bool) "default ops share the O4 model" true
    ((Guest_arm.Arm.ops ()).Guest.Ops.model == Guest_arm.Arm.model_at_level 4
    && (Guest_riscv.Riscv.ops ~opt_level:4 ()).Guest.Ops.model
       == (Guest_riscv.Riscv.ops ()).Guest.Ops.model);
  (* A model not built yet may not be forced off the main domain. *)
  let levels = Offline.per_level Toy_arch.source in
  let off_main = Domain.join (Domain.spawn (fun () -> try ignore (levels 3); false with Invalid_argument _ -> true)) in
  Alcotest.(check bool) "first use off the main domain refused" true off_main;
  Alcotest.(check bool) "built on the main domain, then shared" true
    (let m = levels 3 in
     Domain.join (Domain.spawn (fun () -> levels 3 == m)))

let suite =
  ( "ssa",
    [
      Alcotest.test_case "paper add example" `Quick test_paper_add_example;
      Alcotest.test_case "opt levels shrink code" `Quick test_opt_levels_shrink;
      Alcotest.test_case "printer" `Quick test_ssa_printer;
      Alcotest.test_case "opt equivalence (differential)" `Quick test_opt_equivalence;
      Alcotest.test_case "fixed control flow detection" `Quick test_fixed_control_flow_detection;
      Alcotest.test_case "offline fp folding" `Quick test_offline_fold_fp;
      Alcotest.test_case "ARM model O1 vs O4 (differential)" `Slow test_arm_opt_levels_agree;
      Alcotest.test_case "fixed/dynamic analysis" `Quick test_fixed_dynamic_analysis;
      Alcotest.test_case "PHI: one definition across a back edge" `Quick
        test_phi_one_def_across_back_edge;
      Alcotest.test_case "PHI: two definitions keep the read" `Quick test_phi_two_defs_keep_read;
      Alcotest.test_case "PHI: read before any write stays" `Quick test_phi_read_before_write_stays;
      Alcotest.test_case "aliases within one pass" `Quick test_aliases_within_one_pass;
      Alcotest.test_case "model digest O1-O4" `Quick test_model_digest;
      Alcotest.test_case "models built once per level" `Quick test_models_built_once;
    ] )
