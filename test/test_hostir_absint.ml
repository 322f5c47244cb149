(* HostIR abstract-interpretation tests.

   The load-bearing property: on the same random branchy HostIR
   programs test_symexec uses, every concrete execution (Exec) from a
   random initial state lands inside the abstract facts computed by
   Absint from that state's exact constants — registers, register-file
   qwords and PC at the exit are all contained in the join of the
   abstract states at the reachable Exit sites.  An unsound transfer
   function fails this in a handful of the 1000 cases.

   Then the obligation checker: seeded violations of each class — an
   out-of-bounds register-file access, a misaligned one, a spill slot
   outside the frame, a dirty promoted register live across a helper
   call, an uncovered dirty register at an exit, a writeback map naming
   a non-promoted register — are each rejected with the named finding,
   and Verify.check_wb reports the identical messages (it delegates
   here).  The shared helper-effect classification is pinned to its
   semantic anchors, and the absint-simplify rewrites are exercised one
   by one. *)

module Hir = Hostir.Hir
module A = Hostir.Absint
module Absval = Dbt_util.Absval
module Ef = Hostir.Effects
module Exec = Hostir.Exec
module Prng = Dbt_util.Prng

let v n = Hir.Vreg n

(* --- soundness: abstract facts contain concrete execution ----------------------- *)

let prop_absint_contains_concrete =
  QCheck2.Test.make ~name:"absint facts contain concrete execution" ~count:1000
    QCheck2.Gen.int64 (fun seed ->
      let prng = Prng.create (if seed = 0L then 1L else seed) in
      let prog = Test_symexec.gen_program prng in
      (* random concrete initial state *)
      let pc0 = Int64.logand (Prng.int64 prng) 0xFFFF_FFFF_FFF0L in
      let preg0 = Array.init 16 (fun _ -> Prng.int64 prng) in
      let rf0 = Array.init Test_symexec.n_offs (fun _ -> Prng.int64 prng) in
      let ctx = Test_symexec.mk_ctx () in
      Exec.set_pc ctx pc0;
      Array.iteri (fun i x -> Exec.set_reg ctx i x) preg0;
      Array.iteri (fun i x -> Exec.rf_write ctx (8 * i) x) rf0;
      ignore (Exec.run ctx (Exec.compile (Test_symexec.indexify prog)));
      (* abstract run from the same state's exact constants *)
      let entry =
        let s = ref A.state_top in
        Array.iteri (fun i x -> s := A.write !s (Hir.Preg i) (Absval.const x)) preg0;
        Array.iteri (fun i x -> s := A.rf_write !s (8 * i) (Absval.const x)) rf0;
        { !s with A.s_pc = Absval.const pc0 }
      in
      let facts = A.analyze ~entry prog in
      (* The concrete run stopped at some Exit; soundness means its
         pre-state — hence the join over all reachable Exit sites —
         contains the concrete finals. *)
      let exits = ref [] in
      A.iter_facts facts (fun _ s ins ->
          match ins with Hir.Exit _ -> exits := s :: !exits | _ -> ());
      let joined =
        match !exits with
        | [] -> failwith "no abstractly-reachable exit on an always-exiting program"
        | s :: tl -> List.fold_left A.state_join s tl
      in
      let chk what value x =
        if not (Absval.contains value x) then
          failwith
            (Printf.sprintf "%s: concrete %Ld outside abstract %s" what x
               (Absval.to_string value))
      in
      for g = 0 to 15 do
        chk (Printf.sprintf "r%d" g) (A.read joined (Hir.Preg g)) (Exec.get_reg ctx g)
      done;
      for i = 0 to Test_symexec.n_offs - 1 do
        chk (Printf.sprintf "rf[%d]" (8 * i)) (A.rf_read joined (8 * i))
          (Exec.rf_read ctx (8 * i))
      done;
      chk "pc" joined.A.s_pc (Exec.get_pc ctx);
      true)

(* --- seeded obligation violations ----------------------------------------------- *)

let has cls fs = List.exists (fun (f : A.finding) -> f.A.f_class = cls) fs

let check_has what cls fs =
  if not (has cls fs) then
    Alcotest.failf "%s: no %s finding in [%s]" what (A.obligation_name cls)
      (String.concat "; " (List.map A.finding_to_string fs))

let test_ob_rf_oob () =
  check_has "oob rf offset" A.Ob_rf_oob
    (A.check_translation [| Hir.Label 0; Hir.Ldrf (v 0, A.rf_bytes); Hir.Exit 0 |]);
  check_has "negative rf offset" A.Ob_rf_oob
    (A.check_translation [| Hir.Label 0; Hir.Strf (-8, Hir.Imm 0L); Hir.Exit 0 |]);
  check_has "oob wbmap offset" A.Ob_rf_oob
    (A.check_translation [| Hir.Label 0; Hir.Wbmap [| (v 0, A.rf_bytes + 8) |]; Hir.Exit 0 |])

let test_ob_rf_align () =
  check_has "misaligned rf offset" A.Ob_rf_align
    (A.check_translation [| Hir.Label 0; Hir.Strf (12, Hir.Imm 0L); Hir.Exit 0 |]);
  (* a clean stream has no findings at all *)
  Alcotest.(check int) "clean stream" 0
    (List.length
       (A.check_translation
          [| Hir.Label 0; Hir.Ldrf (v 0, 8); Hir.Strf (16, v 0); Hir.Exit 0 |]))

let test_ob_frame_oob () =
  check_has "slot outside frame" A.Ob_frame_oob
    (A.check_frame ~n_slots:2 [| Hir.Label 0; Hir.Mov (Hir.Slot 3, Hir.Imm 1L); Hir.Exit 0 |]);
  Alcotest.(check int) "slot inside frame" 0
    (List.length
       (A.check_frame ~n_slots:2 [| Hir.Label 0; Hir.Mov (Hir.Slot 1, Hir.Imm 1L); Hir.Exit 0 |]))

(* Dirty promoted register live across a clobbering helper call. *)
let test_ob_dirty_call () =
  let fs =
    A.check_wb ~promoted:[ (0, 8) ]
      [|
        Hir.Label 0;
        Hir.Ldrf (v 0, 8);
        Hir.Alu (Aadd, v 0, v 0, Imm 1L);
        Hir.Call (1, [||], None);
        Hir.Strf (8, v 0);
        Hir.Exit 0;
      |]
  in
  check_has "dirty across call" A.Ob_dirty_call fs

(* Dirty promoted register reaching an exit with no writeback entry. *)
let test_ob_wb_coverage () =
  let fs =
    A.check_wb ~promoted:[ (0, 8) ]
      [| Hir.Label 0; Hir.Ldrf (v 0, 8); Hir.Alu (Aadd, v 0, v 0, Imm 1L); Hir.Exit 0 |]
  in
  check_has "uncovered dirty exit" A.Ob_wb_coverage fs

(* Writeback map naming a register that was never promoted. *)
let test_ob_wb_shape () =
  let fs =
    A.check_wb ~promoted:[ (0, 8) ]
      [|
        Hir.Label 0;
        Hir.Ldrf (v 0, 8);
        Hir.Wbmap [| (v 9, 8) |];
        Hir.Exit 0;
      |]
  in
  check_has "non-promoted wbmap entry" A.Ob_wb_shape fs

(* Verify.check_wb is a thin front door over Absint.check_wb: same
   stream, same violations, identical message strings. *)
let test_verify_delegates () =
  let stream =
    [|
      Hir.Label 0;
      Hir.Ldrf (v 0, 8);
      Hir.Alu (Aadd, v 0, v 0, Imm 1L);
      Hir.Call (1, [||], None);
      Hir.Exit 0;
    |]
  in
  let promoted = [ (0, 8) ] in
  let from_verify =
    List.map (fun (x : Hostir.Verify.violation) -> x.Hostir.Verify.v_msg)
      (Hostir.Verify.check_wb ~promoted stream)
  in
  let from_absint =
    List.map (fun (f : A.finding) -> f.A.f_msg) (A.check_wb ~promoted stream)
  in
  Alcotest.(check (list string)) "identical messages" from_absint from_verify;
  Alcotest.(check bool) "violations found" true (from_verify <> [])

(* --- one source of truth for helper effects ------------------------------------- *)

let kind = Alcotest.testable (fun fmt k -> Format.pp_print_string fmt (Ef.kind_to_string k)) ( = )

let test_effects_single_source () =
  (* Common.helper_kind (the engine's classifier, fed to Symexec, Promote
     and the analyzer) is Effects.classify, not a re-implementation. *)
  for h = 0 to 63 do
    Alcotest.check kind
      (Printf.sprintf "helper %d" h)
      (Ef.classify h) (Captive.Common.helper_kind h)
  done;
  (* the semantic anchors *)
  Alcotest.check kind "coproc read" Ef.C_read (Ef.classify Ef.h_coproc_read);
  Alcotest.check kind "as switch" Ef.C_as_switch (Ef.classify Ef.h_as_switch);
  Alcotest.check kind "halt is an event" Ef.C_event (Ef.classify Ef.h_halt);
  Alcotest.check kind "softfloat is pure" Ef.C_pure (Ef.classify Ef.first_softfloat);
  Alcotest.check kind "coproc write clobbers" Ef.C_clobber (Ef.classify Ef.h_coproc_write)

(* A pure helper is transparent to the writeback discipline: a dirty
   promoted register may stay live across it (flushed before the exit),
   which the default everything-clobbers classification rejects. *)
let test_pure_call_transparent () =
  let stream =
    [|
      Hir.Label 0;
      Hir.Ldrf (v 0, 8);
      Hir.Alu (Aadd, v 0, v 0, Imm 1L);
      Hir.Call (Ef.first_softfloat, [| Hir.Preg 0 |], Some (v 5));
      Hir.Strf (8, v 0);
      Hir.Exit 0;
    |]
  in
  let promoted = [ (0, 8) ] in
  Alcotest.(check int) "accepted with effect classification" 0
    (List.length (A.check_wb ~classify:Ef.classify ~promoted stream));
  Alcotest.(check bool) "rejected when every helper clobbers" true
    (A.check_wb ~promoted stream <> [])

(* --- the absint-simplify pass ---------------------------------------------------- *)

let simplify = A.simplify ~classify:Ef.classify

let test_simplify_folds_branch () =
  let out, ss =
    simplify
      [|
        Hir.Label 0;
        Hir.Mov (v 0, Imm 0L);
        Hir.Br (v 0, 1, 2);
        Hir.Label 1;
        Hir.Strf (0, Hir.Imm 1L);
        Hir.Exit 0;
        Hir.Label 2;
        Hir.Strf (0, Hir.Imm 2L);
        Hir.Exit 0;
      |]
  in
  Alcotest.(check int) "branch folded" 1 ss.A.branches_folded;
  Alcotest.(check bool) "no Br remains" false
    (Array.exists (function Hir.Br _ -> true | _ -> false) out);
  Alcotest.(check bool) "taken arm survives" true
    (Array.exists (( = ) (Hir.Strf (0, Hir.Imm 2L))) out);
  Alcotest.(check bool) "dead arm pruned" false
    (Array.exists (( = ) (Hir.Strf (0, Hir.Imm 1L))) out)

let test_simplify_folds_consts () =
  let out, ss =
    simplify
      [| Hir.Label 0; Hir.Alu (Aadd, v 0, Imm 2L, Imm 3L); Hir.Strf (0, v 0); Hir.Exit 0 |]
  in
  Alcotest.(check int) "const folded" 1 ss.A.consts_folded;
  Alcotest.(check bool) "rewritten to a move" true
    (Array.exists (( = ) (Hir.Mov (v 0, Hir.Imm 5L))) out)

let test_simplify_drops_masks () =
  let out, ss =
    simplify
      [|
        Hir.Label 0;
        Hir.Ext (false, 8, v 0, Hir.Preg 0);
        Hir.Alu (Aand, v 1, v 0, Imm 0xFFL);
        Hir.Strf (0, v 1);
        Hir.Exit 0;
      |]
  in
  Alcotest.(check int) "mask dropped" 1 ss.A.masks_dropped;
  Alcotest.(check bool) "mask became a move" true
    (Array.exists (( = ) (Hir.Mov (v 1, v 0))) out)

let test_simplify_reduces_division () =
  let out, ss =
    simplify
      [|
        Hir.Label 0;
        Hir.Divrem (false, false, v 0, Hir.Preg 0, Imm 8L);
        Hir.Strf (0, v 0);
        Hir.Divrem (false, true, v 1, Hir.Preg 1, Imm 8L);
        Hir.Strf (8, v 1);
        Hir.Exit 0;
      |]
  in
  Alcotest.(check int) "both reduced" 2 ss.A.divs_reduced;
  Alcotest.(check bool) "div became a shift" true
    (Array.exists (( = ) (Hir.Alu (Ashr, v 0, Hir.Preg 0, Hir.Imm 3L))) out);
  Alcotest.(check bool) "rem became a mask" true
    (Array.exists (( = ) (Hir.Alu (Aand, v 1, Hir.Preg 1, Hir.Imm 7L))) out);
  Alcotest.(check bool) "no division remains" false
    (Array.exists (function Hir.Divrem _ -> true | _ -> false) out)

let test_simplify_deletes_dead_keeps_wbmap () =
  let out, ss =
    simplify
      [|
        Hir.Label 0;
        Hir.Alu (Aadd, v 0, Hir.Preg 0, Imm 1L);
        (* dead: never used *)
        Hir.Mov (v 1, Imm 7L);
        (* named by the writeback map: must survive *)
        Hir.Strf (0, Hir.Preg 1);
        Hir.Wbmap [| (v 1, 8) |];
        Hir.Exit 0;
      |]
  in
  Alcotest.(check bool) "dead def deleted" true (ss.A.dead_deleted >= 1);
  Alcotest.(check bool) "dead def gone" false
    (Array.exists (( = ) (Hir.Alu (Aadd, v 0, Hir.Preg 0, Hir.Imm 1L))) out);
  Alcotest.(check bool) "wbmap-named def survives" true
    (Array.exists (( = ) (Hir.Mov (v 1, Hir.Imm 7L))) out);
  Alcotest.(check bool) "wbmap survives" true
    (Array.exists (function Hir.Wbmap _ -> true | _ -> false) out)

(* Simplification preserves concrete behaviour on random programs: run
   the original and the simplified stream from the same state, compare
   exit slot, PC, registers and register file. *)
let prop_simplify_preserves_execution =
  QCheck2.Test.make ~name:"simplify preserves concrete execution" ~count:500
    QCheck2.Gen.int64 (fun seed ->
      let prng = Prng.create (if seed = 0L then 1L else seed) in
      let prog = Test_symexec.gen_program prng in
      let out, _ = simplify prog in
      let pc0 = Int64.logand (Prng.int64 prng) 0xFFFF_FFFF_FFF0L in
      let preg0 = Array.init 16 (fun _ -> Prng.int64 prng) in
      let rf0 = Array.init Test_symexec.n_offs (fun _ -> Prng.int64 prng) in
      let run p =
        let ctx = Test_symexec.mk_ctx () in
        Exec.set_pc ctx pc0;
        Array.iteri (fun i x -> Exec.set_reg ctx i x) preg0;
        Array.iteri (fun i x -> Exec.rf_write ctx (8 * i) x) rf0;
        let slot = Exec.run ctx (Exec.compile (Test_symexec.indexify p)) in
        (slot, ctx)
      in
      let slot_a, ctx_a = run prog and slot_b, ctx_b = run out in
      if slot_a <> slot_b then
        failwith (Printf.sprintf "exit slot %d <> %d after simplify" slot_a slot_b);
      if Exec.get_pc ctx_a <> Exec.get_pc ctx_b then
        failwith (Printf.sprintf "pc %Ld <> %Ld after simplify" (Exec.get_pc ctx_a) (Exec.get_pc ctx_b));
      for g = 0 to Test_symexec.n_pregs - 1 do
        (* simplify only rewrites vreg destinations, so every preg must
           agree (dead vreg defs cannot change them) *)
        if Exec.get_reg ctx_a g <> Exec.get_reg ctx_b g then
          failwith (Printf.sprintf "r%d diverged after simplify" g)
      done;
      for i = 0 to Test_symexec.n_offs - 1 do
        if Exec.rf_read ctx_a (8 * i) <> Exec.rf_read ctx_b (8 * i) then
          failwith (Printf.sprintf "rf[%d] diverged after simplify" (8 * i))
      done;
      true)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "hostir-absint",
    [
      q prop_absint_contains_concrete;
      q prop_simplify_preserves_execution;
      Alcotest.test_case "oob register-file access rejected" `Quick test_ob_rf_oob;
      Alcotest.test_case "misaligned register-file access rejected" `Quick test_ob_rf_align;
      Alcotest.test_case "spill slot outside frame rejected" `Quick test_ob_frame_oob;
      Alcotest.test_case "dirty register across helper call rejected" `Quick test_ob_dirty_call;
      Alcotest.test_case "uncovered dirty exit rejected" `Quick test_ob_wb_coverage;
      Alcotest.test_case "malformed writeback map rejected" `Quick test_ob_wb_shape;
      Alcotest.test_case "Verify.check_wb delegates to Absint" `Quick test_verify_delegates;
      Alcotest.test_case "helper effects have one source of truth" `Quick
        test_effects_single_source;
      Alcotest.test_case "pure helper transparent to writeback discipline" `Quick
        test_pure_call_transparent;
      Alcotest.test_case "simplify folds decided branches" `Quick test_simplify_folds_branch;
      Alcotest.test_case "simplify folds constants" `Quick test_simplify_folds_consts;
      Alcotest.test_case "simplify drops redundant masks" `Quick test_simplify_drops_masks;
      Alcotest.test_case "simplify strength-reduces division" `Quick
        test_simplify_reduces_division;
      Alcotest.test_case "simplify deletes dead defs, keeps the writeback map" `Quick
        test_simplify_deletes_dead_keeps_wbmap;
    ] )
