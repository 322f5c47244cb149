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
   semantic anchors, and the absint-simplify rewrites, including the
   closing jump threading and copy retargeting, are exercised one by
   one. *)

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
  ;
  (* the one writeback-barrier test *)
  List.iter
    (fun (k, b) -> Alcotest.(check bool) (Ef.kind_to_string k ^ " is a barrier") b (Ef.barrier k))
    [
      (Ef.C_pure, false);
      (Ef.C_as_switch, false);
      (Ef.C_read, true);
      (Ef.C_event, true);
      (Ef.C_clobber, true);
    ]

(* A pure helper is transparent to the writeback discipline: a dirty
   promoted register may stay live across it (flushed before the exit),
   which the default everything-clobbers classification rejects. *)
let transparent_call_stream h =
  [|
    Hir.Label 0;
    Hir.Ldrf (v 0, 8);
    Hir.Alu (Aadd, v 0, v 0, Imm 1L);
    Hir.Call (h, [| Hir.Preg 0 |], Some (v 5));
    Hir.Strf (8, v 0);
    Hir.Exit 0;
  |]

let check_transparent h =
  let stream = transparent_call_stream h in
  let promoted = [ (0, 8) ] in
  Alcotest.(check int) "accepted with effect classification" 0
    (List.length (A.check_wb ~classify:Ef.classify ~promoted stream));
  Alcotest.(check bool) "rejected when every helper clobbers" true
    (A.check_wb ~promoted stream <> [])

let test_pure_call_transparent () = check_transparent Ef.first_softfloat

(* So is the address-space switch: it reloads the page-table root and
   the AS tag, and neither reads the register file nor escapes. *)
let test_as_switch_transparent () = check_transparent Ef.h_as_switch

(* --- the absint-simplify pass ---------------------------------------------------- *)

module Pl = Hostir.Pipeline

(* The pipeline's absint-simplify stage: the stream and the stage's
   counts. *)
let simplify p =
  let st = Pl.run Pl.Simplify { Pl.default_env with Pl.classify = Ef.classify } (Pl.start p) in
  (st.Pl.instrs, st.Pl.counts)

let n counts name = Option.value (List.assoc_opt name counts) ~default:0

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
  Alcotest.(check int) "branch folded" 1 (n ss "absint_branches_folded");
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
  Alcotest.(check int) "const folded" 1 (n ss "absint_consts_folded");
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
        (* a second use of v0, so the copy is not retargeted away *)
        Hir.Strf (8, v 0);
        Hir.Exit 0;
      |]
  in
  Alcotest.(check int) "mask dropped" 1 (n ss "absint_masks_dropped");
  (* The mask became a move, which copy propagation then forwards into
     the store. *)
  Alcotest.(check bool) "no mask left" false
    (Array.exists (function Hir.Alu (Aand, _, _, _) -> true | _ -> false) out);
  Alcotest.(check bool) "the store reads the unmasked value" true
    (Array.exists (( = ) (Hir.Strf (0, v 0))) out)

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
  Alcotest.(check bool) "dead def deleted" true (n ss "absint_dead_deleted" >= 1);
  Alcotest.(check bool) "dead def gone" false
    (Array.exists (( = ) (Hir.Alu (Aadd, v 0, Hir.Preg 0, Hir.Imm 1L))) out);
  Alcotest.(check bool) "wbmap-named def survives" true
    (Array.exists (( = ) (Hir.Mov (v 1, Hir.Imm 7L))) out);
  Alcotest.(check bool) "wbmap survives" true
    (Array.exists (function Hir.Wbmap _ -> true | _ -> false) out)

(* A dead chain across blocks — a [Load_pc] copied and offset on both
   branch arms, the shape the region pass leaves once it has made the
   arms' PC stores relative — goes in one sweep. *)
let test_simplify_deletes_dead_chain () =
  let out, ss =
    simplify
      [|
        Hir.Label 0;
        Hir.Load_pc (v 0);
        Hir.Mov (v 1, v 0);
        Hir.Br (Hir.Preg 0, 1, 2);
        Hir.Label 1;
        Hir.Alu (Aadd, v 2, v 1, Imm (-8L));
        Hir.Exit 1;
        Hir.Label 2;
        Hir.Alu (Aadd, v 3, v 1, Imm 4L);
        Hir.Exit 2;
      |]
  in
  Alcotest.(check int) "four dead defs deleted" 4 (n ss "absint_dead_deleted");
  Alcotest.(check bool) "Load_pc gone" false
    (Array.exists (function Hir.Load_pc _ -> true | _ -> false) out)

(* The promoter's barrier pattern around two register-file reads
   (helpers classified [C_read]): a dirty promoted register is flushed
   before the first call and reloaded after each.  The slot then holds a
   known constant, so simplify folds both reloads into constant moves;
   the writeback discipline must accept the folded stream as it did the
   original (a constant move equal to the slot is a reload, not a dirty
   redefinition). *)
let test_folded_reload_keeps_discipline () =
  let stream =
    [|
      Hir.Label 0;
      Hir.Mov (v 0, Hir.Imm 5L);
      Hir.Strf (8, v 0);
      Hir.Call (Ef.h_coproc_read, [||], Some (v 5));
      Hir.Ldrf (v 0, 8);
      Hir.Call (Ef.h_coproc_read, [||], Some (v 6));
      Hir.Ldrf (v 0, 8);
      Hir.Exit 0;
      Hir.Label 1;
      Hir.Wbmap [| (v 0, 8) |];
    |]
  in
  let promoted = [ (0, 8) ] in
  let findings p = List.map A.finding_to_string (A.check_wb ~classify:Ef.classify ~promoted p) in
  Alcotest.(check (list string)) "original stream" [] (findings stream);
  let out, ss = simplify stream in
  Alcotest.(check int) "both reloads folded" 2 (n ss "absint_consts_folded");
  Alcotest.(check (list string)) "simplified stream" [] (findings out)

(* --- region stream rewrites ------------------------------------------------------- *)

module Region = Hostir.Region

let test_prune_keeps_wbmap () =
  let out =
    Region.prune_unreachable
      [|
        Hir.Label 0;
        Hir.Strf (0, v 0);
        Hir.Exit 0;
        (* unreachable tail: no jump names label 1 *)
        Hir.Label 1;
        Hir.Strf (8, v 1);
        Hir.Exit 1;
        Hir.Wbmap [| (v 0, 0) |];
      |]
  in
  Alcotest.(check bool) "tail pruned" false
    (Array.exists (function Hir.Label 1 | Hir.Exit 1 -> true | _ -> false) out);
  Alcotest.(check bool) "wbmap kept, last" true
    (out.(Array.length out - 1) = Hir.Wbmap [| (v 0, 0) |])

let jumps p = List.filter (function Hir.Jmp _ | Hir.Br _ -> true | _ -> false) (Array.to_list p)

let test_thread_jmp_chain () =
  let out =
    Region.thread_jumps
      [|
        Hir.Label 0;
        Hir.Poll 0;
        Hir.Label 4;
        Hir.Alu (Aadd, Hir.Preg 0, Hir.Preg 0, Imm 1L);
        Hir.Strf (0, Hir.Preg 0);
        Hir.Jmp 1;
        Hir.Label 1;
        Hir.Jmp 2;
        Hir.Label 2;
        Hir.Jmp 3;
        Hir.Label 3;
        Hir.Jmp 4;
      |]
  in
  Alcotest.(check bool) "one jump, to the final label" true (jumps out = [ Hir.Jmp 4 ]);
  Alcotest.(check bool) "chain chunks pruned" false
    (Array.exists (function Hir.Label (1 | 2 | 3) -> true | _ -> false) out)

let test_thread_deletes_fallthrough_jmp () =
  let out =
    Region.thread_jumps
      [|
        Hir.Label 0;
        Hir.Br (Hir.Preg 0, 3, 1);
        Hir.Label 3;
        Hir.Strf (0, Imm 3L);
        Hir.Jmp 2;
        (* only labels between the jump and its target *)
        Hir.Label 1;
        Hir.Label 2;
        Hir.Strf (8, Hir.Preg 1);
        Hir.Exit 0;
      |]
  in
  Alcotest.(check bool) "jump deleted, branch kept" true (jumps out = [ Hir.Br (Hir.Preg 0, 3, 1) ])

let test_thread_br_arms () =
  let out =
    Region.thread_jumps
      [|
        Hir.Label 0;
        Hir.Br (Hir.Preg 0, 1, 2);
        Hir.Label 1;
        Hir.Jmp 3;
        Hir.Label 2;
        Hir.Jmp 4;
        Hir.Label 3;
        Hir.Strf (0, Imm 3L);
        Hir.Exit 3;
        Hir.Label 4;
        Hir.Strf (0, Imm 4L);
        Hir.Exit 4;
      |]
  in
  Alcotest.(check bool) "both arms threaded" true (jumps out = [ Hir.Br (Hir.Preg 0, 3, 4) ])

let test_thread_self_loop () =
  let out = Region.thread_jumps [| Hir.Label 0; Hir.Jmp 1; Hir.Label 1; Hir.Jmp 1 |] in
  Alcotest.(check bool) "self-loop kept" true
    (out = [| Hir.Label 0; Hir.Label 1; Hir.Jmp 1 |])

let test_retarget_copy () =
  let stream tail =
    Array.concat
      [
        [| Hir.Label 0; Hir.Alu (Aadd, v 1, v 0, Imm 1L); Hir.Mov (v 0, v 1); Hir.Strf (0, v 0) |];
        tail;
        [| Hir.Exit 0 |];
      ]
  in
  Alcotest.(check bool) "retargeted" true
    (Region.retarget_copies (stream [||])
    = [| Hir.Label 0; Hir.Alu (Aadd, v 0, v 0, Imm 1L); Hir.Strf (0, v 0); Hir.Exit 0 |]);
  List.iter
    (fun (what, p) -> Alcotest.(check bool) what true (Region.retarget_copies p = p))
    [
      ("second use kept", stream [| Hir.Strf (8, v 1) |]);
      ("wbmap-named kept", stream [| Hir.Wbmap [| (v 1, 8) |] |]);
      ( "non-adjacent kept",
        [|
          Hir.Label 0;
          Hir.Alu (Aadd, v 1, v 0, Imm 1L);
          Hir.Strf (8, Hir.Preg 0);
          Hir.Mov (v 0, v 1);
          Hir.Strf (0, v 0);
          Hir.Exit 0;
        |] );
    ]

(* A pending PC increment crosses a branch into both arms when the
   branch alone reaches them, and a jump into a later block only it
   reaches; it is written before a join, a jump back to the region entry
   and a jump to an earlier block, which the in-order sweep has already
   emitted. *)
let test_coalesce_sinks_inc_pc () =
  Alcotest.(check bool) "sunk into both arms" true
    (Region.coalesce_inc_pc
       [|
         Hir.Label 0;
         Hir.Inc_pc 8;
         Hir.Br (Hir.Preg 0, 1, 2);
         Hir.Label 1;
         Hir.Inc_pc (-16);
         Hir.Jmp 0;
         Hir.Label 2;
         Hir.Inc_pc 4;
         Hir.Jmp 3;
         Hir.Label 3;
         Hir.Inc_pc 4;
         Hir.Exit 1;
       |]
    = [|
        Hir.Label 0;
        Hir.Br (Hir.Preg 0, 1, 2);
        Hir.Label 1;
        Hir.Inc_pc (-8);
        Hir.Jmp 0;
        Hir.Label 2;
        Hir.Jmp 3;
        Hir.Label 3;
        Hir.Inc_pc 16;
        Hir.Exit 1;
      |]);
  List.iter
    (fun (what, p) -> Alcotest.(check bool) what true (Region.coalesce_inc_pc p = p))
    [
      ( "arm is a join",
        [|
          Hir.Label 0;
          Hir.Inc_pc 8;
          Hir.Br (Hir.Preg 0, 1, 2);
          Hir.Label 1;
          Hir.Exit 2;
          Hir.Label 2;
          Hir.Inc_pc 4;
          Hir.Jmp 1;
        |] );
      ( "jump to an earlier block",
        [|
          Hir.Label 0;
          Hir.Jmp 2;
          Hir.Label 1;
          Hir.Inc_pc 4;
          Hir.Exit 1;
          Hir.Label 2;
          Hir.Inc_pc 8;
          Hir.Jmp 1;
        |] );
    ]

(* --- the region pass's guest-PC rewrites ------------------------------------------- *)

(* A one-member region at [head_va] (entry label 0) whose loop is closed
   by a conditional guest branch, as the Dag emits it: the body counts
   rf[0] down, the branch stores [Load_pc - 8] (taken, back to the
   head) or [Load_pc + 4], and the member's dispatch chunk (label 9)
   compares the PC against its one profiled successor, the head. *)
let head_va = 0x1000L

let cond_loop =
  [|
    Hir.Label 0;
    Hir.Ldrf (v 0, 0);
    Hir.Alu (Asub, v 1, v 0, Imm 1L);
    Hir.Strf (0, v 1);
    Hir.Inc_pc 8;
    Hir.Load_pc (v 2);
    Hir.Setcc (Cne, v 3, v 1, Imm 0L);
    Hir.Br (v 3, 1, 2);
    Hir.Label 1;
    Hir.Alu (Aadd, v 4, v 2, Imm (-8L));
    Hir.Store_pc (v 4);
    Hir.Jmp 9;
    Hir.Label 2;
    Hir.Alu (Aadd, v 5, v 2, Imm 4L);
    Hir.Store_pc (v 5);
    Hir.Label 9;
    Hir.Load_pc (v 6);
    Hir.Setcc (Ceq, v 7, v 6, Imm head_va);
    Hir.Br (v 7, 0, 10);
    Hir.Label 10;
    Hir.Exit 1;
  |]

(* The pipeline's shaping stage with one dispatch chunk (label 9, exit
   label 10): the stream and the stage's counts. *)
let region_optimize ?(targets = [ head_va ]) ?(members = [ (head_va, 0) ]) p =
  let env = { Pl.default_env with Pl.dispatch = [ (9, targets, 10) ]; member_entry = members } in
  let st = Pl.run Pl.Shape env (Pl.start p) in
  (st.Pl.instrs, st.Pl.counts)

let imms p =
  List.sort_uniq compare
    (List.concat_map
       (fun ins ->
         List.filter_map (function Hir.Imm k -> Some k | _ -> None) (Hir.sources ins))
       (Array.to_list p))

(* Run a region stream through the back end from [pc0] with rf[0] = 3;
   returns the exit slot, the final PC and rf[0]. *)
let run_region p ~pc0 =
  let ra = Hostir.Regalloc.run p in
  let program =
    Hostir.Encode.decode_program ~n_slots:ra.Hostir.Regalloc.n_slots (Hostir.Encode.encode ra)
  in
  let ctx = Test_symexec.mk_ctx () in
  Exec.set_pc ctx pc0;
  Exec.rf_write ctx 0 3L;
  let slot = Exec.run ctx (Exec.compile program) in
  (slot, Exec.get_pc ctx, Exec.rf_read ctx 0)

let test_region_cond_loop () =
  let out, st = region_optimize cond_loop in
  (* Downstream, absint-simplify deletes the now-dead PC arithmetic and
     the [Load_pc] that fed it, and sinks the body's PC increment into
     the branch arms, where it cancels on the back edge: the loop is the
     guest's own work and one branch on the counter back to the head. *)
  let simplified, _ = simplify out in
  Alcotest.(check (list string)) "the loop has no PC work"
    (List.map Hir.to_string
       [
         Hir.Label 0;
         Hir.Ldrf (v 0, 0);
         Hir.Alu (Asub, v 1, v 0, Imm 1L);
         Hir.Strf (0, v 1);
         Hir.Br (v 1, 0, 2);
       ])
    (List.map Hir.to_string (Array.to_list (Array.sub simplified 0 5)));
  Alcotest.(check int) "no Load_pc left: the exit arm skips the dispatch compare" 0
    (Array.fold_left (fun k -> function Hir.Load_pc _ -> k + 1 | _ -> k) 0 simplified);
  Alcotest.(check int) "both branch-arm PC stores relativized" 2 (n st "region_pc_writes_relativized");
  Alcotest.(check int) "one dispatch edge straightened" 1 (n st "region_dispatch_straightened");
  Alcotest.(check bool) "no PC store left" false
    (Array.exists (function Hir.Store_pc _ -> true | _ -> false) out);
  Alcotest.(check bool) "no new immediate" true
    (List.for_all (fun k -> List.mem k (imms cond_loop)) (imms out));
  (* Same result as the unoptimized stream at the formation VA, and the
     same result shifted by the alias distance under another VA mapping
     of the page: nothing absolute was introduced. *)
  let alias = 0x7_0000L in
  let at_va = run_region out ~pc0:head_va in
  Alcotest.(check (triple int int64 int64)) "optimized = unoptimized" (run_region cond_loop ~pc0:head_va)
    at_va;
  Alcotest.(check (triple int int64 int64)) "loop exits at the fall-through" (1, 0x100cL, 0L) at_va;
  List.iter
    (fun (what, p) ->
      Alcotest.(check (triple int int64 int64)) (what ^ " under an alias")
        (1, Int64.add 0x100cL alias, 0L)
        (run_region p ~pc0:(Int64.add head_va alias)))
    [ ("optimized", out); ("simplified", simplified) ];
  Alcotest.(check (triple int int64 int64)) "simplified = optimized" at_va
    (run_region simplified ~pc0:head_va)

(* A helper call between the [Load_pc] and the [Store_pc]: one that may
   write the PC (an exception entry) blocks the relative rewrite; the
   address-space switch in front of user-mode accesses does not. *)
let test_region_call_blocks_rewrite () =
  let stream h =
    [|
      Hir.Label 0;
      Hir.Inc_pc 4;
      Hir.Load_pc (v 1);
      Hir.Call (h, [||], None);
      Hir.Alu (Aadd, v 2, v 1, Imm (-4L));
      Hir.Store_pc (v 2);
      Hir.Jmp 9;
      Hir.Label 9;
      Hir.Load_pc (v 6);
      Hir.Setcc (Ceq, v 7, v 6, Imm head_va);
      Hir.Br (v 7, 0, 10);
      Hir.Label 10;
      Hir.Exit 1;
    |]
  in
  let stores p = Array.exists (function Hir.Store_pc _ -> true | _ -> false) p in
  let out, st = region_optimize (stream Ef.h_take_exception) in
  Alcotest.(check bool) "clobber: PC store kept" true (stores out);
  Alcotest.(check int) "clobber: nothing relativized" 0 (n st "region_pc_writes_relativized");
  let out, st = region_optimize (stream Ef.h_as_switch) in
  Alcotest.(check bool) "as-switch: PC store gone" false (stores out);
  Alcotest.(check int) "as-switch: relativized" 1 (n st "region_pc_writes_relativized");
  Alcotest.(check int) "as-switch: straightened" 1 (n st "region_dispatch_straightened")

(* A known PC that is a member VA but not one of the dispatch chunk's
   compare targets does not enter that member: the chunk would exit to
   the engine there, and the validator's reference does.  The edge goes
   straight to the chunk's own exit instead. *)
let test_region_other_member_not_redirected () =
  let stream =
    [|
      Hir.Label 0;
      Hir.Inc_pc 16;
      Hir.Jmp 9;
      Hir.Label 9;
      Hir.Load_pc (v 6);
      Hir.Setcc (Ceq, v 7, v 6, Imm head_va);
      Hir.Br (v 7, 0, 10);
      Hir.Label 10;
      Hir.Exit 1;
      Hir.Label 5;
      Hir.Exit 2;
    |]
  in
  let members = [ (head_va, 0); (0x1010L, 5) ] in
  let out, st = region_optimize ~members stream in
  Alcotest.(check int) "not straightened" 0 (n st "region_dispatch_straightened");
  Alcotest.(check bool) "no jump to the other member" false
    (Array.exists (function Hir.Jmp 5 | Hir.Br (_, 5, _) | Hir.Br (_, _, 5) -> true | _ -> false) out);
  Alcotest.(check (list string)) "straight to the chunk's exit"
    (List.map Hir.to_string [ Hir.Label 0; Hir.Label 10; Hir.Inc_pc 16; Hir.Exit 1 ])
    (List.map Hir.to_string (Array.to_list (Array.sub out 0 4)));
  Alcotest.(check bool) "dispatch compare skipped" false
    (Array.exists (function Hir.Setcc (Ceq, _, _, Imm 0x1000L) -> true | _ -> false) out);
  let _, st = region_optimize ~members ~targets:[ head_va; 0x1010L ] stream in
  Alcotest.(check int) "a target of the chunk is straightened" 1 (n st "region_dispatch_straightened")

(* Run [prog] and its simplified [out] from the same random state and
   fail on any difference in exit slot, PC, the generator's host
   registers or the register file.  Vregs (temporaries only) run in the
   host registers above the generator's: the executor has no vregs. *)
let check_same_execution prng prog out =
  let pc0 = Int64.logand (Prng.int64 prng) 0xFFFF_FFFF_FFF0L in
  let preg0 = Array.init 16 (fun _ -> Prng.int64 prng) in
  let rf0 = Array.init Test_symexec.n_offs (fun _ -> Prng.int64 prng) in
  let in_pregs = function
    | Hir.Vreg k -> Hir.Preg (Test_symexec.n_pregs + (k mod (16 - Test_symexec.n_pregs)))
    | o -> o
  in
  let run p =
    let ctx = Test_symexec.mk_ctx () in
    Exec.set_pc ctx pc0;
    Array.iteri (fun i x -> Exec.set_reg ctx i x) preg0;
    Array.iteri (fun i x -> Exec.rf_write ctx (8 * i) x) rf0;
    let p = Array.map (Hir.map_operands in_pregs) p in
    let slot = Exec.run ctx (Exec.compile (Test_symexec.indexify p)) in
    (slot, ctx)
  in
  let slot_a, ctx_a = run prog and slot_b, ctx_b = run out in
  if slot_a <> slot_b then
    failwith (Printf.sprintf "exit slot %d <> %d after simplify" slot_a slot_b);
  if Exec.get_pc ctx_a <> Exec.get_pc ctx_b then
    failwith (Printf.sprintf "pc %Ld <> %Ld after simplify" (Exec.get_pc ctx_a) (Exec.get_pc ctx_b));
  for g = 0 to Test_symexec.n_pregs - 1 do
    (* simplify only rewrites vreg destinations and retargets copies
       into registers that were written anyway, so every generator
       register must agree *)
    if Exec.get_reg ctx_a g <> Exec.get_reg ctx_b g then
      failwith (Printf.sprintf "r%d diverged after simplify" g)
  done;
  for i = 0 to Test_symexec.n_offs - 1 do
    if Exec.rf_read ctx_a (8 * i) <> Exec.rf_read ctx_b (8 * i) then
      failwith (Printf.sprintf "rf[%d] diverged after simplify" (8 * i))
  done

(* Simplification preserves concrete behaviour on random programs. *)
let prop_simplify_preserves_execution =
  QCheck2.Test.make ~name:"simplify preserves concrete execution" ~count:500
    QCheck2.Gen.int64 (fun seed ->
      let prng = Prng.create (if seed = 0L then 1L else seed) in
      let prog = Test_symexec.gen_program prng in
      let out, _ = simplify prog in
      check_same_execution prng prog out;
      true)

(* Random programs with the shapes simplify's closing rewrites target:
   some jump and branch targets are reached through a chain of one to
   three label+jump trampolines, some block boundaries get an explicit
   jump to the next label, and some destinations become a vreg
   temporary copied into the real register, now and then with a second
   use.  Riding on those, vreg copies that cross labels (among vregs
   6-9, now and then redefined on one path), adds of an immediate split
   into a pair through a temporary, and branches on a zero test of a
   copy.
   Simplify must remove every single-use temporary, leave no jump aimed
   at a label+jump chunk or reached by falling through labels, and
   still compute the same result.  At most ten vregs appear, so each
   runs in its own host register in [check_same_execution]. *)
let gen_threadable prng =
  let prog = Test_symexec.gen_program prng in
  let next_label = ref 1000 and next_vreg = ref 0 and tramps = ref [] in
  let copies = List.init 4 (fun i -> Hir.Vreg (6 + i)) in
  let shared = ref copies in
  let rec tramp l k =
    if k = 0 then l
    else begin
      let t = !next_label in
      incr next_label;
      tramps := Hir.Label t :: Hir.Jmp l :: !tramps;
      tramp t (k - 1)
    end
  in
  let maybe_tramp l = if Prng.bool prng then tramp l (1 + Prng.int prng 3) else l in
  let retemp t = function
    | Hir.Mov (d, a) -> Some (Hir.Mov (t, a), d)
    | Hir.Alu (op, d, a, b) -> Some (Hir.Alu (op, t, a, b), d)
    | Hir.Setcc (c, d, a, b) -> Some (Hir.Setcc (c, t, a, b), d)
    | Hir.Ext (sg, w, d, a) -> Some (Hir.Ext (sg, w, t, a), d)
    | Hir.Neg (d, a) -> Some (Hir.Neg (t, a), d)
    | _ -> None
  in
  (* A fresh single-definition temporary, while vregs 0-5 last. *)
  let fresh () =
    if !next_vreg < 6 then begin
      incr next_vreg;
      Some (Hir.Vreg (!next_vreg - 1))
    end
    else None
  in
  let copy () = List.nth copies (Prng.int prng 4) in
  let out = ref [] in
  let emit i = out := i :: !out in
  let ride () =
    match Prng.int prng 8 with
    | 0 -> emit (Hir.Mov (copy (), copy ()))
    | 1 -> emit (Hir.Alu (Aadd, copy (), copy (), Imm (Int64.of_int (Prng.int prng 9 - 4))))
    | 2 -> emit (Hir.Strf (8 * Prng.int prng Test_symexec.n_offs, copy ()))
    | 3 -> (
      match fresh () with
      | Some t ->
        let k1 = Int64.of_int (Prng.int prng 9 - 4) and k2 = Int64.of_int (Prng.int prng 9 - 4) in
        emit (Hir.Alu (Aadd, t, Hir.Preg (Prng.int prng Test_symexec.n_pregs), Imm k1));
        emit (Hir.Alu (Aadd, Hir.Preg (Prng.int prng Test_symexec.n_pregs), t, Imm k2))
      | None -> ())
    | _ -> ()
  in
  Array.iteri
    (fun idx ins ->
      match ins with
      | Hir.Jmp l -> emit (Hir.Jmp (maybe_tramp l))
      | Hir.Br (c, t, f) -> (
        let t = maybe_tramp t and f = maybe_tramp f in
        match if Prng.int prng 3 = 0 then fresh () else None with
        | Some n ->
          (* a branch on a zero test of a copy; a duplicated branch
             may keep the test, so its temporary may survive *)
          shared := n :: !shared;
          emit (Hir.Setcc ((if Prng.bool prng then Ceq else Cne), n, copy (), Imm 0L));
          ride ();
          emit (Hir.Br (n, f, t))
        | None -> emit (Hir.Br (c, t, f)))
      | Hir.Label l ->
        if idx > 0 && Prng.int prng 3 = 0 then emit (Hir.Jmp l);
        emit ins;
        ride ()
      | _ -> (
        ride ();
        let t =
          if Prng.int prng 3 = 0 && retemp (Hir.Vreg 0) ins <> None then fresh () else None
        in
        match Option.bind t (fun t -> Option.map (fun r -> (t, r)) (retemp t ins)) with
        | Some (t, (ins', d)) ->
          emit ins';
          emit (Hir.Mov (d, t));
          (* now and then a second use, which must keep the copy *)
          if Prng.int prng 4 = 0 then begin
            shared := t :: !shared;
            emit (Hir.Strf (8 * Prng.int prng Test_symexec.n_offs, t))
          end
        | None -> emit ins))
    prog;
  (Array.of_list (List.rev !out @ !tramps), !shared)

let prop_rewrites_preserve_execution =
  QCheck2.Test.make ~name:"jump threading and copy retargeting preserve execution" ~count:500
    QCheck2.Gen.int64 (fun seed ->
      let prng = Prng.create (if seed = 0L then 1L else seed) in
      let prog, shared = gen_threadable prng in
      let out, _ = simplify prog in
      let single_use = function Hir.Vreg _ as t -> not (List.mem t shared) | _ -> false in
      if Array.exists (fun ins -> List.exists single_use (Hir.sources ins)) out then
        failwith "a single-use temporary survived simplify";
      let n = Array.length out in
      let label_at l =
        let rec go i = if out.(i) = Hir.Label l then i else go (i + 1) in
        go 0
      in
      let rec after_labels i =
        if i < n && (match out.(i) with Hir.Label _ -> true | _ -> false) then after_labels (i + 1)
        else i
      in
      let aimed_at_chunk l =
        let j = after_labels (label_at l) in
        j < n && match out.(j) with Hir.Jmp _ -> true | _ -> false
      in
      Array.iteri
        (fun i ins ->
          match ins with
          | Hir.Jmp l ->
            if aimed_at_chunk l then failwith "jump into a label+jump chunk";
            let j = after_labels (i + 1) in
            if label_at l > i && label_at l < j then failwith "jump to a fall-through label"
          | Hir.Br (_, t, f) ->
            if aimed_at_chunk t || aimed_at_chunk f then failwith "branch into a label+jump chunk"
          | _ -> ())
        out;
      check_same_execution prng prog out;
      true)

(* --- the simplify tail: copy propagation, branch inversion, add chains ------------ *)

let strs p = List.map Hir.to_string (Array.to_list p)
let has p ins = Array.exists (( = ) ins) p

(* Execute [prog] and its simplification from a few random states. *)
let same_execution prog out =
  let prng = Prng.create 7L in
  for _ = 1 to 8 do
    check_same_execution prng prog out
  done

(* A copy [v1 := v0] made before a branch whose arms rejoin at label 1,
   where [v1] is stored; [redefine] sits on the else arm only. *)
let copy_join redefine =
  Array.concat
    [
      [| Hir.Label 0; Hir.Ldrf (v 0, 0); Hir.Mov (v 1, v 0); Hir.Br (v 0, 1, 2) |];
      [| Hir.Label 2; Hir.Strf (16, Hir.Preg 0) |];
      redefine;
      [| Hir.Label 1; Hir.Strf (8, v 1); Hir.Strf (24, v 0); Hir.Exit 0 |];
    ]

let test_copy_prop_across_label () =
  let prog = copy_join [||] in
  let out, _ = simplify prog in
  Alcotest.(check bool) "the use past the join reads the source" true (has out (Hir.Strf (8, v 0)));
  Alcotest.(check bool) "the copy is gone" false (has out (Hir.Mov (v 1, v 0)));
  same_execution prog out

let test_copy_prop_killed_at_join () =
  List.iter
    (fun (what, redefine) ->
      let prog = copy_join redefine in
      let out, _ = simplify prog in
      Alcotest.(check bool) (what ^ ": the use keeps its copy") true (has out (Hir.Strf (8, v 1)));
      Alcotest.(check bool) (what ^ ": the copy stays") true (has out (Hir.Mov (v 1, v 0)));
      same_execution prog out)
    [
      ("source redefined", [| Hir.Alu (Aadd, v 0, v 0, Imm 1L) |]);
      ("copy redefined", [| Hir.Ldrf (v 1, 32) |]);
    ]

(* A promoted rf[16] ([v5], dirty: it is in the writeback map) copied
   from [v0] and flushed across the join before a clobber call: the
   flush and the writeback map keep naming [v5], and so does every other
   use of the pinned register. *)
let test_copy_prop_spares_pinned () =
  let prog =
    [|
      Hir.Ldrf (v 5, 16);
      Hir.Label 0;
      Hir.Ldrf (v 0, 0);
      Hir.Mov (v 5, v 0);
      Hir.Br (v 0, 1, 2);
      Hir.Label 2;
      Hir.Strf (24, Hir.Preg 0);
      Hir.Label 1;
      Hir.Alu (Aadd, v 6, v 5, Imm 1L);
      Hir.Strf (32, v 6);
      Hir.Strf (16, v 5);
      Hir.Call (Ef.h_coproc_write, [| v 5 |], None);
      Hir.Ldrf (v 5, 16);
      Hir.Strf (8, v 5);
      Hir.Exit 0;
      Hir.Label 3;
      Hir.Wbmap [| (v 5, 16) |];
    |]
  in
  let out, _ = simplify prog in
  Alcotest.(check bool) "flush reads the cache register" true (has out (Hir.Strf (16, v 5)));
  Alcotest.(check bool) "writeback map untouched" true (has out (Hir.Wbmap [| (v 5, 16) |]));
  Alcotest.(check bool) "the call still passes v5" true
    (has out (Hir.Call (Ef.h_coproc_write, [| v 5 |], None)));
  Alcotest.(check bool) "the add still reads v5" true
    (Array.exists (function Hir.Alu (Aadd, _, Hir.Vreg 5, Imm 1L) -> true | _ -> false) out);
  Alcotest.(check (list string)) "discipline holds" []
    (List.map A.finding_to_string (A.check_wb ~classify:Ef.classify ~promoted:[ (5, 16) ] out))

(* A copy of a clean promoted register ([v5], rf[16]) used after a
   barrier call whose reload of [v5] was dead and deleted: [v5] is stale
   there, so the use must keep reading the copy. *)
let test_copy_prop_stops_at_barrier () =
  let prog =
    [|
      Hir.Ldrf (v 5, 16);
      Hir.Label 0;
      Hir.Mov (v 1, v 5);
      Hir.Call (Ef.h_coproc_write, [| Hir.Preg 0 |], None);
      Hir.Strf (8, v 1);
      Hir.Exit 0;
      Hir.Label 1;
      Hir.Wbmap [||];
    |]
  in
  let out, _ = simplify prog in
  Alcotest.(check bool) "the use keeps its copy" true (has out (Hir.Strf (8, v 1)));
  Alcotest.(check (list string)) "no stale use" []
    (List.map A.finding_to_string (A.check_wb ~classify:Ef.classify ~promoted:[ (5, 16) ] out))

(* The negated-branch shape the Dag leaves at a guest conditional
   branch: the body jumps forward to a chunk that negates the
   condition into the branch register and jumps back to the branch.
   The jump to a lone branch takes the branch itself, copy propagation
   resolves the condition, and the negation becomes swapped arms.  A
   [setne] against zero becomes the branch with its arms kept. *)
let test_negated_branch_inverted () =
  let prog =
    [|
      Hir.Label 0;
      Hir.Poll 0;
      Hir.Ldrf (v 47, 0x310);
      Hir.Mov (v 55, v 47);
      Hir.Jmp 22;
      Hir.Label 21;
      Hir.Br (v 55, 23, 24);
      Hir.Label 22;
      Hir.Setcc (Ceq, v 74, v 55, Imm 0L);
      Hir.Mov (v 55, v 74);
      Hir.Inc_pc 12;
      Hir.Jmp 21;
      Hir.Label 23;
      Hir.Inc_pc (-48);
      Hir.Exit 2;
      Hir.Label 24;
      Hir.Inc_pc 4;
      Hir.Exit 1;
    |]
  in
  let out, _ = simplify prog in
  Alcotest.(check bool) "no jump left" false
    (Array.exists (function Hir.Jmp _ -> true | _ -> false) out);
  Alcotest.(check bool) "no negation left" false
    (Array.exists (function Hir.Setcc _ -> true | _ -> false) out);
  Alcotest.(check bool) "the branch reads the value with swapped arms" true
    (has out (Hir.Br (v 47, 24, 23)));
  same_execution prog out;
  (* the value redefined between the negation and the branch *)
  let prog =
    [|
      Hir.Label 0;
      Hir.Ldrf (v 1, 0);
      Hir.Setcc (Ceq, v 2, v 1, Imm 0L);
      Hir.Alu (Aadd, v 1, v 1, Imm 1L);
      Hir.Strf (8, v 1);
      Hir.Br (v 2, 1, 2);
      Hir.Label 1;
      Hir.Exit 1;
      Hir.Label 2;
      Hir.Exit 2;
    |]
  in
  let out, _ = simplify prog in
  Alcotest.(check bool) "negation kept when its operand changes" true
    (has out (Hir.Setcc (Ceq, v 2, v 1, Imm 0L)));
  same_execution prog out;
  let prog =
    [|
      Hir.Label 0;
      Hir.Ldrf (v 1, 0);
      Hir.Setcc (Cne, v 2, Imm 0L, v 1);
      Hir.Inc_pc 4;
      Hir.Br (v 2, 1, 2);
      Hir.Label 1;
      Hir.Exit 1;
      Hir.Label 2;
      Hir.Exit 2;
    |]
  in
  let out, _ = simplify prog in
  Alcotest.(check bool) "setne: the branch reads the value" true (has out (Hir.Br (v 1, 1, 2)));
  Alcotest.(check bool) "setne: the test is gone" false
    (Array.exists (function Hir.Setcc _ -> true | _ -> false) out);
  same_execution prog out

let test_add_chain_folded () =
  let sub1 =
    [|
      Hir.Label 0;
      Hir.Ldrf (v 0, 0);
      Hir.Alu (Aadd, v 1, v 0, Imm (-2L));
      Hir.Alu (Aadd, v 0, v 1, Imm 1L);
    |]
  in
  let tail = [| Hir.Strf (0, v 0); Hir.Exit 0 |] in
  Alcotest.(check (list string)) "sub #1 as one add"
    (strs
       [|
         Hir.Label 0;
         Hir.Ldrf (v 0, 0);
         Hir.Alu (Aadd, v 0, v 0, Imm (-1L));
         Hir.Strf (0, v 0);
         Hir.Exit 0;
       |])
    (strs (Region.retarget_copies (Array.append sub1 tail)));
  Alcotest.(check (list string)) "a chain folds in one sweep, its copy too"
    (strs
       [|
         Hir.Label 0;
         Hir.Ldrf (v 0, 0);
         Hir.Alu (Aadd, v 4, v 0, Imm 6L);
         Hir.Strf (0, v 4);
         Hir.Exit 0;
       |])
    (strs
       (Region.retarget_copies
          [|
            Hir.Label 0;
            Hir.Ldrf (v 0, 0);
            Hir.Alu (Aadd, v 1, v 0, Imm 1L);
            Hir.Alu (Aadd, v 2, Imm 2L, v 1);
            Hir.Alu (Aadd, v 3, v 2, Imm 3L);
            Hir.Mov (v 4, v 3);
            Hir.Strf (0, v 4);
            Hir.Exit 0;
          |]));
  Alcotest.(check (list string)) "a zero sum is a move"
    (strs [| Hir.Label 0; Hir.Ldrf (v 0, 0); Hir.Mov (v 2, v 0); Hir.Strf (0, v 2); Hir.Exit 0 |])
    (strs
       (Region.retarget_copies
          [|
            Hir.Label 0;
            Hir.Ldrf (v 0, 0);
            Hir.Alu (Aadd, v 1, v 0, Imm 5L);
            Hir.Alu (Aadd, v 2, v 1, Imm (-5L));
            Hir.Strf (0, v 2);
            Hir.Exit 0;
          |]));
  List.iter
    (fun (what, p) -> Alcotest.(check bool) what true (Region.retarget_copies p = p))
    [
      ("second use kept", Array.concat [ sub1; [| Hir.Strf (8, v 1) |]; tail ]);
      ( "non-adjacent kept",
        [|
          Hir.Label 0;
          Hir.Ldrf (v 0, 0);
          Hir.Alu (Aadd, v 1, v 0, Imm (-2L));
          Hir.Strf (8, Hir.Preg 0);
          Hir.Alu (Aadd, v 0, v 1, Imm 1L);
          Hir.Strf (0, v 0);
          Hir.Exit 0;
        |] );
    ]

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "hostir-absint",
    [
      q prop_absint_contains_concrete;
      q prop_simplify_preserves_execution;
      q prop_rewrites_preserve_execution;
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
      Alcotest.test_case "as-switch transparent to writeback discipline" `Quick
        test_as_switch_transparent;
      Alcotest.test_case "simplify folds decided branches" `Quick test_simplify_folds_branch;
      Alcotest.test_case "simplify folds constants" `Quick test_simplify_folds_consts;
      Alcotest.test_case "simplify drops redundant masks" `Quick test_simplify_drops_masks;
      Alcotest.test_case "simplify deletes dead defs, keeps the writeback map" `Quick
        test_simplify_deletes_dead_keeps_wbmap;
      Alcotest.test_case "simplify deletes a dead chain in one sweep" `Quick
        test_simplify_deletes_dead_chain;
      Alcotest.test_case "folded reloads keep the writeback discipline" `Quick
        test_folded_reload_keeps_discipline;
      Alcotest.test_case "prune keeps the writeback map" `Quick test_prune_keeps_wbmap;
      Alcotest.test_case "jump threaded through a chain" `Quick test_thread_jmp_chain;
      Alcotest.test_case "fall-through jump deleted" `Quick test_thread_deletes_fallthrough_jmp;
      Alcotest.test_case "branch threaded on both arms" `Quick test_thread_br_arms;
      Alcotest.test_case "self-loop threading terminates" `Quick test_thread_self_loop;
      Alcotest.test_case "single-use copy retargeted" `Quick test_retarget_copy;
      Alcotest.test_case "PC increment sunk across a branch" `Quick test_coalesce_sinks_inc_pc;
      Alcotest.test_case "copy propagates across a label" `Quick test_copy_prop_across_label;
      Alcotest.test_case "copy killed at a join that redefines a side" `Quick
        test_copy_prop_killed_at_join;
      Alcotest.test_case "copy propagation spares the writeback map and flushes" `Quick
        test_copy_prop_spares_pinned;
      Alcotest.test_case "copy of a promoted register stops at a barrier" `Quick
        test_copy_prop_stops_at_barrier;
      Alcotest.test_case "negated branch inverted, its jump pair gone" `Quick
        test_negated_branch_inverted;
      Alcotest.test_case "add chain folded" `Quick test_add_chain_folded;
      Alcotest.test_case "conditional-branch loop skips its dispatch" `Quick test_region_cond_loop;
      Alcotest.test_case "PC-writing call blocks the relative rewrite" `Quick
        test_region_call_blocks_rewrite;
      Alcotest.test_case "non-target member VA not redirected" `Quick
        test_region_other_member_not_redirected;
    ] )
