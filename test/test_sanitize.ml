(* MMU sanitizer tests.

   Negative fixtures: each deliberately corrupts one invariant the
   shadow oracle watches — a corrupt PTE, a stale TLB entry, a skipped
   invalidate_page, a double-mapped table frame, a ring violation — and
   must be caught by exactly the intended checker.

   Engine-level tests: the MMU-stress workloads run end-to-end under
   [config.check] (the sanitizer and the translate-time checkers) with
   zero sanitizer findings; a self-modifying-code sequence that
   leaves a stale read-only TLB entry regresses the handle_fault
   shoot-down; and the sanitizer is observation-free (identical cycle
   counts with [check] on and off). *)

module Mem = Hvm.Mem
module Pt = Hvm.Pagetable
module Tlb = Hvm.Tlb
module Machine = Hvm.Machine
module San = Hvm.Sanitize
module A = Guest_arm.Arm_asm
module MS = Workloads.Mmu_stress
module W = Workloads.Registry
module CE = Captive.Engine

(* --- unit fixtures ----------------------------------------------------- *)

let mk () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) () in
  let root = Hvm.Palloc.alloc m.Machine.palloc in
  let s = San.create () in
  (m, root, s)

let map_both m root s ~asid va pa flags =
  Pt.map m.Machine.mem m.Machine.palloc ~root va pa flags;
  San.record_map s ~asid ~va_page:va ~pa_page:pa ~flags

let check1 m root s = San.check s ~machine:m ~roots:[| root |] ~code_keys:None ~reason:"test"

let checkers_of s =
  List.sort_uniq compare (List.map (fun f -> f.San.checker) (San.findings s))

let rw = { Pt.writable = true; user = true; executable = false }
let ro = { Pt.writable = false; user = true; executable = false }

let test_clean_baseline () =
  let m, root, s = mk () in
  map_both m root s ~asid:0 0x5000L 0x6000L rw;
  map_both m root s ~asid:0 0x9000L 0xA000L ro;
  map_both m root s ~asid:0 0x0000_8000_0000_0000L 0xB000L rw;
  Tlb.insert m.Machine.tlb ~pcid:0 ~vpn:5L ~frame:0x6000L ~flags:rw ~global:false;
  check1 m root s;
  Alcotest.(check bool) "no findings on consistent state" true (San.ok s);
  Alcotest.(check bool) "work was done" true
    (Dbt_util.Stats.Counters.get (San.counters s) "pt leaves checked" >= 3)

(* (A) a corrupted PTE — wrong frame, escalated permissions — is a pt
   finding and nothing else. *)
let test_negative_corrupt_pte () =
  let m, root, s = mk () in
  map_both m root s ~asid:0 0x5000L 0x6000L ro;
  check1 m root s;
  Alcotest.(check bool) "clean before corruption" true (San.ok s);
  (match fst (Pt.walk m.Machine.mem ~root 0x5000L) with
  | Some (pte_addr, _) ->
    Mem.write64 m.Machine.mem pte_addr
      (Int64.logor 0x7000L (Pt.flags_to_bits { Pt.writable = true; user = true; executable = true }))
  | None -> Alcotest.fail "mapping lost");
  check1 m root s;
  Alcotest.(check bool) "caught" false (San.ok s);
  Alcotest.(check bool) "exactly the pt checker" true (checkers_of s = [ San.Pt_shadow ])

(* (B) a TLB entry left behind by an unmap (no shoot-down) is a tlb
   finding and nothing else. *)
let test_negative_stale_tlb () =
  let m, root, s = mk () in
  map_both m root s ~asid:0 0x5000L 0x6000L rw;
  Tlb.insert m.Machine.tlb ~pcid:0 ~vpn:5L ~frame:0x6000L ~flags:rw ~global:false;
  check1 m root s;
  Alcotest.(check bool) "derivable entry is fine" true (San.ok s);
  Pt.unmap m.Machine.mem ~root 0x5000L;
  San.record_unmap s ~asid:0 ~va_page:0x5000L;
  (* the forgotten Tlb.flush_page is the bug under test *)
  check1 m root s;
  Alcotest.(check bool) "caught" false (San.ok s);
  Alcotest.(check bool) "exactly the tlb checker" true (checkers_of s = [ San.Tlb_shadow ])

(* (C) a write to a translated page without invalidate_page (the digest
   no longer matches) is a code-cache finding and nothing else. *)
let test_negative_missed_invalidation () =
  let m, root, s = mk () in
  Mem.write64 m.Machine.mem 0x6000L 0xDEADBEEF00L;
  Mem.write64 m.Machine.mem 0x6008L 0x1234L;
  San.record_protect_page s ~pa_page:0x6000L;
  San.record_translation s ~mem:m.Machine.mem ~pa:0x6000L ~el:1 ~mmu:false ~len:16;
  check1 m root s;
  Alcotest.(check bool) "clean while bytes unchanged" true (San.ok s);
  Mem.write8 m.Machine.mem 0x6004L 0xAAL;
  check1 m root s;
  Alcotest.(check bool) "caught" false (San.ok s);
  Alcotest.(check bool) "exactly the code checker" true (checkers_of s = [ San.Code_cache ])

(* (D) a table frame reachable through two PML4 slots is a frames finding
   and nothing else. *)
let test_negative_double_mapped_frame () =
  let m, root, s = mk () in
  map_both m root s ~asid:0 0x40_0000L 0x1000L rw;
  Pt.unmap m.Machine.mem ~root 0x40_0000L;
  San.record_unmap s ~asid:0 ~va_page:0x40_0000L;
  check1 m root s;
  Alcotest.(check bool) "clean after unmap" true (San.ok s);
  (* alias PML4 slot 5 to slot 0's L2 table *)
  let l2 = Pt.frame_of (Mem.read64 m.Machine.mem root) in
  Mem.write64 m.Machine.mem (Int64.add root 40L)
    (Int64.logor l2 (Int64.logor Pt.pte_present (Int64.logor Pt.pte_writable Pt.pte_user)));
  check1 m root s;
  Alcotest.(check bool) "caught" false (San.ok s);
  Alcotest.(check bool) "exactly the frames checker" true (checkers_of s = [ San.Frames ])

(* (E) user code on a kernel-only mapping, and an EL/ring mismatch, are
   ring findings and nothing else. *)
let test_negative_ring () =
  let m, root, s = mk () in
  m.Machine.paging <- true;
  map_both m root s ~asid:0 0x7000L 0x8000L { Pt.writable = false; user = false; executable = true };
  m.Machine.ring <- 3;
  San.audit_ring s ~machine:m ~roots:[| root |] ~asid:0 ~guest_el:0 ~pc:0x7010L;
  Alcotest.(check bool) "kernel-only mapping caught" false (San.ok s);
  m.Machine.ring <- 0;
  San.audit_ring s ~machine:m ~roots:[| root |] ~asid:0 ~guest_el:0 ~pc:0x7010L;
  Alcotest.(check bool) "exactly the ring checker" true (checkers_of s = [ San.Ring ]);
  Alcotest.(check int) "both violations distinct" 2
    (Dbt_util.Stats.Counters.get (San.counters s) "ring findings")

(* --- engine-level ------------------------------------------------------ *)

let sanitized_config = { CE.default_config with CE.check = true }

let sanitizer_of (e : CE.t) = Option.get (CE.sanitizer e)

(* Regression for the handle_fault TLB shoot-down: read a code page
   (leaving a read-only host-TLB entry), then patch an instruction on it.
   The SMC write faults, the page is invalidated and remapped writable —
   and without the flush_page after the remap the retry re-faults through
   the stale read-only entry forever. *)
let smc_stale_tlb_image () =
  let a = A.create ~base:0x80000L () in
  A.b a "main";
  A.label a "snippet";
  A.movz a A.x0 1;
  A.ret a;
  A.label a "main";
  A.adr a A.x21 "snippet";
  A.bl a "snippet";
  A.mov_reg a A.x19 A.x0;
  A.ldr a A.x1 A.x21 (* code-page read: read-only TLB entry *);
  A.mov_const a A.x22 (MS.arm_insn_word (fun b -> A.movz b A.x0 2));
  A.str32 a A.x22 A.x21 (* SMC write *);
  A.bl a "snippet";
  A.add_reg a A.x0 A.x19 A.x0 (* 1 + 2 *);
  A.mov_const a A.x25 0x0930_0000L;
  A.str a A.x0 A.x25 (* syscon poweroff with exit code *);
  A.label a "hang";
  A.b a "hang";
  A.assemble a

let run_arm_stress config = W.boot ~config (W.arm_mmu.W.w_program ())

let test_smc_stale_tlb_regression () =
  let image = smc_stale_tlb_image () in
  let e = CE.create ~config:sanitized_config (Guest_arm.Arm.ops ()) in
  CE.load_image e ~addr:0x80000L image;
  CE.set_entry e 0x80000L;
  let code = match CE.run ~max_cycles:100_000_000 e with CE.Poweroff c -> c | _ -> -1 in
  Alcotest.(check int) "patched snippet returns 2 on the second call" 3 code;
  CE.sanitize_check e ~reason:"final";
  let s = sanitizer_of e in
  List.iter (fun f -> print_endline (San.string_of_finding f)) (San.findings s);
  Alcotest.(check bool) "no sanitizer findings" true (San.ok s)

let test_sanitized_arm_stress () =
  let e, code = run_arm_stress sanitized_config in
  Alcotest.(check int) "arm stress exit" MS.arm_expected_exit code;
  Alcotest.(check string) "uart output" "mmu" (CE.uart_output e);
  CE.sanitize_check e ~reason:"final";
  let s = sanitizer_of e in
  List.iter (fun f -> print_endline (San.string_of_finding f)) (San.findings s);
  Alcotest.(check bool) "no sanitizer findings" true (San.ok s);
  Alcotest.(check bool) "checkpoints happened" true
    (Dbt_util.Stats.Counters.get (San.counters s) "checkpoints" > 5)

let test_sanitized_riscv_stress () =
  let e, code = W.boot ~config:sanitized_config `Riscv_mmu in
  Alcotest.(check int) "riscv stress exit" MS.riscv_expected_exit code;
  CE.sanitize_check e ~reason:"final";
  let s = sanitizer_of e in
  List.iter (fun f -> print_endline (San.string_of_finding f)) (San.findings s);
  Alcotest.(check bool) "no sanitizer findings" true (San.ok s)

(* The sanitizer must be observation-free: identical cycle counts and
   exit codes with [check] on and off (it charges no cycles and never
   goes through the counted TLB/memory paths, and the translate-time
   checkers only read the translations). *)
let test_sanitizer_observation_free () =
  let _, code_on = run_arm_stress sanitized_config
  and e_on, _ = run_arm_stress sanitized_config in
  let e_off, code_off = run_arm_stress CE.default_config in
  Alcotest.(check int) "same exit code" code_off code_on;
  Alcotest.(check int) "same cycle count" (CE.cycles e_off) (CE.cycles e_on)

let suite =
  ( "sanitize",
    [
      Alcotest.test_case "clean baseline" `Quick test_clean_baseline;
      Alcotest.test_case "negative: corrupt PTE" `Quick test_negative_corrupt_pte;
      Alcotest.test_case "negative: stale TLB entry" `Quick test_negative_stale_tlb;
      Alcotest.test_case "negative: missed invalidation" `Quick test_negative_missed_invalidation;
      Alcotest.test_case "negative: double-mapped frame" `Quick test_negative_double_mapped_frame;
      Alcotest.test_case "negative: ring violations" `Quick test_negative_ring;
      Alcotest.test_case "SMC stale-TLB regression" `Slow test_smc_stale_tlb_regression;
      Alcotest.test_case "sanitized ARM OS stress" `Slow test_sanitized_arm_stress;
      Alcotest.test_case "sanitized RISC-V stress" `Slow test_sanitized_riscv_stress;
      Alcotest.test_case "sanitizer is observation-free" `Slow test_sanitizer_observation_free;
    ] )
