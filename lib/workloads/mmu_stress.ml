(* MMU-stress workloads for `captive_run check` and `stress`: guest
   programs that deliberately exercise the paths the shadow-oracle
   sanitizer watches — demand paging across many pages, self-modifying
   code (invalidate + remap + TLB shoot-down), guest-visible faults,
   syscalls/ring transitions, and a guest TLB flush on every exception
   return.

   Both programs terminate with a deterministic exit code so check can
   assert end-to-end correctness on top of zero sanitizer findings. *)

module A = Guest_arm.Arm_asm
module R = Guest_riscv.Rv_asm

(* Assemble one instruction in a scratch assembler and return its
   little-endian word — for building SMC patch values without
   hand-maintained encodings. *)
let arm_insn_word f =
  let a = A.create () in
  f a;
  Int64.logand (Int64.of_int32 (Bytes.get_int32_le (A.assemble a) 0)) 0xFFFF_FFFFL

let rv_insn_word f =
  let a = R.create () in
  f a;
  Int64.logand (Int64.of_int32 (Bytes.get_int32_le (R.assemble a) 0)) 0xFFFF_FFFFL

(* --- ARM: EL0 stress program under the Kernel mini-OS ---------------- *)

(* Exit code: 10 * smc_sum + fault_count = 10*3 + 1 = 31. *)
let arm_expected_exit = 31

let arm_user () : bytes =
  Uprog.make (fun p ->
      let a = p.Uprog.asm in
      A.b a "main";
      (* Patchable subroutine: returns 1, patched below to return 2. *)
      A.label a "snippet";
      A.movz a A.x0 1;
      A.ret a;
      A.label a "main";
      A.bl a "snippet";
      A.mov_reg a A.x19 A.x0 (* x19 = 1 *);
      (* Read the code page first so a read-only translation of it is
         resident in the host TLB, then patch the snippet: the write
         faults (W^X), invalidates the page's translations, remaps the
         page writable, and must shoot down the stale read-only TLB
         entry before the retry. *)
      A.adr a A.x21 "snippet";
      A.ldr a A.x1 A.x21;
      A.mov_const a A.x22 (arm_insn_word (fun b -> A.movz b A.x0 2));
      A.str32 a A.x22 A.x21;
      A.bl a "snippet";
      A.add_reg a A.x19 A.x19 A.x0 (* x19 = 1 + 2 = 3 *);
      (* Demand paging: PRNG-fill 16 fresh pages of the user block. *)
      A.mov_const a A.x20 Uprog.data_va;
      Uprog.fill_random ~tag:"mmu" p ~base:A.x20 ~len:(16 * 4096);
      (* One guest-visible translation fault, counted and skipped by the
         kernel's data-abort handler. *)
      A.mov_const a A.x1 0x0070_0000L;
      A.ldr a A.x2 A.x1;
      (* Syscalls: uart output, a yield (WFI), then the fault count. *)
      Uprog.putchar p 'm';
      Uprog.putchar p 'm';
      Uprog.putchar p 'u';
      A.movz a A.x8 5;
      A.svc a 0 (* yield *);
      A.movz a A.x8 4;
      A.svc a 0 (* x0 = fault count = 1 *);
      A.movz a A.x9 10;
      A.madd a A.x0 A.x19 A.x9 A.x0 (* x0 = 10*3 + 1 *))

(* --- RISC-V: bare-metal user-level stress image ---------------------- *)

let riscv_entry = 0x1000L

(* Exit code: 4 * smc_sum + first_touch + last_touch - 16
   = 4*3 + 16 + 1 - 16 = 13. *)
let riscv_expected_exit = 13

let riscv_image () : bytes =
  let a = R.create ~base:riscv_entry () in
  R.j a "main";
  (* Patchable subroutine at riscv_entry + 4: returns 1 -> patched to 2. *)
  R.label a "sub";
  R.addi a R.a0 R.zero 1;
  R.i_type ~imm:0 ~rs1:R.ra ~funct3:0 ~rd:0 ~opcode:0b1100111 a (* ret *);
  R.label a "main";
  R.jal a R.ra "sub";
  R.add a R.s3 R.zero R.a0 (* s3 = 1 *);
  (* Read the code page (fills a read-only host TLB entry), then patch
     the subroutine's first instruction in place. *)
  R.li a R.s4 (Int64.add riscv_entry 4L);
  R.lw a R.t0 R.s4 0;
  R.li a R.t1 (rv_insn_word (fun b -> R.addi b R.a0 R.zero 2));
  R.s_type ~imm:0 ~rs2:R.t1 ~rs1:R.s4 ~funct3:2 ~opcode:0b0100011 a (* sw *);
  R.jal a R.ra "sub";
  R.add a R.s3 R.s3 R.a0 (* s3 = 3 *);
  (* Touch 16 fresh pages (descending counter stored to each). *)
  R.li a R.s2 0x100000L;
  R.li a R.a1 4096L;
  R.li a R.t2 16L;
  R.label a "touch";
  R.sd a R.t2 R.s2 0;
  R.add a R.s2 R.s2 R.a1;
  R.addi a R.t2 R.t2 (-1);
  R.bne a R.t2 R.zero "touch";
  (* Read back the first and last touched pages. *)
  R.li a R.s2 0x100000L;
  R.ld a R.t0 R.s2 0 (* = 16 *);
  R.li a R.a1 (Int64.of_int (0x100000 + (15 * 4096)));
  R.ld a R.t1 R.a1 0 (* = 1 *);
  (* a0 = 4*s3 + t0 + t1 - 16 = 13; exit(a0). *)
  R.slli a R.a2 R.s3 2;
  R.add a R.a0 R.a2 R.t0;
  R.add a R.a0 R.a0 R.t1;
  R.addi a R.a0 R.a0 (-16);
  R.li a R.a7 93L;
  R.ecall a;
  R.assemble a
