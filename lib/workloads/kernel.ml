(* A miniature AArch64 guest operating system.

   The paper boots full ARM Linux; this kernel is the laptop-scale
   substitute that exercises the same system-level machinery: stage-1
   paging with a split kernel/user address space, EL1/EL0 separation,
   syscalls via SVC, demand faults reflected back to the guest, and timer
   interrupts.

   Memory map (guest physical):
     0x0008_0000  kernel image (this module), entered at EL1, MMU off
     0x0008_2000  exception vector table (2 KiB aligned)
     0x0008_3000  kernel data (tick counter, fault counter)
     0x0009_0000  kernel stack top
     0x0001_0000  TTBR1 L1 table     (built by the kernel at boot)
     0x0001_1000  TTBR0 L1 table
     0x0001_2000  TTBR0 L2 table
     0x0200_0000  user program + data (loaded by the host "firmware")

   Virtual layout:
     kernel: KVA_BASE + phys      (TTBR1, one 1 GiB block, kernel-only)
     boot identity: VA 0..2MiB    (TTBR0 L2[0], kernel, for MMU turn-on)
     user:   0x0040_0000..0x0060_0000 -> PA 0x0200_0000 (2 MiB block,
             user RW+X)

   Syscall ABI (SVC #0): x8 = number
     0 exit(x0)       1 putchar(x0)     2 uptime() -> x0 (CNTVCT)
     3 ticks() -> x0  4 faults() -> x0  5 yield (wfi)
   Data aborts from EL0 increment a counter and skip the faulting
   instruction (this is what SimBench's Data-Fault measures). *)

module A = Guest_arm.Arm_asm

let kernel_pa = 0x80000L
let vector_off = 0x2000
let data_off = 0x3000
let kva_base = 0xFFFF_FF80_0000_0000L
let kva p = Int64.add kva_base p
let user_pa = 0x0200_0000L
let user_va = 0x0040_0000L
let user_stack_top = 0x005F_0000L
let kernel_stack_top = kva 0x90000L

let uart_base = 0x0910_0000L
let timer_base = 0x0920_0000L
let intc_base = 0x0900_0000L
let syscon_base = 0x0930_0000L

(* Page table descriptor bits *)
let af = Int64.shift_left 1L 10
let ap_user = Int64.shift_left 1L 6
let uxn = Int64.shift_left 1L 54
let pxn = Int64.shift_left 1L 53
let block = 0x1L
let table = 0x3L

let ( |+ ) = Int64.logor

(* Timer period in timer ticks (device decrements once per host cycle). *)
let timer_period = 2_000_000

let build ?(enable_timer = true) () : bytes =
  let a = A.create ~base:kernel_pa () in
  (* ------------------------------------------------ boot (EL1, MMU off) *)
  (* TTBR1 L1[0]: 1 GiB kernel block at PA 0 *)
  A.mov_const a A.x0 0x10000L;
  A.mov_const a A.x1 (0L |+ af |+ block |+ uxn);
  A.str a A.x1 A.x0;
  (* TTBR0 L1[0] -> L2 table *)
  A.mov_const a A.x0 0x11000L;
  A.mov_const a A.x1 (0x12000L |+ table);
  A.str a A.x1 A.x0;
  (* TTBR0 L2[0]: boot identity 2 MiB kernel block at PA 0 *)
  A.mov_const a A.x0 0x12000L;
  A.mov_const a A.x1 (0L |+ af |+ block |+ uxn);
  A.str a A.x1 A.x0;
  (* TTBR0 L2[2]: user 2 MiB block VA 0x400000 -> PA 0x2000000 *)
  A.mov_const a A.x1 (user_pa |+ af |+ block |+ ap_user |+ pxn);
  A.str ~off:16 a A.x1 A.x0;
  (* install roots and vector base *)
  A.mov_const a A.x0 0x11000L;
  A.msr_ttbr0 a A.x0;
  A.mov_const a A.x0 0x10000L;
  A.msr_ttbr1 a A.x0;
  A.mov_const a A.x0 (kva (Int64.add kernel_pa (Int64.of_int vector_off)));
  A.msr_vbar a A.x0;
  (* MMU on *)
  A.movz a A.x0 1;
  A.msr_sctlr a A.x0;
  A.isb a;
  (* jump to the high half *)
  A.mov_const a A.x0 (kva (Int64.add kernel_pa 0x200L));
  A.br a A.x0;
  (* ------------------------------------------------ high-half init *)
  A.pad_to a 0x200;
  (* kernel stack *)
  A.mov_const a A.x0 kernel_stack_top;
  A.add_imm a A.sp A.x0 0;
  (* enable the timer and its interrupt line *)
  if enable_timer then begin
    A.mov_const a A.x0 (kva intc_base);
    A.movz a A.x1 2; (* line 1 = timer *)
    A.str32 ~off:4 a A.x1 A.x0;
    A.mov_const a A.x0 (kva timer_base);
    A.mov_const a A.x1 (Int64.of_int timer_period);
    A.str32 a A.x1 A.x0; (* LOAD *)
    A.movz a A.x1 3; (* enable | irq *)
    A.str32 ~off:8 a A.x1 A.x0
  end;
  (* enter the user program: ELR=user entry, SPSR=EL0t with IRQs on *)
  A.mov_const a A.x0 user_va;
  A.msr_elr a A.x0;
  A.movz a A.x0 0;
  A.msr_spsr a A.x0;
  A.mov_const a A.x0 user_stack_top;
  A.msr_sp_el0 a A.x0;
  A.msr_daifclr a 2;
  A.eret a;

  (* ------------------------------------------------ exception vectors *)
  (* +0x000 current EL with SP_EL0: unused *)
  A.pad_to a vector_off;
  A.b a "k_bad";
  (* +0x200 current EL with SP_ELx: sync (kernel fault) *)
  A.pad_to a (vector_off + 0x200);
  A.b a "k_bad";
  (* +0x280 current EL irq *)
  A.pad_to a (vector_off + 0x280);
  A.b a "k_irq";
  (* +0x400 lower EL sync: syscalls and user faults *)
  A.pad_to a (vector_off + 0x400);
  A.b a "k_sync";
  (* +0x480 lower EL irq *)
  A.pad_to a (vector_off + 0x480);
  A.b a "k_irq";

  (* ------------------------------------------------ handlers *)
  A.pad_to a (vector_off + 0x600);

  (* kernel panic: poweroff with code 98 *)
  A.label a "k_bad";
  A.mov_const a A.x9 (kva syscon_base);
  A.movz a A.x10 98;
  A.str a A.x10 A.x9;
  A.label a "k_hang";
  A.b a "k_hang";

  (* IRQ: ack the timer, count the tick *)
  A.label a "k_irq";
  A.stp_pre a A.x9 A.x10 A.sp (-16);
  A.mov_const a A.x9 (kva timer_base);
  A.str32 ~off:12 a A.xzr A.x9; (* ACK: clears the intc line *)
  A.mov_const a A.x9 (kva (Int64.add kernel_pa (Int64.of_int data_off)));
  A.ldr a A.x10 A.x9;
  A.add_imm a A.x10 A.x10 1;
  A.str a A.x10 A.x9;
  A.ldp_post a A.x9 A.x10 A.sp 16;
  A.eret a;

  (* lower-EL synchronous: dispatch on the exception class *)
  A.label a "k_sync";
  A.stp_pre a A.x9 A.x10 A.sp (-16);
  A.mrs_esr a A.x9;
  A.lsr_imm a A.x10 A.x9 26;
  A.cmp_imm a A.x10 0x15;
  A.b_cond a A.EQ "k_svc";
  A.cmp_imm a A.x10 0x24;
  A.b_cond a A.EQ "k_dabort";
  A.cmp_imm a A.x10 0x0;
  A.b_cond a A.EQ "k_undef";
  A.cmp_imm a A.x10 0x20;
  A.b_cond a A.EQ "k_iabort";
  (* anything else kills the machine with code 97 *)
  A.mov_const a A.x9 (kva syscon_base);
  A.movz a A.x10 97;
  A.str a A.x10 A.x9;
  A.label a "k_hang2";
  A.b a "k_hang2";

  (* user data abort: count it and skip the faulting instruction *)
  A.label a "k_dabort";
  A.mov_const a A.x9 (kva (Int64.add kernel_pa (Int64.of_int (data_off + 8))));
  A.ldr a A.x10 A.x9;
  A.add_imm a A.x10 A.x10 1;
  A.str a A.x10 A.x9;
  A.mrs_elr a A.x9;
  A.add_imm a A.x9 A.x9 4;
  A.msr_elr a A.x9;
  A.ldp_post a A.x9 A.x10 A.sp 16;
  A.eret a;

  (* undefined instruction from EL0: count and skip (SimBench's
     Undef-Instruction category) *)
  A.label a "k_undef";
  A.mov_const a A.x9 (kva (Int64.add kernel_pa (Int64.of_int (data_off + 16))));
  A.ldr a A.x10 A.x9;
  A.add_imm a A.x10 A.x10 1;
  A.str a A.x10 A.x9;
  A.mrs_elr a A.x9;
  A.add_imm a A.x9 A.x9 4;
  A.msr_elr a A.x9;
  A.ldp_post a A.x9 A.x10 A.sp 16;
  A.eret a;

  (* instruction abort from EL0: resume at the caller (benchmarks reach
     the bad page with BLR, so X30 holds the recovery address) *)
  A.label a "k_iabort";
  A.msr_elr a A.x30;
  A.ldp_post a A.x9 A.x10 A.sp 16;
  A.eret a;

  (* syscalls *)
  A.label a "k_svc";
  A.cmp_imm a A.x8 0;
  A.b_cond a A.EQ "sys_exit";
  A.cmp_imm a A.x8 1;
  A.b_cond a A.EQ "sys_putchar";
  A.cmp_imm a A.x8 2;
  A.b_cond a A.EQ "sys_uptime";
  A.cmp_imm a A.x8 3;
  A.b_cond a A.EQ "sys_ticks";
  A.cmp_imm a A.x8 4;
  A.b_cond a A.EQ "sys_faults";
  A.cmp_imm a A.x8 5;
  A.b_cond a A.EQ "sys_yield";
  (* unknown syscall: exit 99 *)
  A.mov_const a A.x9 (kva syscon_base);
  A.movz a A.x10 99;
  A.str a A.x10 A.x9;
  A.label a "k_hang3";
  A.b a "k_hang3";

  A.label a "sys_exit";
  A.mov_const a A.x9 (kva syscon_base);
  A.str a A.x0 A.x9;
  A.label a "k_hang4";
  A.b a "k_hang4";

  A.label a "sys_putchar";
  A.mov_const a A.x9 (kva uart_base);
  A.strb a A.x0 A.x9;
  A.b a "k_ret";

  A.label a "sys_uptime";
  A.mrs_cntvct a A.x0;
  A.b a "k_ret";

  A.label a "sys_ticks";
  A.mov_const a A.x9 (kva (Int64.add kernel_pa (Int64.of_int data_off)));
  A.ldr a A.x0 A.x9;
  A.b a "k_ret";

  A.label a "sys_faults";
  A.mov_const a A.x9 (kva (Int64.add kernel_pa (Int64.of_int (data_off + 8))));
  A.ldr a A.x0 A.x9;
  A.b a "k_ret";

  A.label a "sys_yield";
  A.ldp_post a A.x9 A.x10 A.sp 16;
  A.wfi a;
  (* wfi is ends-block; execution resumes here, then returns *)
  A.eret a;

  A.label a "k_ret";
  A.ldp_post a A.x9 A.x10 A.sp 16;
  A.eret a;
  A.assemble a

(* Engine-agnostic installation. *)
type target = {
  load : addr:int64 -> bytes -> unit;
  set_entry : int64 -> unit;
}

let install ?(enable_timer = true) (tgt : target) ~(user : bytes) =
  tgt.load ~addr:kernel_pa (build ~enable_timer ());
  tgt.load ~addr:user_pa user;
  tgt.set_entry kernel_pa

let captive_target (e : Captive.Engine.t) : target =
  { load = (fun ~addr b -> Captive.Engine.load_image e ~addr b);
    set_entry = (fun v -> Captive.Engine.set_entry e v) }

(* The QEMU-style engine is a [Captive.Engine.t] too. *)
let qemu_target : Qemu_ref.Qemu_engine.t -> target = captive_target

let reference_target (r : Captive.Reference.t) : target =
  { load = (fun ~addr b -> Captive.Reference.load_image r ~addr b);
    set_entry = (fun v -> Captive.Reference.set_entry r v) }
