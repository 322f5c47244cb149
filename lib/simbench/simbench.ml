(* The SimBench micro-benchmark suite (Wagstaff et al., ISPASS 2017),
   recreated for Fig. 19: targeted guest programs that isolate one
   full-system-emulation mechanism each - memory emulation hot/cold with
   and without the guest MMU, exception delivery, code generation speed
   (small/large blocks), control-flow handling, and TLB maintenance. *)

module A = Guest_arm.Arm_asm
module K = Workloads.Kernel

type kind =
  | Bare (* EL1, MMU off, loaded at 0x80000 *)
  | Bare_mmu (* EL1, MMU on, identity-mapped low half *)
  | User (* EL0 program under the mini-OS kernel *)

type bench = {
  name : string;
  kind : kind;
  image : bytes;
}

let syscon = 0x0930_0000L

(* --- environments ---------------------------------------------------------- *)

let bare body =
  let a = A.create ~base:0x80000L () in
  body a;
  A.mov_const a A.x25 syscon;
  A.movz a A.x24 0;
  A.str a A.x24 A.x25;
  A.label a "__hang";
  A.b a "__hang";
  A.assemble a

(* EL1 with the MMU on: one 1 GiB identity block covers RAM and the
   peripherals. *)
let bare_mmu body =
  let a = A.create ~base:0x80000L () in
  let af = Int64.shift_left 1L 10 in
  let uxn = Int64.shift_left 1L 54 in
  A.mov_const a A.x0 0x11000L;
  A.mov_const a A.x1 (Int64.logor af (Int64.logor 1L uxn));
  A.str a A.x1 A.x0;
  A.msr_ttbr0 a A.x0;
  A.movz a A.x0 1;
  A.msr_sctlr a A.x0;
  A.isb a;
  body a;
  A.mov_const a A.x25 syscon;
  A.movz a A.x24 0;
  A.str a A.x24 A.x25;
  A.label a "__hang";
  A.b a "__hang";
  A.assemble a

let user body =
  let a = A.create ~base:K.user_va () in
  body a;
  A.movz a A.x0 0;
  A.movz a A.x8 0;
  A.svc a 0;
  A.assemble a

(* --- memory benchmarks ------------------------------------------------------- *)

(* Hot: repeated loads/stores over a small, resident buffer. *)
let mem_hot a =
  A.mov_const a A.x1 0x0100_0000L; (* 16 MiB: inside the identity map *)
  A.mov_const a A.x19 6000L;
  A.label a "outer";
  A.movz a A.x2 0;
  A.label a "inner";
  A.lsl_imm a A.x3 A.x2 3;
  A.add_reg a A.x4 A.x1 A.x3;
  A.ldr a A.x5 A.x4;
  A.add_imm a A.x5 A.x5 1;
  A.str a A.x5 A.x4;
  A.add_imm a A.x2 A.x2 1;
  A.cmp_imm a A.x2 32;
  A.b_cond a A.NE "inner";
  A.sub_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "outer"

(* Cold: touch thousands of distinct pages. *)
let mem_cold a =
  A.mov_const a A.x1 0x0040_0000L; (* 4 MiB.. *)
  A.mov_const a A.x19 6000L; (* pages (24 MiB) *)
  A.label a "touch";
  A.ldr a A.x2 A.x1;
  A.str a A.x2 A.x1;
  A.mov_const a A.x3 4096L;
  A.add_reg a A.x1 A.x1 A.x3;
  A.sub_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "touch"

(* --- exception benchmarks ------------------------------------------------------ *)

let undef_insn a =
  A.mov_const a A.x19 8000L;
  A.label a "loop";
  A.word a 0L; (* undefined encoding; the kernel skips it *)
  A.sub_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "loop"

let syscall a =
  A.mov_const a A.x19 8000L;
  A.label a "loop";
  A.movz a A.x8 3; (* sys_ticks: a trivial syscall *)
  A.svc a 0;
  A.sub_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "loop"

let data_fault a =
  A.mov_const a A.x19 8000L;
  A.mov_const a A.x1 0x0070_0000L; (* unmapped user VA *)
  A.label a "loop";
  A.ldr a A.x2 A.x1; (* faults; kernel counts and skips *)
  A.sub_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "loop"

let insn_fault a =
  A.mov_const a A.x19 4000L;
  A.mov_const a A.x1 0x0070_0000L; (* unmapped user VA *)
  A.label a "loop";
  A.blr a A.x1; (* fetch abort; kernel returns to LR *)
  A.sub_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "loop"

(* --- code generation benchmarks -------------------------------------------------- *)

(* Thousands of distinct 2-instruction blocks, each executed once:
   dominated by translation speed. *)
let small_blocks a =
  for i = 0 to 3999 do
    A.label a (Printf.sprintf "b%d" i);
    A.add_imm a A.x0 A.x0 1;
    A.b a (Printf.sprintf "b%d" (i + 1))
  done;
  A.label a "b4000"

let large_blocks a =
  for i = 0 to 149 do
    A.label a (Printf.sprintf "b%d" i);
    for _ = 1 to 60 do
      A.add_imm a A.x0 A.x0 1
    done;
    A.b a (Printf.sprintf "b%d" (i + 1))
  done;
  A.label a "b150"

(* --- control flow benchmarks ------------------------------------------------------ *)

let direct_chain ~page_stride a =
  let n = 16 in
  A.mov_const a A.x19 40_000L;
  A.b a "blk0";
  for i = 0 to n - 1 do
    if page_stride then A.pad_to a (0x1000 * (i + 1));
    A.label a (Printf.sprintf "blk%d" i);
    A.add_imm a A.x0 A.x0 1;
    if i = n - 1 then begin
      A.sub_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "blk0";
      A.b a "out"
    end
    else A.b a (Printf.sprintf "blk%d" (i + 1))
  done;
  A.label a "out"

let indirect_chain ~page_stride a =
  let n = 8 in
  (* Build a table of block addresses at 0x0100_0000. *)
  A.mov_const a A.x22 0x0100_0000L;
  for i = 0 to n - 1 do
    A.adr a A.x2 (Printf.sprintf "blk%d" i);
    A.str ~off:(8 * i) a A.x2 A.x22
  done;
  A.mov_const a A.x19 30_000L;
  A.movz a A.x20 0;
  A.b a "blk0";
  for i = 0 to n - 1 do
    if page_stride then A.pad_to a (0x1000 * (i + 1));
    A.label a (Printf.sprintf "blk%d" i);
    A.add_imm a A.x20 A.x20 1;
    if i = n - 1 then begin
      A.sub_imm a A.x19 A.x19 1;
      A.cbz a A.x19 "out"
    end;
    (* next = table[(x20) mod n] *)
    A.and_imm a A.x21 A.x20 (Int64.of_int (n - 1));
    A.lsl_imm a A.x21 A.x21 3;
    A.ldr_reg a A.x9 A.x22 A.x21;
    A.br a A.x9
  done;
  A.label a "out"

(* --- TLB benchmarks ------------------------------------------------------------------ *)

let tlb_flush a =
  A.mov_const a A.x19 2500L;
  A.mov_const a A.x1 0x0100_0000L;
  A.label a "loop";
  A.tlbi_all a;
  (* repopulate a handful of pages *)
  A.movz a A.x2 0;
  A.label a "touch";
  A.lsl_imm a A.x3 A.x2 12;
  A.add_reg a A.x4 A.x1 A.x3;
  A.ldr a A.x5 A.x4;
  A.add_imm a A.x2 A.x2 1;
  A.cmp_imm a A.x2 8;
  A.b_cond a A.NE "touch";
  A.sub_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "loop"

let tlb_evict a =
  (* Touch more pages than any TLB level holds, repeatedly. *)
  A.mov_const a A.x19 40L;
  A.label a "outer";
  A.mov_const a A.x1 0x0040_0000L;
  A.mov_const a A.x2 2048L;
  A.label a "touch";
  A.ldr a A.x3 A.x1;
  A.mov_const a A.x4 4096L;
  A.add_reg a A.x1 A.x1 A.x4;
  A.sub_imm a A.x2 A.x2 1;
  A.cbnz a A.x2 "touch";
  A.sub_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "outer"

(* --- the suite ------------------------------------------------------------------------ *)

let all () : bench list =
  [
    { name = "Mem-Hot-MMU"; kind = Bare_mmu; image = bare_mmu mem_hot };
    { name = "Mem-Hot-NoMMU"; kind = Bare; image = bare mem_hot };
    { name = "Mem-Cold-MMU"; kind = Bare_mmu; image = bare_mmu mem_cold };
    { name = "Mem-Cold-NoMMU"; kind = Bare; image = bare mem_cold };
    { name = "Undef-Instruction"; kind = User; image = user undef_insn };
    { name = "Syscall"; kind = User; image = user syscall };
    { name = "Data-Fault"; kind = User; image = user data_fault };
    { name = "Instruction-Fault"; kind = User; image = user insn_fault };
    { name = "Small-Blocks"; kind = Bare; image = bare small_blocks };
    { name = "Large-Blocks"; kind = Bare; image = bare large_blocks };
    { name = "Same-Page-Indirect"; kind = Bare; image = bare (indirect_chain ~page_stride:false) };
    { name = "Inter-Page-Indirect"; kind = Bare; image = bare (indirect_chain ~page_stride:true) };
    { name = "Same-Page-Direct"; kind = Bare; image = bare (direct_chain ~page_stride:false) };
    { name = "Inter-Page-Direct"; kind = Bare; image = bare (direct_chain ~page_stride:true) };
    { name = "TLB-Flush"; kind = Bare_mmu; image = bare_mmu tlb_flush };
    { name = "TLB-Evict"; kind = Bare_mmu; image = bare_mmu tlb_evict };
  ]

(* --- harness ----------------------------------------------------------------------------- *)

type result = {
  bench : string;
  captive_cycles : int;
  qemu_cycles : int;
  speedup : float;
}

(* Boot one benchmark on either engine (both are [Captive.Engine.t]). *)
let run_on engine (e : Captive.Engine.t) (b : bench) =
  (match b.kind with
  | Bare | Bare_mmu ->
    Captive.Engine.load_image e ~addr:0x80000L b.image;
    Captive.Engine.set_entry e 0x80000L
  | User -> K.install ~enable_timer:false (K.captive_target e) ~user:b.image);
  (match Captive.Engine.run ~max_cycles:2_000_000_000 e with
  | Captive.Engine.Poweroff 0 -> ()
  | Captive.Engine.Poweroff c -> invalid_arg (Printf.sprintf "%s: %s exited %d" b.name engine c)
  | _ -> invalid_arg (Printf.sprintf "%s: %s did not finish" b.name engine));
  Captive.Engine.cycles e

let run_one (b : bench) : result =
  let c = run_on "captive" (Captive.Engine.create (Guest_arm.Arm.ops ())) b in
  let q = run_on "qemu" (Qemu_ref.Qemu_engine.create (Guest_arm.Arm.ops ())) b in
  { bench = b.name; captive_cycles = c; qemu_cycles = q; speedup = float_of_int q /. float_of_int c }

let run_all () = List.map run_one (all ())
