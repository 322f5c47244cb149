(* Full-system engine tests: Captive vs QEMU-style vs reference
   interpreter, system-level behaviours (paging, syscalls, faults,
   interrupts, self-modifying code), and the paper's architectural claims
   (code-cache retention across TLB flushes, Table 2 bit accuracy). *)

module A = Guest_arm.Arm_asm
module K = Workloads.Kernel
module CE = Captive.Engine
module QE = Qemu_ref.Qemu_engine
module RE = Captive.Reference

let guest () = Guest_arm.Arm.ops ()

type outcome = { exit_code : int; uart : string }

let run_captive ?config ~image ~entry () =
  let e = CE.create ?config (guest ()) in
  CE.load_image e ~addr:entry image;
  CE.set_entry e entry;
  let code = match CE.run ~max_cycles:500_000_000 e with CE.Poweroff c -> c | _ -> -1 in
  ({ exit_code = code; uart = CE.uart_output e }, `Captive e)

let run_qemu ~image ~entry () =
  let e = QE.create (guest ()) in
  QE.load_image e ~addr:entry image;
  QE.set_entry e entry;
  let code = match QE.run ~max_cycles:500_000_000 e with QE.Poweroff c -> c | _ -> -1 in
  { exit_code = code; uart = QE.uart_output e }

let run_reference ~image ~entry () =
  let r = RE.create (guest ()) in
  RE.load_image r ~addr:entry image;
  RE.set_entry r entry;
  let code = match RE.run ~max_instrs:30_000_000 r with RE.Poweroff c -> c | _ -> -1 in
  { exit_code = code; uart = RE.uart_output r }

(* ARM random-word image, seed 1: 256 [Prng] words at 0x80000, MMU off.
   From some point on every step is an undefined instruction or a fetch
   abort, so a bound on decoded instructions alone is never reached. *)
let test_reference_step_limit () =
  let prng = Dbt_util.Prng.create 1L in
  let image = Bytes.create 1024 in
  for i = 0 to 255 do
    Bytes.set_int32_le image (4 * i) (Int64.to_int32 (Dbt_util.Prng.int64 prng))
  done;
  let r = RE.create (guest ()) in
  RE.load_image r ~addr:0x80000L image;
  RE.set_entry r 0x80000L;
  (match RE.run ~max_instrs:20_000 r with
  | RE.Step_limit -> ()
  | RE.Poweroff c -> Alcotest.failf "powered off with %d" c);
  Alcotest.(check int) "every step counted" 20_000 r.RE.steps;
  Alcotest.(check bool) "instrs_executed counts decoded instructions only" true
    (r.RE.instrs_executed < r.RE.steps)

let check_all_agree name image entry =
  let c, _ = run_captive ~image ~entry () in
  let q = run_qemu ~image ~entry () in
  let r = run_reference ~image ~entry () in
  Alcotest.(check int) (name ^ ": captive vs ref exit") r.exit_code c.exit_code;
  Alcotest.(check int) (name ^ ": qemu vs ref exit") r.exit_code q.exit_code;
  Alcotest.(check string) (name ^ ": captive vs ref uart") r.uart c.uart;
  Alcotest.(check string) (name ^ ": qemu vs ref uart") r.uart q.uart;
  r

(* --- bare-metal programs ----------------------------------------------------- *)

let syscon = 0x0930_0000L
let uart = 0x0910_0000L

let bare_metal body =
  let a = A.create ~base:0x80000L () in
  body a;
  (* exit with x0 *)
  A.mov_const a A.x25 syscon;
  A.str a A.x0 A.x25;
  A.label a "__hang";
  A.b a "__hang";
  A.assemble a

let test_bare_metal_agreement () =
  let progs =
    [
      ( "arith",
        bare_metal (fun a ->
            A.mov_const a A.x1 0x123456789ABCDEFL;
            A.mov_const a A.x2 0x0F1E2D3C4B5A697L;
            A.mul a A.x3 A.x1 A.x2;
            A.umulh a A.x4 A.x1 A.x2;
            A.eor_reg a A.x5 A.x3 A.x4;
            A.sdiv a A.x6 A.x5 A.x2;
            A.add_reg a A.x0 A.x5 A.x6) );
      ( "flags",
        bare_metal (fun a ->
            A.mov_const a A.x1 Int64.max_int;
            A.adds_imm a A.x2 A.x1 1;
            A.cset a A.x3 A.VS; (* overflow *)
            A.cset a A.x4 A.MI; (* negative *)
            A.adc_reg a A.x5 A.x3 A.x4;
            A.subs_imm a A.x6 A.x3 2;
            A.cset a A.x7 A.CC; (* borrow *)
            A.add_reg a A.x0 A.x5 A.x7) );
      ( "memory",
        bare_metal (fun a ->
            A.mov_const a A.x1 0x100000L;
            A.mov_const a A.x2 0xCAFEBABEDEADBEEFL;
            A.str a A.x2 A.x1;
            A.ldrb ~off:3 a A.x3 A.x1;
            A.ldrh ~off:2 a A.x4 A.x1;
            A.ldrsw ~off:4 a A.x5 A.x1;
            A.stp ~off:16 a A.x3 A.x4 A.x1;
            A.ldp ~off:16 a A.x6 A.x7 A.x1;
            A.add_reg a A.x0 A.x6 A.x7;
            A.add_reg a A.x0 A.x0 A.x5) );
      ( "fp",
        bare_metal (fun a ->
            A.mov_const a A.x1 (Int64.bits_of_float 1.5);
            A.fmov_x_to_d a A.d1 A.x1;
            A.mov_const a A.x2 (Int64.bits_of_float (-2.25));
            A.fmov_x_to_d a A.d2 A.x2;
            A.fmul_d a A.d3 A.d1 A.d2;
            A.fdiv_d a A.d4 A.d3 A.d1;
            A.fsqrt_d a A.d5 A.d1;
            A.fmadd_d a A.d6 A.d4 A.d5 A.d3;
            A.fcmp_d a A.d6 A.d3;
            A.cset a A.x3 A.GT;
            A.fcvtzs_d a A.x4 A.d6;
            A.fmov_d_to_x a A.x5 A.d5;
            A.add_reg a A.x0 A.x4 A.x3;
            A.eor_reg a A.x0 A.x0 A.x5) );
      ( "branches",
        bare_metal (fun a ->
            A.movz a A.x0 0;
            A.movz a A.x1 0;
            A.label a "outer";
            A.movz a A.x2 0;
            A.label a "inner";
            A.add_reg a A.x0 A.x0 A.x2;
            A.add_imm a A.x2 A.x2 1;
            A.cmp_imm a A.x2 10;
            A.b_cond a A.NE "inner";
            A.add_imm a A.x1 A.x1 1;
            A.tbz a A.x1 4 "outer") );
    ]
  in
  List.iter (fun (name, image) -> ignore (check_all_agree name image 0x80000L)) progs

(* --- Table 2 through the full stack -------------------------------------------- *)

let test_sqrt_bit_accuracy_guest () =
  (* fsqrt of -0.5 through both engines: the guest must observe the ARM
     result (+default NaN), not the host's x86 -NaN. *)
  let image =
    bare_metal (fun a ->
        A.mov_const a A.x1 (Int64.bits_of_float (-0.5));
        A.fmov_x_to_d a A.d1 A.x1;
        A.fsqrt_d a A.d2 A.d1;
        A.fmov_d_to_x a A.x2 A.d2;
        (* x0 = 1 iff result == ARM default NaN *)
        A.mov_const a A.x3 0x7FF8000000000000L;
        A.cmp_reg a A.x2 A.x3;
        A.cset a A.x0 A.EQ)
  in
  let r = check_all_agree "sqrt-nan" image 0x80000L in
  Alcotest.(check int) "guest sees ARM NaN" 1 r.exit_code

(* --- self-modifying code --------------------------------------------------------- *)

let test_self_modifying_code () =
  (* Execute `mov x0, #1; ret-to-exit`, patch it in place to `mov x0, #2`,
     re-execute: the code cache must be invalidated by the write. *)
  let image =
    bare_metal (fun a ->
        A.movz a A.x20 0;
        (* call the patchable snippet twice *)
        A.adr a A.x21 "snippet";
        A.bl a "snippet";
        A.add_reg a A.x20 A.x20 A.x0;
        (* patch: rewrite first instruction to movz x0,#2 *)
        (let w = (0b110100101 lsl 23) lor (2 lsl 5) lor 0 in
         A.mov_const a A.x22 (Int64.of_int w));
        A.str32 a A.x22 A.x21;
        A.bl a "snippet";
        A.add_reg a A.x20 A.x20 A.x0;
        A.mov_reg a A.x0 A.x20;
        A.b a "done";
        A.label a "snippet";
        A.movz a A.x0 1;
        A.ret a;
        A.label a "done")
  in
  let c, engine = run_captive ~image ~entry:0x80000L () in
  Alcotest.(check int) "captive sees the patch (1+2)" 3 c.exit_code;
  (match engine with
  | `Captive e ->
    Alcotest.(check bool) "SMC invalidation fired" true (e.CE.stats.CE.smc_invalidations > 0));
  let q = run_qemu ~image ~entry:0x80000L () in
  Alcotest.(check int) "qemu sees the patch" 3 q.exit_code;
  let r = run_reference ~image ~entry:0x80000L () in
  Alcotest.(check int) "reference agrees" 3 r.exit_code

let test_smc_chained_target () =
  (* A loop calls a snippet on the next page three times and patches it
     after the second call, when the call block already chains into it:
     the patch must cut that chain edge, or the third call runs the old
     code (1+1+1 instead of 1+1+2). *)
  let image =
    bare_metal (fun a ->
        A.movz a A.x20 0;
        A.movz a A.x19 3;
        A.adr a A.x21 "snippet";
        (let w = (0b110100101 lsl 23) lor (2 lsl 5) lor 0 in
         A.mov_const a A.x22 (Int64.of_int w));
        A.label a "loop";
        A.bl a "snippet";
        A.add_reg a A.x20 A.x20 A.x0;
        A.sub_imm a A.x19 A.x19 1;
        A.cmp_imm a A.x19 1;
        A.b_cond a A.NE "next";
        A.str32 a A.x22 A.x21;
        A.label a "next";
        A.cbnz a A.x19 "loop";
        A.mov_reg a A.x0 A.x20;
        A.b a "done";
        while Int64.logand (A.here a) 0xFFFL <> 0L do
          A.nop a
        done;
        A.label a "snippet";
        A.movz a A.x0 1;
        A.ret a;
        A.label a "done")
  in
  let r = check_all_agree "smc-chained" image 0x80000L in
  Alcotest.(check int) "patched on the third call (1+1+2)" 4 r.exit_code

(* --- full OS boot ------------------------------------------------------------------ *)

let os_user body =
  let a = A.create ~base:K.user_va () in
  body a;
  A.assemble a

let install_and_run_all user =
  let c =
    let e = CE.create (guest ()) in
    K.install (K.captive_target e) ~user;
    let code = match CE.run ~max_cycles:500_000_000 e with CE.Poweroff c -> c | _ -> -1 in
    ({ exit_code = code; uart = CE.uart_output e }, e)
  in
  let q =
    let e = QE.create (guest ()) in
    K.install (K.qemu_target e) ~user;
    let code = match QE.run ~max_cycles:500_000_000 e with QE.Poweroff c -> c | _ -> -1 in
    { exit_code = code; uart = QE.uart_output e }
  in
  let r =
    let e = RE.create (guest ()) in
    K.install (K.reference_target e) ~user;
    let code = match RE.run ~max_instrs:30_000_000 e with RE.Poweroff c -> c | _ -> -1 in
    { exit_code = code; uart = RE.uart_output e }
  in
  (c, q, r)

let test_os_boot_and_syscalls () =
  let user =
    os_user (fun a ->
        List.iter
          (fun ch ->
            A.movz a A.x0 (Char.code ch);
            A.movz a A.x8 1;
            A.svc a 0)
          [ 'b'; 'o'; 'o'; 't' ];
        (* user memory through the MMU *)
        A.mov_const a A.x1 (Int64.add K.user_va 0x20000L);
        A.mov_const a A.x2 0x1111111111111111L;
        A.str a A.x2 A.x1;
        A.ldr a A.x3 A.x1;
        A.lsr_imm a A.x0 A.x3 60;
        A.movz a A.x8 0;
        A.svc a 0)
  in
  let (c, _), q, r = install_and_run_all user in
  Alcotest.(check int) "exit code" 1 r.exit_code;
  Alcotest.(check string) "uart" "boot" r.uart;
  Alcotest.(check int) "captive" r.exit_code c.exit_code;
  Alcotest.(check int) "qemu" r.exit_code q.exit_code;
  Alcotest.(check string) "captive uart" r.uart c.uart;
  Alcotest.(check string) "qemu uart" r.uart q.uart

let test_user_kernel_isolation () =
  (* EL0 attempting to read kernel memory must fault; the kernel's abort
     handler counts it and skips the instruction. *)
  let user =
    os_user (fun a ->
        A.mov_const a A.x1 (K.kva 0x80000L);
        A.ldr a A.x2 A.x1; (* kernel VA: faults, is skipped *)
        A.mov_const a A.x1 K.kernel_pa;
        A.ldr a A.x3 A.x1; (* kernel PA unmapped in TTBR0: faults too *)
        A.movz a A.x8 4;
        A.svc a 0; (* x0 = fault count *)
        A.movz a A.x8 0;
        A.svc a 0)
  in
  let (c, _), q, r = install_and_run_all user in
  Alcotest.(check int) "two faults observed" 2 r.exit_code;
  Alcotest.(check int) "captive agrees" r.exit_code c.exit_code;
  Alcotest.(check int) "qemu agrees" r.exit_code q.exit_code

let test_timer_interrupts () =
  let user =
    os_user (fun a ->
        (* burn cycles until at least 2 ticks observed *)
        A.label a "wait";
        A.mov_const a A.x6 20000L;
        A.label a "burn";
        A.sub_imm a A.x6 A.x6 1;
        A.cbnz a A.x6 "burn";
        A.movz a A.x8 3;
        A.svc a 0; (* ticks *)
        A.cmp_imm a A.x0 2;
        A.b_cond a A.CC "wait";
        A.movz a A.x0 0;
        A.movz a A.x8 0;
        A.svc a 0)
  in
  let e = CE.create (guest ()) in
  K.install (K.captive_target e) ~user;
  (match CE.run ~max_cycles:500_000_000 e with
  | CE.Poweroff 0 -> ()
  | CE.Poweroff c -> Alcotest.failf "captive: unexpected exit %d" c
  | _ -> Alcotest.fail "captive: timer ticks never reached 2");
  Alcotest.(check bool) "timer fired" true ((CE.Internal.timer e).Hvm.Device.Timer.fired >= 2);
  let q = QE.create (guest ()) in
  K.install (K.qemu_target q) ~user;
  match QE.run ~max_cycles:500_000_000 q with
  | QE.Poweroff 0 -> ()
  | _ -> Alcotest.fail "qemu: timer test failed"

let test_cache_retention_across_tlb_flush () =
  (* The paper's Sec. 2.6 claim: Captive's PA-indexed cache survives guest
     TLB flushes; the QEMU-style VA-indexed cache is invalidated. *)
  let image =
    bare_metal (fun a ->
        A.movz a A.x19 50;
        A.movz a A.x20 0;
        A.label a "loop";
        A.add_imm a A.x20 A.x20 3;
        A.tlbi_all a;
        A.sub_imm a A.x19 A.x19 1;
        A.cbnz a A.x19 "loop";
        A.mov_reg a A.x0 A.x20)
  in
  let e = CE.create (guest ()) in
  CE.load_image e ~addr:0x80000L image;
  CE.set_entry e 0x80000L;
  ignore (CE.run ~max_cycles:500_000_000 e);
  let q = QE.create (guest ()) in
  QE.load_image q ~addr:0x80000L image;
  QE.set_entry q 0x80000L;
  ignore (QE.run ~max_cycles:500_000_000 q);
  (* Captive translates each block once; QEMU-style retranslates after
     every flush. *)
  Alcotest.(check bool) "captive retains translations" true (e.CE.stats.CE.blocks_translated < 10);
  Alcotest.(check bool)
    (Printf.sprintf "qemu retranslates (%d blocks)" q.CE.stats.CE.blocks_translated)
    true
    (q.CE.stats.CE.blocks_translated > 50)

let test_spec_proxies_differential () =
  (* A representative subset of the SPEC proxies, all three engines. *)
  (* keep runtime modest: captive vs qemu on three benchmarks *)
  List.iter
    (fun name ->
      let bench = Workloads.Spec.find name in
      let user = bench.Workloads.Spec.build ~scale:1 in
      let e = CE.create (guest ()) in
      K.install (K.captive_target e) ~user;
      let cc = match CE.run ~max_cycles:2_000_000_000 e with CE.Poweroff c -> c | _ -> -1 in
      let qe = QE.create (guest ()) in
      K.install (K.qemu_target qe) ~user;
      let qc = match QE.run ~max_cycles:2_000_000_000 qe with QE.Poweroff c -> c | _ -> -1 in
      Alcotest.(check int) (name ^ " exit codes agree") cc qc;
      Alcotest.(check bool) (name ^ " ran") true (cc >= 0))
    [ "445.gobmk"; "456.hmmer"; "444.namd" ]

(* Sec. 3.6.2's softfloat configuration: with [hw_fp] off, every soft-FP
   intrinsic lowers to its softfloat helper instead of inline host FP.
   The guest result must not change, and the helper calls must cost
   more cycles than the inline instructions. *)
let test_softfloat_helpers () =
  let boot hw_fp =
    Workloads.Registry.boot ~config:{ CE.default_config with CE.hw_fp }
      (Workloads.Registry.spec ~scale:1 "444.namd")
  in
  let e_hw, code_hw = boot true and e_sw, code_sw = boot false in
  Alcotest.(check (pair int int)) "exit codes" (0, 0) (code_hw, code_sw);
  if CE.cycles e_sw <= CE.cycles e_hw then
    Alcotest.failf "softfloat %d cycles, hardware FP %d" (CE.cycles e_sw) (CE.cycles e_hw)

(* --- randomized differential testing --------------------------------------- *)

(* Random straight-line programs over data-processing, memory and FP
   instructions; the full architectural state is dumped to memory and
   compared across all three engines. *)
let random_program seed =
  let prng = Dbt_util.Prng.create (if seed = 0L then 99L else seed) in
  let r n = Dbt_util.Prng.int prng n in
  let reg () = r 16 in
  let a = A.create ~base:0x80000L () in
  (* x20: data base (never an operand destination below) *)
  A.mov_const a A.x20 0x200000L;
  (* seed registers *)
  for i = 0 to 15 do
    A.mov_const a i (Dbt_util.Prng.int64 prng)
  done;
  for i = 0 to 7 do
    A.fmov_x_to_d a i (r 16)
  done;
  for _ = 1 to 60 do
    match r 24 with
    | 0 -> A.add_reg a (reg ()) (reg ()) (reg ())
    | 1 -> A.subs_reg a (reg ()) (reg ()) (reg ())
    | 2 -> A.adds_imm a (reg ()) (reg ()) (r 4096)
    | 3 -> A.and_reg a (reg ()) (reg ()) (reg ())
    | 4 -> A.eor_imm a (reg ()) (reg ()) 0xFF00FF00FF00FF00L
    | 5 -> A.mul a (reg ()) (reg ()) (reg ())
    | 6 -> A.umulh a (reg ()) (reg ()) (reg ())
    | 7 -> A.udiv a (reg ()) (reg ()) (reg ())
    | 8 -> A.sdiv ~sf:(r 2) a (reg ()) (reg ()) (reg ())
    | 9 -> A.lslv a (reg ()) (reg ()) (reg ())
    | 10 -> A.rorv ~sf:(r 2) a (reg ()) (reg ()) (reg ())
    | 11 -> A.csel a (reg ()) (reg ()) (reg ()) (List.nth [ A.EQ; A.LT; A.HI; A.VS ] (r 4))
    | 12 -> A.csinv a (reg ()) (reg ()) (reg ()) (List.nth [ A.NE; A.GE; A.LS; A.MI ] (r 4))
    | 13 -> A.clz a (reg ()) (reg ())
    | 14 -> A.rbit ~sf:(r 2) a (reg ()) (reg ())
    | 15 -> A.extr a (reg ()) (reg ()) (reg ()) (r 64)
    | 16 -> A.ccmp_imm a (reg ()) (r 32) (r 16) (List.nth [ A.EQ; A.GT; A.CC; A.PL ] (r 4))
    | 17 -> A.str ~off:(8 * r 64) a (reg ()) A.x20
    | 18 -> A.ldr ~off:(8 * r 64) a (reg ()) A.x20
    | 19 -> A.strb ~off:(r 256) a (reg ()) A.x20
    | 20 -> A.ldrsw ~off:(4 * r 32) a (reg ()) A.x20
    | 21 -> A.fadd_d a (r 8) (r 8) (r 8)
    | 22 -> A.fmul_d a (r 8) (r 8) (r 8)
    | _ ->
      A.fsqrt_d a (r 8) (r 8)
  done;
  (* dump state: x0..x15, NZCV (via csel-able flags capture), d0..d7 *)
  A.mov_const a A.x21 0x300000L;
  for i = 0 to 15 do
    A.str ~off:(8 * i) a i A.x21
  done;
  for i = 0 to 7 do
    A.fmov_d_to_x a A.x22 i;
    A.str ~off:(128 + (8 * i)) a A.x22 A.x21
  done;
  A.cset a A.x22 A.EQ;
  A.cset a A.x23 A.CS;
  A.cset a A.x24 A.MI;
  A.cset a A.x25 A.VS;
  A.str ~off:192 a A.x22 A.x21;
  A.str ~off:200 a A.x23 A.x21;
  A.str ~off:208 a A.x24 A.x21;
  A.str ~off:216 a A.x25 A.x21;
  (* poweroff *)
  A.mov_const a A.x28 0x0930_0000L;
  A.str a A.xzr A.x28;
  A.label a "hang";
  A.b a "hang";
  A.assemble a

let dump_region mem =
  List.init 28 (fun i -> Hvm.Mem.read64 mem (Int64.of_int (0x300000 + (8 * i))))

let prop_random_programs =
  QCheck2.Test.make ~name:"random programs: captive = qemu = reference" ~count:25
    QCheck2.Gen.int64 (fun seed ->
      let image = random_program seed in
      let run_c () =
        let e = CE.create (guest ()) in
        CE.load_image e ~addr:0x80000L image;
        CE.set_entry e 0x80000L;
        match CE.run ~max_cycles:100_000_000 e with
        | CE.Poweroff _ -> dump_region e.CE.machine.Hvm.Machine.mem
        | _ -> []
      in
      let run_q () =
        let e = QE.create (guest ()) in
        QE.load_image e ~addr:0x80000L image;
        QE.set_entry e 0x80000L;
        match QE.run ~max_cycles:100_000_000 e with
        | QE.Poweroff _ -> dump_region e.CE.machine.Hvm.Machine.mem
        | _ -> []
      in
      let run_r () =
        let e = RE.create (guest ()) in
        RE.load_image e ~addr:0x80000L image;
        RE.set_entry e 0x80000L;
        match RE.run ~max_instrs:10_000_000 e with
        | RE.Poweroff _ -> dump_region e.RE.machine.Hvm.Machine.mem
        | _ -> []
      in
      let c = run_c () and q = run_q () and rr = run_r () in
      c <> [] && c = q && c = rr)

let suite =
  ( "engine",
    [
      Alcotest.test_case "bare-metal differential" `Slow test_bare_metal_agreement;
      Alcotest.test_case "Table 2 via guest fsqrt" `Slow test_sqrt_bit_accuracy_guest;
      Alcotest.test_case "self-modifying code" `Slow test_self_modifying_code;
      Alcotest.test_case "SMC on a chained target" `Slow test_smc_chained_target;
      Alcotest.test_case "OS boot + syscalls" `Slow test_os_boot_and_syscalls;
      Alcotest.test_case "user/kernel isolation" `Slow test_user_kernel_isolation;
      Alcotest.test_case "timer interrupts" `Slow test_timer_interrupts;
      Alcotest.test_case "cache retention across TLB flush" `Slow test_cache_retention_across_tlb_flush;
      Alcotest.test_case "SPEC proxies differential" `Slow test_spec_proxies_differential;
      Alcotest.test_case "softfloat helpers (hw_fp off)" `Slow test_softfloat_helpers;
      QCheck_alcotest.to_alcotest prop_random_programs;
      Alcotest.test_case "Reference stops on random words (ARM seed 1)" `Quick test_reference_step_limit;
    ] )
