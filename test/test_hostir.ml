(* Host IR backend tests: encoder roundtrip, register allocator
   correctness (differential against a virtual-register interpreter), DAG
   emitter behaviours (CSE, specialization, hazards, FP fix-up). *)

open Hostir
module Hir = Hostir.Hir
module Machine = Hvm.Machine

let mk_ctx () =
  let machine = Machine.create ~mem_size:(4 * 1024 * 1024) () in
  Exec.create ~machine ~helpers:[||] ~fault_handler:(fun _ _ _ ~bits:_ ~value:_ -> Exec.Retry)

(* Run raw IR through the full backend: regalloc -> encode -> decode ->
   execute; returns the executor context for inspection. *)
let run_ir instrs =
  let ra = Regalloc.run (Array.of_list (instrs @ [ Hir.Exit 0 ])) in
  let program = Encode.decode_program ~n_slots:ra.Regalloc.n_slots (Encode.encode ra) in
  let ctx = mk_ctx () in
  ignore (Exec.run ctx (Exec.compile program));
  ctx

(* --- encoder -------------------------------------------------------------- *)

let test_encode_roundtrip_straightline () =
  let open Hir in
  let instrs =
    [|
      Mov (Preg 0, Imm 5L);
      Alu (Aadd, Preg 1, Preg 0, Imm 1000L);
      Alu (Amul, Preg 2, Preg 1, Imm (-3L));
      Setcc (Cslt, Preg 3, Preg 2, Imm 0L);
      Cmov (Preg 4, Preg 3, Preg 1, Preg 2);
      Ext (true, 32, Preg 5, Preg 2);
      Bit1 (Bclz64, Preg 6, Preg 1);
      Fp2 (Fadd64, Preg 7, Preg 0, Preg 1);
      Strf (16, Preg 4);
      Ldrf (Preg 8, 16);
      Inc_pc 4;
      Call (3, [| Preg 0; Imm 7L |], Some (Preg 9));
      Mem_st (64, Imm 128L, Preg 1);
      Exit 2;
    |]
  in
  let ra = { Regalloc.instrs; dead = Array.make (Array.length instrs) false; n_slots = 0; n_spilled = 0; n_dead = 0 } in
  let p = Encode.decode_program (Encode.encode ra) in
  Alcotest.(check int) "instruction count" (Array.length instrs) (Array.length p.Encode.code);
  Array.iteri
    (fun i orig -> Alcotest.(check string) (Printf.sprintf "instr %d" i) (Hir.to_string orig) (Hir.to_string p.Encode.code.(i)))
    instrs

let test_encode_jumps () =
  let open Hir in
  (* A loop: count down from 5, accumulate in preg1, store to regfile. *)
  let instrs =
    [|
      Mov (Preg 0, Imm 5L);
      Mov (Preg 1, Imm 0L);
      Label 0;
      Alu (Aadd, Preg 1, Preg 1, Preg 0);
      Alu (Asub, Preg 0, Preg 0, Imm 1L);
      Setcc (Cne, Preg 2, Preg 0, Imm 0L);
      Br (Preg 2, 0, 1);
      Label 1;
      Strf (0, Preg 1);
      Exit 0;
    |]
  in
  let ra = { Regalloc.instrs; dead = Array.make (Array.length instrs) false; n_slots = 0; n_spilled = 0; n_dead = 0 } in
  let p = Encode.decode_program (Encode.encode ra) in
  let ctx = mk_ctx () in
  ignore (Exec.run ctx (Exec.compile p));
  Alcotest.(check int64) "loop result 15" 15L (Exec.rf_read ctx 0)

(* --- register allocator ------------------------------------------------------ *)

(* Interpreter over virtual registers, the oracle for the allocator. *)
let interp_vregs (instrs : Hir.instr list) n_vregs =
  let open Hir in
  let vr = Array.make n_vregs 0L in
  let rf = Array.make 64 0L in
  let rd = function Vreg v -> vr.(v) | Imm i -> i | _ -> assert false in
  List.iter
    (fun i ->
      match i with
      | Mov (Vreg d, s) -> vr.(d) <- rd s
      | Alu (op, Vreg d, a, b) ->
        let a = rd a and b = rd b in
        vr.(d) <-
          (match op with
          | Aadd -> Int64.add a b
          | Asub -> Int64.sub a b
          | Aand -> Int64.logand a b
          | Aor -> Int64.logor a b
          | Axor -> Int64.logxor a b
          | Ashl -> Dbt_util.Bits.shl a (Int64.to_int (Int64.logand b 63L))
          | Ashr -> Dbt_util.Bits.shr a (Int64.to_int (Int64.logand b 63L))
          | Asar -> Dbt_util.Bits.sar a (Int64.to_int (Int64.logand b 63L))
          | Amul -> Int64.mul a b)
      | Setcc (c, Vreg d, a, b) -> vr.(d) <- (if Exec.cond_holds c (rd a) (rd b) then 1L else 0L)
      | Cmov (Vreg d, c, a, b) -> vr.(d) <- (if rd c <> 0L then rd a else rd b)
      | Ext (signed, bits, Vreg d, s) ->
        vr.(d) <-
          (if signed then Dbt_util.Bits.sign_extend (rd s) ~width:bits
           else Dbt_util.Bits.zero_extend (rd s) ~width:bits)
      | Strf (off, s) -> rf.(off / 8) <- rd s
      | _ -> assert false)
    instrs;
  rf

let gen_straightline =
  (* Random straight-line program over [nv] vregs with all defs before
     uses; ends by storing every vreg to the register file. *)
  QCheck2.Gen.(
    let* nv = int_range 4 40 in
    let* seed = int64 in
    return (nv, seed))

let prop_regalloc_matches_vreg_interp =
  QCheck2.Test.make ~name:"register allocation preserves semantics" ~count:120 gen_straightline
    (fun (nv, seed) ->
      let open Hir in
      let prng = Dbt_util.Prng.create (if seed = 0L then 1L else seed) in
      let instrs = ref [] in
      let emit i = instrs := i :: !instrs in
      for v = 0 to nv - 1 do
        let operand () =
          if v > 0 && Dbt_util.Prng.bool prng then Vreg (Dbt_util.Prng.int prng v)
          else Imm (Int64.of_int (Dbt_util.Prng.int prng 1000 - 500))
        in
        match Dbt_util.Prng.int prng 6 with
        | 0 -> emit (Mov (Vreg v, operand ()))
        | 1 -> emit (Alu (Aadd, Vreg v, operand (), operand ()))
        | 2 -> emit (Alu (Axor, Vreg v, operand (), operand ()))
        | 3 -> emit (Alu (Amul, Vreg v, operand (), operand ()))
        | 4 -> emit (Setcc (Cslt, Vreg v, operand (), operand ()))
        | _ -> emit (Cmov (Vreg v, operand (), operand (), operand ()))
      done;
      for v = 0 to nv - 1 do
        emit (Strf (8 * v, Vreg v))
      done;
      let prog = List.rev !instrs in
      let expected = interp_vregs prog nv in
      let ctx = run_ir prog in
      let ok = ref true in
      for v = 0 to nv - 1 do
        if Exec.rf_read ctx (8 * v) <> expected.(v) then ok := false
      done;
      !ok)

let test_regalloc_spills_under_pressure () =
  (* More simultaneously-live values than physical registers must spill,
     and still compute correctly. *)
  let open Hir in
  let n = 30 in
  let defs = List.init n (fun v -> Mov (Vreg v, Imm (Int64.of_int (v * 11)))) in
  let uses = List.init n (fun v -> Strf (8 * v, Vreg v)) in
  let ra = Regalloc.run (Array.of_list (defs @ uses @ [ Exit 0 ])) in
  Alcotest.(check bool) "spilled something" true (ra.Regalloc.n_spilled > 0);
  let p = Encode.decode_program ~n_slots:ra.Regalloc.n_slots (Encode.encode ra) in
  let ctx = mk_ctx () in
  ignore (Exec.run ctx (Exec.compile p));
  for v = 0 to n - 1 do
    Alcotest.(check int64) (Printf.sprintf "v%d" v) (Int64.of_int (v * 11)) (Exec.rf_read ctx (8 * v))
  done

let test_regalloc_dead_marking () =
  let open Hir in
  let instrs =
    [| Mov (Vreg 0, Imm 1L); Mov (Vreg 1, Imm 2L); Strf (0, Vreg 0); Exit 0 |]
  in
  let ra = Regalloc.run instrs in
  Alcotest.(check int) "one dead instr" 1 ra.Regalloc.n_dead;
  Alcotest.(check bool) "the unused def is dead" true ra.Regalloc.dead.(1)

(* --- DAG emitter --------------------------------------------------------------- *)

let dag_config : Dag.config =
  {
    Dag.bank_offset = (fun ~bank ~index -> (bank * 256) + (8 * index));
    slot_offset = (fun s -> 512 + (8 * s));
    lower_intrinsic = (fun _ -> Dag.L_inline);
    effect_helper = (fun _ -> 0);
    coproc_read_helper = 0;
    coproc_write_helper = 0;
    split_va_check = false;
    as_switch_helper = 0;
  }

let count_instrs pred instrs = Array.fold_left (fun n i -> if pred i then n + 1 else n) 0 instrs

let test_dag_cse () =
  let d = Dag.create dag_config in
  let em = Dag.emitter d in
  let open Ssa.Emitter in
  (* Two reads of the same register feeding two stores: one load emitted. *)
  let a = em.load_bankreg ~bank:0 ~index:1 in
  let b = em.load_bankreg ~bank:0 ~index:1 in
  em.store_bankreg ~bank:0 ~index:2 (em.binary Adl.Ast.Add ~signed:false a b);
  Dag.raw d (Hir.Exit 0);
  let instrs = Dag.finish d in
  Alcotest.(check int) "single load" 1
    (count_instrs (function Hir.Ldrf _ -> true | _ -> false) instrs)

let test_dag_pc_specialization () =
  let d = Dag.create dag_config in
  let em = Dag.emitter d in
  let open Ssa.Emitter in
  (* store_pc (pc + 12) must collapse to a single Inc_pc (Fig. 9d). *)
  let pc = em.load_pc () in
  em.store_pc (em.binary Adl.Ast.Add ~signed:false pc (em.const 12L));
  Dag.raw d (Hir.Exit 0);
  let instrs = Dag.finish d in
  Alcotest.(check int) "inc_pc emitted" 1
    (count_instrs (function Hir.Inc_pc 12 -> true | _ -> false) instrs);
  Alcotest.(check int) "no load_pc" 0
    (count_instrs (function Hir.Load_pc _ -> true | _ -> false) instrs)

let test_dag_store_load_hazard () =
  let d = Dag.create dag_config in
  let em = Dag.emitter d in
  let open Ssa.Emitter in
  (* Read r1 lazily, overwrite r1, then consume the old value: the load
     must have been forced before the store. *)
  let old = em.load_bankreg ~bank:0 ~index:1 in
  em.store_bankreg ~bank:0 ~index:1 (em.const 99L);
  em.store_bankreg ~bank:0 ~index:2 old;
  Dag.raw d (Hir.Exit 0);
  let ra = Regalloc.run (Dag.finish d) in
  let p = Encode.decode_program ~n_slots:ra.Regalloc.n_slots (Encode.encode ra) in
  let ctx = mk_ctx () in
  Exec.rf_write ctx 8 42L; (* r1 = 42 *)
  ignore (Exec.run ctx (Exec.compile p));
  Alcotest.(check int64) "r1 overwritten" 99L (Exec.rf_read ctx 8);
  Alcotest.(check int64) "r2 got the pre-store value" 42L (Exec.rf_read ctx 16)

let test_dag_sqrt_fixup () =
  (* Table 2: guest sees the ARM-style +NaN even though the host sqrt
     produces the x86 -NaN; NaN inputs propagate untouched. *)
  let run_sqrt input =
    let d = Dag.create dag_config in
    let em = Dag.emitter d in
    let open Ssa.Emitter in
    em.store_bankreg ~bank:0 ~index:0 (em.intrinsic "fp64_sqrt" [ em.const input ]);
    Dag.raw d (Hir.Exit 0);
    let ra = Regalloc.run (Dag.finish d) in
    let p = Encode.decode_program ~n_slots:ra.Regalloc.n_slots (Encode.encode ra) in
    let ctx = mk_ctx () in
    ignore (Exec.run ctx (Exec.compile p));
    Exec.rf_read ctx 0
  in
  Alcotest.(check int64) "sqrt(-0.5) = +default NaN" 0x7FF8000000000000L
    (run_sqrt (Int64.bits_of_float (-0.5)));
  Alcotest.(check int64) "sqrt(4.0) = 2.0" (Int64.bits_of_float 2.0)
    (run_sqrt (Int64.bits_of_float 4.0));
  Alcotest.(check int64) "sqrt(-nan) propagates" 0xFFF8000000000000L (run_sqrt 0xFFF8000000000000L);
  Alcotest.(check int64) "sqrt(-0.0) = -0.0" (Int64.bits_of_float (-0.0))
    (run_sqrt (Int64.bits_of_float (-0.0)))

let test_gen_with_dag_matches_interp () =
  (* The generator over the DAG backend must agree with the direct SSA
     interpreter on the toy architecture. *)
  let model = Lazy.force Toy_arch.model in
  let prng = Dbt_util.Prng.create 7L in
  for _ = 1 to 60 do
    let r n = Dbt_util.Prng.int prng n in
    let word =
      match r 5 with
      | 0 -> Toy_arch.enc_add ~rd:(r 16) ~ra:(r 16) ~rb:(r 16) ~imm:(r 4096)
      | 1 -> Toy_arch.enc_addi ~rd:(r 16) ~ra:(r 16) ~imm:(r 65536)
      | 2 -> Toy_arch.enc_csel ~rd:(r 16) ~ra:(r 16) ~rb:(r 16) ~cond:(r 16)
      | 3 -> Toy_arch.enc_shl ~rd:(r 16) ~ra:(r 16) ~sh:(r 128)
      | _ -> Toy_arch.enc_loopy ~rd:(r 16) ~n:(r 16)
    in
    let d = Option.get (Ssa.Offline.decode model word) in
    let action = Ssa.Offline.action model d.Adl.Decode.name in
    let field n = List.assoc n d.Adl.Decode.field_values in
    (* oracle *)
    let st = Toy_arch.fresh_state () in
    for i = 0 to 15 do
      st.Toy_arch.gpr.(i) <- Dbt_util.Prng.int64 prng
    done;
    st.Toy_arch.slots.(1) <- Int64.of_int (r 16);
    let expected = Toy_arch.clone_state st in
    Ssa.Interp.run (Toy_arch.interp_state expected) action ~field;
    (* DAG backend *)
    let cfg =
      { dag_config with Dag.bank_offset = (fun ~bank:_ ~index -> 8 * index); slot_offset = (fun s -> 256 + (8 * s)) }
    in
    let dg = Dag.create cfg in
    Ssa.Gen.translate (Dag.emitter dg) action ~field ~inc_pc:None;
    Dag.raw dg (Hir.Exit 0);
    let ra = Regalloc.run (Dag.finish dg) in
    let p = Encode.decode_program ~n_slots:ra.Regalloc.n_slots (Encode.encode ra) in
    let ctx = mk_ctx () in
    for i = 0 to 15 do
      Exec.rf_write ctx (8 * i) st.Toy_arch.gpr.(i)
    done;
    Exec.rf_write ctx (256 + 8) st.Toy_arch.slots.(1);
    ignore (Exec.run ctx (Exec.compile p));
    for i = 0 to 15 do
      if Exec.rf_read ctx (8 * i) <> expected.Toy_arch.gpr.(i) then
        Alcotest.failf "%s (word %Lx): gpr%d = %Lx, expected %Lx" d.Adl.Decode.name word i
          (Exec.rf_read ctx (8 * i))
          expected.Toy_arch.gpr.(i)
    done
  done

(* --- executor: fault protocol, write-back map, exact charging ---------------- *)

module Cost = Hvm.Cost

(* An index-form program, as Encode.decode_program produces. *)
let indexed ?(n_slots = 0) ?(wb_map = [||]) code =
  { Encode.code; offsets = Array.map (fun _ -> 0) code; byte_size = 0; n_slots; wb_map }

(* A context whose data accesses fault: paging on, over an empty page
   table.  [handler] sees every fault and answers it. *)
let faulting_ctx ?(helpers = [||]) handler =
  let machine = Machine.create ~mem_size:(4 * 1024 * 1024) () in
  machine.Machine.paging <- true;
  machine.Machine.cr3 <- 0x10000L;
  (machine, Exec.create ~machine ~helpers ~fault_handler:handler)

let test_fault_retry () =
  let calls = ref 0 in
  let machine, ctx =
    faulting_ctx (fun ctx _ _ ~bits:_ ~value:_ ->
        incr calls;
        ctx.Exec.machine.Machine.paging <- false;
        Exec.Retry)
  in
  Hvm.Mem.write64 machine.Machine.mem 0x2000L 0x1234L;
  let open Hir in
  let slot =
    Exec.run ctx (Exec.compile (indexed [| Mov (Preg 1, Imm 0x2000L); Mem_ld (64, Preg 2, Preg 1); Exit 7 |]))
  in
  Alcotest.(check int) "exit slot" 7 slot;
  Alcotest.(check int) "handler called once" 1 !calls;
  Alcotest.(check int64) "retried load completed" 0x1234L (Exec.get_reg ctx 2);
  Alcotest.(check int) "faulting load counted twice" 4 ctx.Exec.instrs_executed;
  (* mov; load: access + walk, then the fault round trip; re-executed
     load: access again; exit is free *)
  Alcotest.(check int) "cycles"
    (Cost.mov + Cost.mem_access + Cost.tlb_miss_walk + Cost.fault_roundtrip + Cost.mem_access)
    machine.Machine.cycles

let test_fault_mmio () =
  let seen = ref [] in
  let _, ctx =
    faulting_ctx (fun _ access _ ~bits ~value ->
        seen := (access, bits, value) :: !seen;
        match access with Machine.Write -> Exec.Mmio_done | _ -> Exec.Mmio_value 77L)
  in
  let open Hir in
  let p =
    [|
      Mov (Preg 1, Imm 0x2000L);
      Mem_ld (64, Preg 2, Preg 1);
      Mem_ld (32, Slot 0, Preg 1);
      Mov (Preg 3, Slot 0);
      Mov (Preg 4, Imm 5L);
      Mem_st (16, Preg 1, Preg 4);
      Exit 0;
    |]
  in
  ignore (Exec.run ctx (Exec.compile (indexed ~n_slots:1 p)));
  Alcotest.(check int64) "Mmio_value fills a register destination" 77L (Exec.get_reg ctx 2);
  Alcotest.(check int64) "Mmio_value fills a slot destination" 77L (Exec.get_reg ctx 3);
  Alcotest.(check int) "every instruction once: Mmio advances" 7 ctx.Exec.instrs_executed;
  Alcotest.(check bool)
    "handler saw width and store value" true
    (List.rev !seen
    = [ (Machine.Read, 64, None); (Machine.Read, 32, None); (Machine.Write, 16, Some 5L) ])

let test_fault_sees_flushed_wb () =
  let flushed = ref 0L in
  let _, ctx =
    faulting_ctx (fun ctx _ _ ~bits:_ ~value:_ ->
        flushed := Exec.rf_read ctx 24;
        Exec.Mmio_value 0L)
  in
  let open Hir in
  let p = [| Mov (Preg 4, Imm 99L); Mov (Preg 1, Imm 0x2000L); Mem_ld (64, Preg 2, Preg 1); Exit 0 |] in
  ignore (Exec.run ctx (Exec.compile (indexed ~wb_map:[| (Preg 4, 24) |] p)));
  Alcotest.(check int64) "handler reads the promoted register" 99L !flushed;
  (* one flush before the handler, one at the exit *)
  Alcotest.(check int) "writebacks counted as rf stores" 2 ctx.Exec.rf_stores;
  (* two movs; the load's access, walk and fault round trip; one cycle
     per writeback *)
  Alcotest.(check int) "writebacks charged"
    (Cost.mov + Cost.mov + Cost.mem_access + Cost.tlb_miss_walk + Cost.fault_roundtrip + 2)
    ctx.Exec.machine.Machine.cycles

let test_exit_and_poll_apply_wb () =
  let open Hir in
  let wb_map = [| (Preg 4, 8); (Slot 0, 16) |] in
  let p = indexed ~n_slots:1 ~wb_map [| Mov (Preg 4, Imm 11L); Mov (Slot 0, Imm 22L); Poll 5; Exit 3 |] in
  let code = Exec.compile p in
  let fresh () =
    let ctx = mk_ctx () in
    (ctx, ctx.Exec.machine)
  in
  (* Poll with the budget exhausted: bails through slot 5 *)
  let ctx, m = fresh () in
  ctx.Exec.poll_budget <- 0;
  Alcotest.(check int) "poll exit slot" 5 (Exec.run ctx code);
  Alcotest.(check int64) "poll flushed the register" 11L (Exec.rf_read ctx 8);
  Alcotest.(check int64) "poll flushed the slot" 22L (Exec.rf_read ctx 16);
  Alcotest.(check int) "two writebacks" 2 ctx.Exec.rf_stores;
  (* mov; mov to a slot (+1); poll free; 2 writebacks (+1 for the slot read) *)
  Alcotest.(check int) "poll exit cycles" (Cost.mov + Cost.mov + 1 + 2 + 1) m.Machine.cycles;
  (* Poll with budget left: falls through to the exit, which flushes *)
  let ctx, _ = fresh () in
  ctx.Exec.poll_budget <- 10;
  Alcotest.(check int) "exit slot" 3 (Exec.run ctx code);
  Alcotest.(check int) "poll consumed one block" 9 ctx.Exec.poll_budget;
  Alcotest.(check int64) "exit flushed the register" 11L (Exec.rf_read ctx 8);
  Alcotest.(check int64) "exit flushed the slot" 22L (Exec.rf_read ctx 16)

let test_exact_cycles_with_slots () =
  let open Hir in
  let p =
    [|
      Mov (Slot 0, Imm 5L);
      Alu (Aadd, Preg 1, Slot 0, Imm 3L);
      Alu (Amul, Slot 1, Preg 1, Slot 0);
      Setcc (Cult, Preg 2, Slot 1, Imm 100L);
      Strf (0, Slot 1);
      Ldrf (Slot 2, 0);
      Jmp 7;
      Label 0;
      Exit 0;
    |]
  in
  let ctx = mk_ctx () in
  ignore (Exec.run ctx (Exec.compile (indexed ~n_slots:3 p)));
  Alcotest.(check int64) "r1 = 5 + 3" 8L (Exec.get_reg ctx 1);
  Alcotest.(check int64) "r2 = (40 <u 100)" 1L (Exec.get_reg ctx 2);
  Alcotest.(check int64) "rf[0] = 8 * 5" 40L (Exec.rf_read ctx 0);
  Alcotest.(check int) "instructions" 9 ctx.Exec.instrs_executed;
  Alcotest.(check int) "rf loads" 1 ctx.Exec.rf_loads;
  Alcotest.(check int) "rf stores" 1 ctx.Exec.rf_stores;
  (* each instruction's cost plus one cycle per Slot access *)
  Alcotest.(check int) "cycles"
    ((Cost.mov + 1) + (Cost.alu + 1) + (Cost.int_mul + 2) + (Cost.mov + 1) + (1 + 1) + (1 + 1)
   + Cost.branch + 0 + 0)
    ctx.Exec.machine.Machine.cycles

let test_errors_at_execution () =
  let open Hir in
  (* compiling never raises; executing the bad instruction does, after
     it has been charged and counted *)
  let vreg = Exec.compile (indexed [| Mov (Preg 0, Imm 1L); Alu (Aadd, Preg 1, Vreg 3, Imm 1L); Exit 0 |]) in
  let off_end = Exec.compile (indexed [| Mov (Preg 0, Imm 1L) |]) in
  let ctx = mk_ctx () in
  Alcotest.check_raises "virtual register" (Invalid_argument "executor: virtual register") (fun () ->
      ignore (Exec.run ctx vreg));
  Alcotest.(check int) "vreg instruction counted" 2 ctx.Exec.instrs_executed;
  let ctx = mk_ctx () in
  Alcotest.check_raises "fell off the end"
    (Invalid_argument "translation fell off the end without an exit") (fun () ->
      ignore (Exec.run ctx off_end));
  Alcotest.(check int) "nothing counted past the end" 1 ctx.Exec.instrs_executed

(* --- executor: segment charging against a per-instruction reference ----

   Random programs (ALU ops on registers, immediates and spill slots,
   register-file traffic, [Inc_pc], counted loops with a [Poll], if/else
   on a register or slot, jumped-over code, helper calls and memory
   accesses whose fault handler answers [Retry], [Mmio_value] or
   [Mmio_done]) run through [Exec] and through a stepper here that
   charges [Exec.instr_cost] plus one cycle per [Slot] access before each
   instruction, as charging per instruction would.  The handler and the
   helper record the cycle count, the instruction count and the PC at
   every call; both runs must record the same, and end in the same
   state. *)

type item =
  | Straight of Hir.instr list
  | Loop of int * item list (* trip count (counter r11, test r10), body *)
  | If of Hir.operand * item list * item list
  | Skip of Hir.instr list (* jumped over *)

(* Addresses with bit 8 clear fault to [Retry] (the handler turns paging
   off); the others to device emulation.  The helper turns paging back
   on, after a load from a [Retry] address of its own. *)
let seg_addrs = [| 0x2000L; 0x2008L; 0x2100L; 0x2108L; 0x3010L; 0x3110L |]

type seen = string * int * int * int64 (* who, cycles, instructions, PC *)

let seg_ctx ~budget =
  let log : seen list ref = ref [] in
  let note who ctx =
    log := (who, ctx.Exec.machine.Machine.cycles, ctx.Exec.instrs_executed, Exec.get_pc ctx) :: !log
  in
  let helper =
    {
      Exec.fn =
        (fun ctx args ->
          note "helper" ctx;
          let m = ctx.Exec.machine in
          let v = Machine.mem_read m ~bits:64 0x2000L in
          m.Machine.paging <- true;
          Array.fold_left Int64.add v args);
      cost = 7;
    }
  in
  let handler ctx access va ~bits ~value =
    note (Printf.sprintf "fault %Lx/%d/%s" va bits (Option.fold ~none:"-" ~some:Int64.to_string value)) ctx;
    let m = ctx.Exec.machine in
    if Int64.logand va 0x100L = 0L then begin
      m.Machine.paging <- false;
      Exec.Retry
    end
    else match access with Machine.Read -> Exec.Mmio_value (Int64.of_int m.Machine.cycles) | _ -> Exec.Mmio_done
  in
  let _, ctx = faulting_ctx ~helpers:[| helper |] handler in
  ctx.Exec.poll_budget <- budget;
  (ctx, log)

let gen_program =
  let open QCheck2.Gen in
  let open Hir in
  let reg = map (fun r -> Preg r) (int_range 0 9) in
  let slot = map (fun s -> Slot s) (int_range 0 3) in
  let imm = map (fun k -> Imm (Int64.of_int k)) (int_range (-300) 300) in
  let dst = frequency [ (3, reg); (1, slot) ] in
  let src = frequency [ (3, reg); (1, slot); (2, imm) ] in
  let regimm = oneof [ reg; imm ] in
  let addr = map (fun i -> seg_addrs.(i)) (int_bound (Array.length seg_addrs - 1)) in
  let width = oneofl [ 8; 16; 32; 64 ] in
  let off = map (fun k -> 8 * k) (int_bound 7) in
  let op =
    frequency
      [
        ( 4,
          map3
            (fun (o, d) a b -> Alu (o, d, a, b))
            (pair (oneofl [ Aadd; Asub; Axor; Amul; Ashl; Asar ]) dst)
            reg src );
        (2, map2 (fun d s -> Mov (d, s)) dst src);
        (1, map3 (fun d a b -> Setcc (Cult, d, a, b)) dst reg src);
        (1, map2 (fun d s -> Not (d, s)) dst src);
        (1, map3 (fun d c a -> Cmov (d, c, a, Imm 1L)) dst reg src);
        (2, map2 (fun d o -> Ldrf (d, o)) dst off);
        (2, map2 (fun o s -> Strf (o, s)) off src);
        (1, map (fun k -> Inc_pc (4 * k)) (int_range 1 3));
        (1, map (fun d -> Load_pc d) reg);
        (1, map (fun l -> Label (100 + l)) (int_bound 9)) (* no jump targets labels from 100 up *);
      ]
  in
  let access =
    frequency
      [
        (2, map3 (fun w d a -> [ Mov (Preg 12, Imm a); Mem_ld (w, d, Preg 12) ]) width reg addr);
        (2, map3 (fun w v a -> [ Mov (Preg 12, Imm a); Mem_st (w, Preg 12, v) ]) width regimm addr);
        (1, map3 (fun w d a -> [ Mem_ld (w, d, Imm a) ]) width reg addr);
        (1, map3 (fun w v a -> [ Mem_st (w, Imm a, v) ]) width regimm addr);
      ]
  in
  let call =
    map2
      (fun a ret -> [ Call (0, [| a; Imm 5L |], if ret then Some (Preg 3) else None) ])
      regimm bool
  in
  let straight =
    frequency
      [
        (6, map (fun l -> Straight l) (list_size (int_range 1 7) op));
        (3, map (fun l -> Straight l) access);
        (1, map (fun l -> Straight l) call);
        (1, map (fun s -> Straight [ Poll s ]) (int_range 1 3));
        (1, map (fun l -> Skip l) (list_size (int_range 1 3) op));
      ]
  in
  let flat = list_size (int_range 0 4) straight in
  let item =
    frequency
      [
        (5, straight);
        (2, map2 (fun k body -> Loop (k, body)) (int_range 1 4) flat);
        (2, map3 (fun c t e -> If (c, t, e)) (oneof [ reg; slot ]) flat flat);
      ]
  in
  let wb = oneofl [ [||]; [| (Preg 0, 64); (Preg 5, 72) |]; [| (Preg 1, 80); (Slot 2, 88) |] ] in
  triple (list_size (int_range 1 10) item) wb (int_range 0 40)

(* Lower the items to an index-form program: labels become the indices
   of their [Label] instructions. *)
let lower_program items =
  let open Hir in
  let next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  let rec lower = function
    | Straight l -> l
    | Skip l ->
      let out = fresh () in
      (Jmp out :: l) @ [ Label out ]
    | Loop (k, body) ->
      let top = fresh () and out = fresh () in
      [ Mov (Preg 11, Imm (Int64.of_int k)); Label top; Poll 1 ]
      @ List.concat_map lower body
      @ [
          Alu (Asub, Preg 11, Preg 11, Imm 1L);
          Setcc (Cne, Preg 10, Preg 11, Imm 0L);
          Br (Preg 10, top, out);
          Label out;
        ]
    | If (c, t, e) ->
      let lt = fresh () and le = fresh () and join = fresh () in
      (Br (c, lt, le) :: Label lt :: List.concat_map lower t)
      @ (Jmp join :: Label le :: List.concat_map lower e)
      @ [ Label join ]
  in
  let code = Array.of_list (List.concat_map lower items @ [ Exit 0 ]) in
  let at = Hashtbl.create 16 in
  Array.iteri (fun i ins -> match ins with Label l when l < 100 -> Hashtbl.replace at l i | _ -> ()) code;
  Array.map (Hir.map_labels (fun l -> Option.value ~default:l (Hashtbl.find_opt at l))) code

(* The reference: one instruction at a time, each charged in full before
   it acts; faults delivered as [Exec] documents it. *)
let reference_run ctx (p : Encode.program) =
  let open Hir in
  let m = ctx.Exec.machine in
  ctx.Exec.slots <- Bytes.make (8 * p.Encode.n_slots) '\000';
  let charge n = m.Machine.cycles <- m.Machine.cycles + n in
  let get = function
    | Preg r -> Exec.get_reg ctx r
    | Imm k -> k
    | Slot s -> Bytes.get_int64_ne ctx.Exec.slots (8 * s)
    | Vreg _ -> assert false
  in
  (* a [Cmov] reads only the operand it selects *)
  let slots_of ins =
    let n = List.fold_left (fun n o -> match o with Slot _ -> n + 1 | _ -> n) 0 in
    match ins with
    | Cmov (d, c, a, b) -> n [ d; c; (if get c <> 0L then a else b) ]
    | _ -> n (Option.to_list (Hir.dest ins) @ Hir.sources ins)
  in
  let set o v =
    match o with
    | Preg r -> Exec.set_reg ctx r v
    | Slot s -> Bytes.set_int64_ne ctx.Exec.slots (8 * s) v
    | _ -> assert false
  in
  let wb () =
    Array.iter
      (fun (o, off) ->
        charge (match o with Slot _ -> 2 | _ -> 1);
        ctx.Exec.rf_stores <- ctx.Exec.rf_stores + 1;
        Exec.rf_write ctx off (get o))
      p.Encode.wb_map
  in
  let rec step i =
    let ins = p.Encode.code.(i) in
    charge (Exec.instr_cost ins + slots_of ins);
    ctx.Exec.instrs_executed <- ctx.Exec.instrs_executed + 1;
    let fault va access =
      m.Machine.faults <- m.Machine.faults + 1;
      charge Cost.fault_roundtrip;
      wb ();
      let bits, value =
        match ins with Mem_ld (w, _, _) -> (w, None) | Mem_st (w, _, v) -> (w, Some (get v)) | _ -> (0, None)
      in
      match (ctx.Exec.fault_handler ctx access va ~bits ~value, ins) with
      | Exec.Retry, _ -> step i
      | Exec.Mmio_value v, Mem_ld (_, d, _) ->
        set d v;
        step (i + 1)
      | _ -> step (i + 1)
    in
    match ins with
    | Exit s ->
      wb ();
      s
    | Jmp t -> step t
    | Br (c, t, f) -> step (if get c <> 0L then t else f)
    | Poll s ->
      let held = ctx.Exec.irq_held in
      ctx.Exec.irq_held <- false;
      if
        Exec.get_reg ctx Hir.region_poison_preg <> 0L
        || ctx.Exec.poll_budget <= 0
        || m.Machine.cycles >= ctx.Exec.poll_deadline
        || (Machine.irq_pending m && not held)
      then begin
        wb ();
        s
      end
      else begin
        ctx.Exec.poll_budget <- ctx.Exec.poll_budget - 1;
        step (i + 1)
      end
    | Mem_ld (w, d, a) -> (
      match Machine.mem_read m ~bits:w (get a) with
      | v ->
        set d v;
        step (i + 1)
      | exception Machine.Host_fault { va; access } -> fault va access)
    | Mem_st (w, a, v) -> (
      match Machine.mem_write m ~bits:w (get a) (get v) with
      | () -> step (i + 1)
      | exception Machine.Host_fault { va; access } -> fault va access)
    | Call (h, args, ret) -> (
      let helper = ctx.Exec.helpers.(h) in
      charge helper.Exec.cost;
      match helper.Exec.fn ctx (Array.map get args) with
      | r ->
        Option.iter (fun d -> set d r) ret;
        step (i + 1)
      | exception Machine.Host_fault { va; access } -> fault va access)
    | _ ->
      (match ins with
      | Label _ | Wbmap _ -> ()
      | Mov (d, s) -> set d (get s)
      | Alu (op, d, a, b) -> set d (Exec.exec_alu op (get a) (get b))
      | Setcc (c, d, a, b) -> set d (if Exec.cond_holds c (get a) (get b) then 1L else 0L)
      | Not (d, s) -> set d (Int64.lognot (get s))
      | Cmov (d, c, a, b) -> set d (if get c <> 0L then get a else get b)
      | Ldrf (d, off) ->
        ctx.Exec.rf_loads <- ctx.Exec.rf_loads + 1;
        set d (Exec.rf_read ctx off)
      | Strf (off, s) ->
        ctx.Exec.rf_stores <- ctx.Exec.rf_stores + 1;
        Exec.rf_write ctx off (get s)
      | Inc_pc k -> Exec.set_pc ctx (Int64.add (Exec.get_pc ctx) (Int64.of_int k))
      | Load_pc d -> set d (Exec.get_pc ctx)
      | _ -> Alcotest.failf "reference: %s not modelled" (Hir.to_string ins));
      step (i + 1)
  in
  step 0

let seg_outcome ctx log slot =
  let m = ctx.Exec.machine in
  ( slot,
    List.rev !log,
    [
      m.Machine.cycles; ctx.Exec.instrs_executed; ctx.Exec.rf_loads; ctx.Exec.rf_stores; m.Machine.faults;
      ctx.Exec.poll_budget;
    ],
    Exec.get_pc ctx :: List.init 16 (Exec.get_reg ctx) @ List.init 12 (fun i -> Exec.rf_read ctx (8 * i))
    @ List.init 4 (fun s -> Bytes.get_int64_ne ctx.Exec.slots (8 * s)) )

let prop_segments_match_reference =
  QCheck2.Test.make ~name:"exec: segment charging = per-instruction reference" ~count:300
    ~print:(fun (items, wb_map, budget) ->
      Printf.sprintf "budget %d, wb_map %d entries\n%s" budget (Array.length wb_map)
        (String.concat "\n"
           (Array.to_list (Array.mapi (Printf.sprintf "%3d  %s") (Array.map Hir.to_string (lower_program items))))))
    gen_program
    (fun (items, wb_map, budget) ->
      let p = indexed ~n_slots:4 ~wb_map (lower_program items) in
      let ctx, log = seg_ctx ~budget in
      let slot = Exec.run ctx (Exec.compile p) in
      let ref_ctx, ref_log = seg_ctx ~budget in
      let ref_slot = reference_run ref_ctx p in
      let got = seg_outcome ctx log slot and want = seg_outcome ref_ctx ref_log ref_slot in
      got = want || QCheck2.Test.fail_reportf "executor and reference differ")

(* --- executor: the memory fast path against the [Machine] path ---------

   A register-addressed [Mem_ld]/[Mem_st] may complete in the executor;
   the same access with an immediate address always goes through the
   generic closure and [Machine.mem_read]/[mem_write].  Each case runs
   both on identically prepared machines and compares everything the
   access may touch. *)

module Pt = Hvm.Pagetable
module Tlb = Hvm.Tlb

let rw = { Pt.writable = true; user = true; executable = false }
let page_va = 0x40_0000L
let page_pa = 0x20_0000L (* below the page-table reserve, the top 1 MiB *)

(* A 4 MiB board with paging on and [page_va] mapped to [page_pa] with
   [flags]; the fault handler makes the page user-writable and retries. *)
let paged_machine flags =
  let m, _, _, _ = Machine.board ~mem_size:(4 * 1024 * 1024) in
  let root = Hvm.Palloc.alloc m.Machine.palloc in
  m.Machine.cr3 <- root;
  m.Machine.paging <- true;
  Pt.map m.Machine.mem m.Machine.palloc ~root page_va page_pa flags;
  let handler ctx _ va ~bits:_ ~value:_ =
    let m = ctx.Exec.machine in
    let page = Dbt_util.Bits.align_down va 4096 in
    let pa =
      match fst (Pt.walk m.Machine.mem ~root page) with Some (_, pte) -> Pt.frame_of pte | None -> page
    in
    Pt.map m.Machine.mem m.Machine.palloc ~root page pa rw;
    Tlb.flush_page m.Machine.tlb (Int64.shift_right_logical page 12);
    Exec.Retry
  in
  (m, handler)

(* Fill the TLB entry of [va] through the hardware walk. *)
let prime m va = ignore (Machine.translate m ~access:Machine.Read va)

let mem_outcome ~setup ~write ~bits va =
  let run fast =
    let m, handler = setup () in
    let ctx = Exec.create ~machine:m ~helpers:[||] ~fault_handler:handler in
    let open Hir in
    let access =
      match (write, fast) with
      | false, true -> Mem_ld (bits, Preg 2, Preg 1)
      | false, false -> Mem_ld (bits, Preg 2, Imm va)
      | true, true -> Mem_st (bits, Preg 1, Imm 0x1122334455667788L)
      | true, false -> Mem_st (bits, Imm va, Imm 0x1122334455667788L)
    in
    let result =
      match Exec.run ctx (Exec.compile (indexed [| Mov (Preg 1, Imm va); access; Exit 0 |])) with
      | _ -> "ok"
      | exception e -> Printexc.to_string e
    in
    let tlb = m.Machine.tlb in
    let counts =
      [
        m.Machine.cycles; m.Machine.mem_ops; m.Machine.faults; tlb.Tlb.hits; tlb.Tlb.misses;
        ctx.Exec.instrs_executed; Hvm.Mem.resident_frames m.Machine.mem;
      ]
    in
    (* the RAM word holding the access; translating it moves the counters *)
    let word =
      try Hvm.Mem.read64 m.Machine.mem (Int64.logand (Machine.translate m ~access:Machine.Read va) (-8L))
      with Hvm.Mem.Bus_error _ -> 0L
    in
    (result, counts, Exec.get_reg ctx 2, word)
  in
  let fast = run true in
  (fast, run false)

let check_mem_case name ~setup ~write ?(bits = 64) va () =
  let (r, counts, v, word), (r', counts', v', word') = mem_outcome ~setup ~write ~bits va in
  Alcotest.(check string) (name ^ ": outcome") r' r;
  Alcotest.(check (list int))
    (name ^ ": cycles, mem_ops, faults, tlb hits/misses, instrs, frames")
    counts' counts;
  Alcotest.(check int64) (name ^ ": loaded value") v' v;
  Alcotest.(check int64) (name ^ ": memory") word' word

let with_data flags () =
  let m, h = paged_machine flags in
  Hvm.Mem.write64 m.Machine.mem (Int64.add page_pa 0xFF8L) 0x0102030405060708L;
  Hvm.Mem.write64 m.Machine.mem (Int64.add page_pa 0x1000L) 0x1112131415161718L;
  (m, h)

let primed flags () =
  let m, h = with_data flags () in
  prime m page_va;
  (m, h)

let test_fast_hit () =
  List.iter
    (fun bits ->
      let name = Printf.sprintf "hit, %d-bit" bits in
      check_mem_case (name ^ " load") ~setup:(primed rw) ~write:false ~bits (Int64.add page_va 0xFF8L) ();
      check_mem_case (name ^ " store") ~setup:(primed rw) ~write:true ~bits (Int64.add page_va 0xFF8L) ())
    [ 8; 16; 32; 64 ];
  let (_, counts, _, _), _ = mem_outcome ~setup:(primed rw) ~write:false ~bits:64 page_va in
  Alcotest.(check int) "the hit counts as a TLB hit" 1 (List.nth counts 3)

let test_fast_paging_off () =
  let setup () =
    let m, h = with_data rw () in
    m.Machine.paging <- false;
    (m, h)
  in
  check_mem_case "paging off load" ~setup ~write:false (Int64.add page_pa 0xFF8L) ();
  check_mem_case "paging off store" ~setup ~write:true (Int64.add page_pa 0xFF8L) ()

let test_fast_tlb_miss () = check_mem_case "miss" ~setup:(with_data rw) ~write:false page_va ()

let test_fast_pcid () =
  let other_pcid global () =
    let m, h = with_data rw () in
    if global then
      Tlb.insert m.Machine.tlb ~pcid:0 ~vpn:(Int64.shift_right_logical page_va 12) ~frame:page_pa ~flags:rw
        ~global:true
    else prime m page_va;
    m.Machine.pcid <- 1;
    (m, h)
  in
  check_mem_case "pcid mismatch" ~setup:(other_pcid false) ~write:false page_va ();
  check_mem_case "global entry" ~setup:(other_pcid true) ~write:false page_va ()

let test_fast_permissions () =
  let kernel_page () =
    let m, h = primed { rw with Pt.user = false } () in
    m.Machine.ring <- 3;
    (m, h)
  in
  check_mem_case "ring 3, kernel page" ~setup:kernel_page ~write:false page_va ();
  check_mem_case "write to a read-only page"
    ~setup:(primed { rw with Pt.writable = false })
    ~write:true page_va ()

let test_fast_fallbacks () =
  let mapped_to pa () =
    let m, h = paged_machine rw in
    Pt.map m.Machine.mem m.Machine.palloc ~root:m.Machine.cr3 0x50_0000L pa rw;
    prime m 0x50_0000L;
    (m, h)
  in
  (* UART status register: tx ready *)
  check_mem_case "MMIO" ~setup:(mapped_to 0x0910_0000L) ~write:false ~bits:32 0x50_0004L ();
  check_mem_case "frame straddle load" ~setup:(primed rw) ~write:false (Int64.add page_va 0xFFCL) ();
  check_mem_case "frame straddle store" ~setup:(primed rw) ~write:true (Int64.add page_va 0xFFCL) ();
  let (r, _, _, _), _ =
    mem_outcome ~setup:(mapped_to 0x80_0000L) ~write:false ~bits:64 0x50_0000L
  in
  Alcotest.(check bool) ("out of RAM: " ^ r) true
    (String.length r > 13 && String.sub r 0 13 = "Mem.Bus_error");
  check_mem_case "out of RAM" ~setup:(mapped_to 0x80_0000L) ~write:false 0x50_0000L ();
  check_mem_case "first write to a zero frame" ~setup:(mapped_to 0x10_0000L) ~write:true 0x50_0010L ()

(* The quiet window after a false [irq_pending] ends on the timer
   event's own cycle, in [Machine] and in [Exec]'s inline test, and a
   device write closes it. *)
let test_quiet_window_edges () =
  let m, _, _, _ = Machine.board ~mem_size:(4 * 1024 * 1024) in
  let ctx = Exec.create ~machine:m ~helpers:[||] ~fault_handler:(fun _ _ _ ~bits:_ ~value:_ -> Exec.Retry) in
  let code = Exec.compile (indexed Hir.[| Poll 1; Exit 0 |]) in
  let poll () =
    ctx.Exec.irq_held <- false;
    Exec.run ctx code = 1
  in
  Machine.phys_write m ~bits:32 0x0900_0004L 2L (* intc: enable the timer's line *);
  Machine.phys_write m ~bits:32 0x0920_0000L 10L (* timer: load 10 *);
  Machine.phys_write m ~bits:32 0x0920_0008L 3L (* timer: run, interrupt on *);
  Alcotest.(check bool) "no IRQ at 0" false (Machine.irq_pending m);
  Machine.charge m 9;
  Alcotest.(check bool) "Exec: none at 9" false (poll ());
  Alcotest.(check bool) "Machine: none at 9" false (Machine.irq_pending m);
  Machine.charge m 1;
  Alcotest.(check bool) "Exec: IRQ at 10" true (poll ());
  Machine.phys_write m ~bits:32 0x0920_000CL 0L (* ack *);
  Machine.phys_write m ~bits:32 0x0920_0008L 0L (* stop the timer *);
  Alcotest.(check bool) "quiet for good" false (Machine.irq_pending m);
  Machine.phys_write m ~bits:32 0x0900_000CL 1L (* software-set line 1 *);
  Alcotest.(check bool) "Exec: the write closed the window" true (poll ())

(* Loads and stores that hit, clz and bit reversal, a segment longer than
   the unrolled bodies, a region-shaped loop (a [Poll] at its head, a
   register [Br] and a [Jmp] back), and the run itself, allocate
   nothing. *)
let test_fast_allocates_nothing () =
  let m, h = primed rw () in
  let ctx = Exec.create ~machine:m ~helpers:[||] ~fault_handler:h in
  let open Hir in
  let memory =
    [|
      Mov (Preg 1, Imm page_va);
      Mem_ld (64, Preg 2, Preg 1);
      Mem_st (32, Preg 1, Preg 2);
      Mem_ld (8, Preg 3, Preg 1);
      Mem_st (16, Preg 1, Imm 7L);
      Bit1 (Bclz64, Preg 4, Preg 2);
      Bit1 (Brbit64, Preg 5, Preg 2);
      Exit 0;
    |]
  in
  let long =
    Array.append
      (Array.init 9 (fun i -> Alu (Aadd, Preg (i mod 4), Preg ((i + 1) mod 4), Imm (Int64.of_int i))))
      [| Strf (0, Preg 0); Exit 0 |]
  in
  let loop =
    [|
      Ldrf (Preg 0, 8);
      Mov (Preg 1, Imm 20L);
      Label 0;
      Poll 1;
      Alu (Aadd, Preg 0, Preg 0, Preg 1);
      Alu (Asub, Preg 1, Preg 1, Imm 1L);
      Setcc (Cne, Preg 3, Preg 1, Imm 0L);
      Inc_pc 4;
      Br (Preg 3, 9, 10);
      Jmp 2;
      Strf (8, Preg 0);
      Exit 0;
    |]
  in
  List.iter
    (fun (name, p, per_run) ->
      let code = Exec.compile (indexed p) in
      let n0 = ctx.Exec.instrs_executed in
      ignore (Exec.run ctx code);
      Alcotest.(check int) (name ^ ": instructions per run") per_run (ctx.Exec.instrs_executed - n0);
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Exec.run ctx code)
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) (Printf.sprintf "%s: %.0f minor words < 100" name words) true (words < 100.))
    (* the loop: 2 set-up, 20 iterations of 7, 19 jumps back, 2 after *)
    [ ("memory", memory, 8); ("long segment", long, 11); ("region loop", loop, 2 + (20 * 7) + 19 + 2) ]

(* The specialised register/immediate shapes agree with the generic
   interpreter (reached by putting an operand in a spill slot). *)
let prop_specialised_matches_generic =
  let open Hir in
  let ops = [| Aadd; Asub; Aand; Aor; Axor; Ashl; Ashr; Asar; Amul |] in
  let conds = [| Ceq; Cne; Cult; Cule; Cugt; Cuge; Cslt; Csle; Csgt; Csge |] in
  QCheck2.Test.make ~name:"specialised shapes = generic interpreter" ~count:500
    QCheck2.Gen.(triple int64 int64 (int_range 0 63))
    (fun (x, y, k) ->
      let y = if k land 1 = 0 then y else Int64.of_int (k - 32) in
      let body =
        [
          Alu (ops.(k mod 9), Preg 3, Preg 1, Preg 2);
          Alu (ops.((k + 4) mod 9), Preg 4, Preg 1, Imm y);
          Setcc (conds.(k mod 10), Preg 5, Preg 1, Preg 2);
          Setcc (conds.((k + 3) mod 10), Preg 6, Preg 1, Imm y);
          Flags_add ((if k land 4 = 0 then 32 else 64), Preg 7, Preg 1, Preg 2, Imm (Int64.of_int (k land 1)));
          Bit2 (Bror64, Preg 8, Preg 1, Preg 2);
          Bit2 (Bror64, Preg 9, Preg 1, Imm y);
          Bit1 (Bswap64, Preg 10, Preg 1);
          Bit1 (Brbit64, Preg 11, Preg 1);
          Bit1 (Bclz64, Preg 12, Preg 1);
          Bit1 (Bclz64, Preg 13, Preg 14);
        ]
      in
      (* the generic twin reads its first operand, and r14 (x shifted
         right by k, so clz sees every count), from spill slots *)
      let slotted =
        List.map (Hir.map_sources (function Preg 1 -> Slot 0 | Preg 14 -> Slot 1 | o -> o)) body
      in
      let run body =
        let ctx = mk_ctx () in
        Exec.set_reg ctx 1 x;
        Exec.set_reg ctx 2 y;
        Exec.set_reg ctx 14 (Int64.shift_right_logical x k);
        let code = Array.of_list ((Mov (Slot 0, Preg 1) :: Mov (Slot 1, Preg 14) :: body) @ [ Exit 0 ]) in
        ignore (Exec.run ctx (Exec.compile (indexed ~n_slots:2 code)));
        List.init 14 (Exec.get_reg ctx)
      in
      run body = run slotted)

(* The tuple-free NZCV computation agrees with AddWithCarry
   (Bits.add_with_carry) and the bit-level flag definitions. *)
let prop_nzcv_matches_add_with_carry =
  QCheck2.Test.make ~name:"flags_add/logic NZCV = AddWithCarry model" ~count:2000
    QCheck2.Gen.(quad (oneof [ oneofl [ 32; 64 ]; int_range 1 64 ]) int64 int64 (int_range 0 2))
    (fun (width, a, b, cin) ->
      let module B = Dbt_util.Bits in
      let nzcv r c v =
        let bit x = if x then 1 else 0 in
        Int64.of_int
          ((bit (B.bit r (width - 1)) lsl 3)
          lor (bit (B.zero_extend r ~width = 0L) lsl 2)
          lor (bit c lsl 1) lor bit v)
      in
      let r, c, v = B.add_with_carry ~width a b (cin <> 0) in
      Exec.flags_add_nzcv ~width a b (Int64.of_int cin) = nzcv r c v
      && Exec.flags_logic_nzcv ~width a = nzcv a false false)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "hostir",
    [
      Alcotest.test_case "encode roundtrip" `Quick test_encode_roundtrip_straightline;
      Alcotest.test_case "encode jumps + patching" `Quick test_encode_jumps;
      q prop_regalloc_matches_vreg_interp;
      Alcotest.test_case "spilling under pressure" `Quick test_regalloc_spills_under_pressure;
      Alcotest.test_case "dead marking" `Quick test_regalloc_dead_marking;
      Alcotest.test_case "dag CSE" `Quick test_dag_cse;
      Alcotest.test_case "dag PC specialization (Fig 9d)" `Quick test_dag_pc_specialization;
      Alcotest.test_case "dag store/load hazard" `Quick test_dag_store_load_hazard;
      Alcotest.test_case "dag sqrt fix-up (Table 2)" `Quick test_dag_sqrt_fixup;
      Alcotest.test_case "generator+DAG vs interpreter (toy)" `Quick test_gen_with_dag_matches_interp;
      Alcotest.test_case "exec: Retry re-charges and re-counts" `Quick test_fault_retry;
      Alcotest.test_case "exec: Mmio_value/Mmio_done advance" `Quick test_fault_mmio;
      Alcotest.test_case "exec: handler sees flushed wb_map" `Quick test_fault_sees_flushed_wb;
      Alcotest.test_case "exec: Exit and Poll apply wb_map" `Quick test_exit_and_poll_apply_wb;
      Alcotest.test_case "exec: exact cycles with Slot operands" `Quick test_exact_cycles_with_slots;
      Alcotest.test_case "exec: bad operands raise when executed" `Quick test_errors_at_execution;
      Alcotest.test_case "exec fast path: TLB hit" `Quick test_fast_hit;
      Alcotest.test_case "exec fast path: paging off" `Quick test_fast_paging_off;
      Alcotest.test_case "exec fast path: TLB miss" `Quick test_fast_tlb_miss;
      Alcotest.test_case "exec fast path: PCID mismatch, global entry" `Quick test_fast_pcid;
      Alcotest.test_case "exec fast path: permission faults" `Quick test_fast_permissions;
      Alcotest.test_case "exec fast path: MMIO, straddle, out of RAM, zero frame" `Quick test_fast_fallbacks;
      Alcotest.test_case "exec fast path: allocates nothing" `Quick test_fast_allocates_nothing;
      Alcotest.test_case "exec: quiet window edges" `Quick test_quiet_window_edges;
      q prop_segments_match_reference;
      q prop_specialised_matches_generic;
      q prop_nzcv_matches_add_with_carry;
    ] )
