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
let faulting_ctx handler =
  let machine = Machine.create ~mem_size:(4 * 1024 * 1024) () in
  machine.Machine.paging <- true;
  machine.Machine.cr3 <- 0x10000L;
  (machine, Exec.create ~machine ~helpers:[||] ~fault_handler:handler)

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
  Alcotest.(check int) "writebacks counted as rf stores" 2 ctx.Exec.rf_stores

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
        ]
      in
      (* the generic twin reads its first operand from a spill slot *)
      let slotted = List.map (Hir.map_sources (function Preg 1 -> Slot 0 | o -> o)) body in
      let run body =
        let ctx = mk_ctx () in
        Exec.set_reg ctx 1 x;
        Exec.set_reg ctx 2 y;
        let code = Array.of_list ((Mov (Slot 0, Preg 1) :: body) @ [ Exit 0 ]) in
        ignore (Exec.run ctx (Exec.compile (indexed ~n_slots:1 code)));
        List.init 8 (Exec.get_reg ctx)
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
      q prop_specialised_matches_generic;
      q prop_nzcv_matches_add_with_carry;
    ] )
