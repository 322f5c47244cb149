(* Glue shared by the DBT engines: building the guest sys_ctx over the
   executor state, and the helper tables that generated code calls into. *)

module Exec = Hostir.Exec
module Machine = Hvm.Machine
module Ops = Guest.Ops

let sys_ctx (guest : Ops.ops) (ctx : Exec.ctx) : Ops.sys_ctx =
  {
    Ops.read_reg = (fun slot -> Exec.rf_read ctx (guest.Ops.slot_offset slot));
    write_reg = (fun slot v -> Exec.rf_write ctx (guest.Ops.slot_offset slot) v);
    read_bank = (fun bank i -> Exec.rf_read ctx (guest.Ops.bank_offset ~bank ~index:i));
    write_bank = (fun bank i v -> Exec.rf_write ctx (guest.Ops.bank_offset ~bank ~index:i) v);
    get_pc = (fun () -> Exec.get_pc ctx);
    set_pc = (fun v -> Exec.set_pc ctx v);
    phys_read = (fun ~bits pa -> Machine.phys_read ctx.Exec.machine ~bits pa);
    cycles = (fun () -> ctx.Exec.machine.Machine.cycles);
  }

let access_of : Machine.access -> Ops.access = function
  | Machine.Read -> Ops.Aload
  | Machine.Write -> Ops.Astore
  | Machine.Exec -> Ops.Afetch

(* Fixed helper indices shared by both engines; engine-specific helpers
   (address-space switching, softmmu fills) use indices >= [first_free].
   The layout is owned by Hostir.Effects so the analyzer, the symbolic
   validator, and the engines all read one table; re-exported here for
   the existing call sites. *)
let h_coproc_read = Hostir.Effects.h_coproc_read
let h_coproc_write = Hostir.Effects.h_coproc_write
let h_take_exception = Hostir.Effects.h_take_exception
let h_eret = Hostir.Effects.h_eret
let h_tlb_flush = Hostir.Effects.h_tlb_flush
let h_tlb_flush_page = Hostir.Effects.h_tlb_flush_page
let h_halt = Hostir.Effects.h_halt
let h_wfi = Hostir.Effects.h_wfi
let h_barrier = Hostir.Effects.h_barrier
let h_as_switch = Hostir.Effects.h_as_switch
let h_softmmu_fill_read = Hostir.Effects.h_softmmu_fill_read
let h_softmmu_fill_write = Hostir.Effects.h_softmmu_fill_write
let first_softfloat = Hostir.Effects.first_softfloat

let effect_helper_index = function
  | "take_exception" -> h_take_exception
  | "eret" -> h_eret
  | "tlb_flush" -> h_tlb_flush
  | "tlb_flush_page" -> h_tlb_flush_page
  | "halt" -> h_halt
  | "wfi" -> h_wfi
  | "barrier" -> h_barrier
  | other -> invalid_arg ("no helper for effect " ^ other)

(* Softfloat helper table: every FP intrinsic evaluated through the shared
   softfloat implementation (QEMU-style FP, and Captive's Sec. 3.6.2
   ablation). *)
let softfloat_names =
  [
    "fp64_add"; "fp64_sub"; "fp64_mul"; "fp64_div"; "fp64_sqrt"; "fp64_min"; "fp64_max";
    "fp32_add"; "fp32_sub"; "fp32_mul"; "fp32_div"; "fp32_sqrt"; "fp32_min"; "fp32_max";
    "fp64_cmp_flags"; "fp32_cmp_flags"; "fp32_to_fp64"; "fp64_to_fp32"; "fp64_to_sint64";
    "fp64_to_uint64"; "fp32_to_sint32"; "sint64_to_fp64"; "uint64_to_fp64"; "sint32_to_fp32";
    "sint64_to_fp32"; "fp64_muladd";
  ]

let softfloat_index name =
  let rec go i = function
    | [] -> None
    | n :: rest -> if n = name then Some (first_softfloat + i) else go (i + 1) rest
  in
  go 0 softfloat_names

(* The invocation-DAG configuration of one guest.  With [hw_fp] every
   intrinsic is inlined; without it, the soft-FP ones call their softfloat
   helper.  [mmu_on] adds the split-VA check to memory accesses. *)
let dag_config (guest : Ops.ops) ~hw_fp ~mmu_on : Hostir.Dag.config =
  let lower_intrinsic name =
    match softfloat_index name with
    | Some h when not hw_fp -> Hostir.Dag.L_helper h
    | _ -> Hostir.Dag.L_inline
  in
  {
    Hostir.Dag.bank_offset = guest.Ops.bank_offset;
    slot_offset = guest.Ops.slot_offset;
    lower_intrinsic;
    effect_helper = effect_helper_index;
    coproc_read_helper = h_coproc_read;
    coproc_write_helper = h_coproc_write;
    split_va_check = mmu_on;
    as_switch_helper = h_as_switch;
  }

(* A softfloat helper evaluates the intrinsic via the ADL's own evaluator,
   so helper-based FP is bit-identical to translation-time folding.  The
   cost models QEMU's software FP routines (tens of cycles of integer
   work per operation, paper Sec. 2.5). *)
let softfloat_helper name : Exec.helper =
  {
    Exec.fn =
      (fun _ctx args ->
        match Adl.Eval.builtin name (Array.to_list args) with
        | Some v -> v
        | None -> invalid_arg ("softfloat helper " ^ name));
    cost = 55;
  }

(* How each helper affects symbolic state, for the translation validator
   (Hostir.Symexec) and the static analyzer (Hostir.Absint); the shared
   classification lives in Hostir.Effects. *)
let helper_kind h : Hostir.Symexec.helper_kind = Hostir.Effects.classify h
