(* The assembled ARMv8-A guest: ADL model plus system-level hooks. *)

(* One model per optimization level, built on first use. *)
let model_at_level = Ssa.Offline.per_level Arm_descr.source

(* Lines of architecture description (the paper compares its 8,100-line
   model against QEMU's hand-written 17,766). *)
let adl_lines =
  List.length (String.split_on_char '\n' Arm_descr.source)

let ops ?opt_level () : Guest.Ops.ops =
  let model = model_at_level (Option.value opt_level ~default:4) in
  {
    Guest.Ops.name = "armv8-a";
    description = "64-bit ARMv8-A (AArch64) guest";
    model;
    insn_size = 4;
    regfile_size = Arm_sys.regfile_size;
    bank_offset = Arm_sys.bank_offset;
    slot_offset = Arm_sys.slot_offset;
    mmu_enabled = Arm_sys.mmu_enabled;
    mmu_translate = Arm_sys.mmu_translate;
    address_space = Arm_sys.address_space;
    privilege_level = Arm_sys.privilege_level;
    take_exception = (fun c ~ec ~iss -> Arm_sys.take_exception c ~ec ~iss);
    data_abort = (fun c ~va ~access ~fault -> Arm_sys.data_abort c ~va ~access ~fault);
    insn_abort = (fun c ~va ~fault -> Arm_sys.insn_abort c ~va ~fault);
    undefined_insn = Arm_sys.undefined_insn;
    eret = Arm_sys.eret;
    deliver_irq = Arm_sys.deliver_irq;
    coproc_read = Arm_sys.coproc_read;
    coproc_write = Arm_sys.coproc_write;
    reset = (fun c ~entry -> Arm_sys.reset c ~entry);
  }
