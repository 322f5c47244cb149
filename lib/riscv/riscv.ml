(* The assembled RV64IM guest.

   User-level only (matching Table 5 of the paper, where RISC-V lacks
   full-system support): memory is identity-mapped, there is no privilege
   distinction, and ECALL implements a minimal exit convention
   (a7 = 93 -> exit(a0), anything else is skipped).  Device access works
   through plain MMIO stores. *)

open Guest.Ops

(* One model per optimization level, built on first use. *)
let model_at_level = Ssa.Offline.per_level Riscv_descr.source

let flat_perms = { pr = true; pw = true; px = true; puser = true }

let ops ?opt_level () : ops =
  let model = model_at_level (Option.value opt_level ~default:4) in
  {
    name = "rv64im";
    description = "64-bit RISC-V (RV64IM) guest, user-level";
    model;
    insn_size = 4;
    regfile_size = 512;
    bank_offset = (fun ~bank:_ ~index -> 8 * (index land 31));
    slot_offset = (fun s -> 256 + (8 * s));
    mmu_enabled = (fun _ -> false);
    mmu_translate = (fun _ ~access:_ va -> Ok (va, flat_perms));
    address_space = (fun _ _ -> 0);
    privilege_level = (fun _ -> 1);
    take_exception =
      (fun c ~ec:_ ~iss:_ ->
        (* ECALL: a7 (x17) selects the service. *)
        let a7 = c.read_bank 0 17 in
        if a7 = 93L then raise (Hvm.Machine.Powered_off (Int64.to_int (Int64.logand (c.read_bank 0 10) 0xFFL)))
        else c.set_pc (Int64.add (c.get_pc ()) 4L));
    data_abort = (fun _ ~va:_ ~access:_ ~fault:_ -> ());
    insn_abort = (fun _ ~va:_ ~fault:_ -> ());
    undefined_insn = (fun c -> c.set_pc (Int64.add (c.get_pc ()) 4L));
    eret = (fun _ -> ());
    deliver_irq = (fun _ -> false);
    coproc_read = (fun _ _ -> 0L);
    coproc_write = (fun _ _ _ -> Ce_none);
    reset =
      (fun c ~entry ->
        c.set_pc entry;
        c.write_bank 0 2 0x0100_0000L (* sp *));
  }
