(* The QEMU-style baseline engine: a front end and a set of helpers over
   Captive's own dispatcher ([Captive.Engine.create_baseline]), so both
   designs share the run loop, the code cache, chaining and the
   counters, and differ only where the paper compares them:
   - it runs as a "user process": no host paging, no rings - guest
     memory is reached through an inline softmmu TLB over a flat mapping
     (the soft-TLB area and its fill helpers below);
   - its code cache is indexed by guest *virtual* address, and guest TLB
     flushes and MMU reconfiguration drop every translation (Sec. 2.6;
     [flush_all]);
   - all floating point goes through softfloat helper calls;
   - translation is a cheaper single pass through the TCG-style
     [Qemu_emit] backend (Sec. 3.4; [translate_cost]).
   Stores that [softmmu_fill] catches on a page holding code take the
   same SMC path as Captive's: the page's translations are dropped and
   every chain edge into them is cut. *)

module CE = Captive.Engine
module Exec = Hostir.Exec
module Machine = Hvm.Machine
module Ops = Guest.Ops
module Common = Captive.Common
module Bits = Dbt_util.Bits

type config = { chaining : bool }

let default_config = { chaining = true }

type t = CE.t
type exit_reason = CE.exit_reason = Poweroff of int | Cycle_limit | Block_limit

let tlb_entries = 256
let tlb_bytes = tlb_entries * 32

(* The soft TLB lives above guest RAM, below the (unused) page-table
   area: one table per exception level. *)
let softtlb_base = Int64.of_int (CE.default_config.CE.mem_size - (48 * 1024 * 1024))
let tlb_base_for el = Int64.add softtlb_base (Int64.of_int (el * tlb_bytes))

(* Invalidate the whole soft TLB (fill tags with -1). *)
let soft_tlb_flush (e : t) =
  for el = 0 to 1 do
    let base = tlb_base_for el in
    for i = 0 to tlb_entries - 1 do
      let ea = Int64.add base (Int64.of_int (32 * i)) in
      Hvm.Mem.write64 e.CE.machine.Machine.mem ea (-1L);
      Hvm.Mem.write64 e.CE.machine.Machine.mem (Int64.add ea 8L) (-1L)
    done
  done

(* QEMU-style global invalidation: guest page-table/TLB changes flush the
   soft TLB *and* every translation. *)
let flush_all (e : t) =
  soft_tlb_flush e;
  CE.flush_translations e;
  Machine.charge e.CE.machine 2000 (* retranslation storm is charged as it happens *)

(* Fill the soft TLB for [va]; returns the flat ("host") address.  Raises
   the guest data abort on translation/permission failure. *)
let softmmu_fill (guest : Ops.ops) (e : t) ctx ~write va =
  (* tlb_fill: full software walk of the guest page tables plus
     tlb_set_page bookkeeping - an expensive path in real QEMU. *)
  Machine.charge e.CE.machine 160;
  let sys = Common.sys_ctx guest ctx in
  let access = if write then Ops.Astore else Ops.Aload in
  match guest.Ops.mmu_translate sys ~access va with
  | Error fault ->
    guest.Ops.data_abort sys ~va ~access ~fault;
    raise Ops.Guest_trap
  | Ok (pa, perms) ->
    let el = guest.Ops.privilege_level sys in
    let allowed = (el > 0 || perms.Ops.puser) && ((not write) || perms.Ops.pw) in
    if not allowed then begin
      guest.Ops.data_abort sys ~va ~access ~fault:(Ops.Gf_permission 3);
      raise Ops.Guest_trap
    end;
    let phys_page = Bits.align_down pa 4096 in
    if write && CE.holds_code e phys_page then CE.invalidate_page e phys_page;
    (* Install the entry; a page holding code gets no write entry, so
       every store to it comes back here. *)
    let va_page = Bits.align_down va 4096 in
    let idx = Int64.to_int (Int64.logand (Int64.shift_right_logical va 12) (Int64.of_int (tlb_entries - 1))) in
    let ea = Int64.add (tlb_base_for el) (Int64.of_int (32 * idx)) in
    let addend = Int64.sub phys_page va_page in
    if not write then Hvm.Mem.write64 e.CE.machine.Machine.mem ea va_page
    else if perms.Ops.pw && not (CE.holds_code e phys_page) then
      Hvm.Mem.write64 e.CE.machine.Machine.mem (Int64.add ea 8L) va_page;
    Hvm.Mem.write64 e.CE.machine.Machine.mem (Int64.add ea 16L) addend;
    Int64.add va addend

(* The TCG-style front end: [Qemu_emit] over a fresh block, probing the
   soft TLB of the block's exception level.  System-mode QEMU always
   probes its soft TLB, even with the guest MMU off (the fill helper then
   installs identity mappings). *)
let emitter (guest : Ops.ops) ~el : Hostir.Hir.operand CE.block_emitter =
  let qe =
    Qemu_emit.create
      {
        Qemu_emit.bank_offset = guest.Ops.bank_offset;
        slot_offset = guest.Ops.slot_offset;
        effect_helper = Common.effect_helper_index;
        coproc_read_helper = Common.h_coproc_read;
        coproc_write_helper = Common.h_coproc_write;
        softfloat_helper = Common.softfloat_index;
        softmmu =
          Some
            {
              Qemu_emit.tlb_base = tlb_base_for el;
              tlb_entries;
              fill_read = Common.h_softmmu_fill_read;
              fill_write = Common.h_softmmu_fill_write;
            };
      }
  in
  { CE.em = Qemu_emit.emitter qe; raw = Qemu_emit.raw qe; finish = (fun () -> Qemu_emit.finish qe) }

(* Single-pass TCG-style translation cost (Sec. 3.4: Captive is ~2.6x
   slower to translate than QEMU), charged to the translation side of
   the machine's virtual-time split. *)
let translate_cost ~n_guest ~n_host = (550 * n_guest) + (90 * n_host)

let create ?(config = default_config) (guest : Ops.ops) : t =
  let self = ref None in
  let engine () = Option.get !self in
  let sys ctx = Common.sys_ctx guest ctx in
  let h i cost fn = (i, { Exec.fn; cost }) in
  let flush _ _ =
    flush_all (engine ());
    0L
  in
  let helpers =
    [
      h Common.h_coproc_read 15 (fun ctx args -> guest.Ops.coproc_read (sys ctx) args.(0));
      h Common.h_coproc_write 15 (fun ctx args ->
          (match guest.Ops.coproc_write (sys ctx) args.(0) args.(1) with
          | Ops.Ce_none -> ()
          | Ops.Ce_mmu_changed | Ops.Ce_tlb_flush -> flush_all (engine ()));
          0L);
      (* Guest exceptions in a user-mode DBT: full state synchronization
         plus a longjmp out of the translated code. *)
      h Common.h_take_exception 450 (fun ctx args ->
          guest.Ops.take_exception (sys ctx) ~ec:args.(0) ~iss:args.(1);
          0L);
      h Common.h_eret 300 (fun ctx _ ->
          guest.Ops.eret (sys ctx);
          0L);
      h Common.h_tlb_flush 40 flush;
      h Common.h_tlb_flush_page 40 flush;
      h Common.h_softmmu_fill_read 12 (fun ctx args -> softmmu_fill guest (engine ()) ctx ~write:false args.(0));
      h Common.h_softmmu_fill_write 12 (fun ctx args -> softmmu_fill guest (engine ()) ctx ~write:true args.(0));
    ]
  in
  let e =
    CE.create_baseline ~chaining:config.chaining
      { CE.emitter = emitter guest; cost = translate_cost }
      ~helpers guest
  in
  self := Some e;
  soft_tlb_flush e;
  e

let run = CE.run
let load_image = CE.load_image
let set_entry = CE.set_entry
let uart_output = CE.uart_output
let cycles = CE.cycles
