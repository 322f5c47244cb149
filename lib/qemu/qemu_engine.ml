(* The QEMU-style baseline engine.

   Contrasts with Captive exactly along the axes the paper evaluates:
   - runs as a "user process": no host paging, no rings - guest memory is
     reached through an inline softmmu TLB over a flat mapping;
   - code cache indexed by guest *virtual* address; guest TLB flushes and
     MMU reconfiguration invalidate every translation (Sec. 2.6);
   - all floating point through softfloat helper calls;
   - cheaper, single-pass translation (Sec. 3.4). *)

module Exec = Hostir.Exec
module Encode = Hostir.Encode
module Regalloc = Hostir.Regalloc
module Hir = Hostir.Hir
module Machine = Hvm.Machine
module Cost = Hvm.Cost
module Ops = Guest.Ops
module Common = Captive.Common
module Bits = Dbt_util.Bits

type config = {
  mem_size : int;
  chaining : bool;
  max_block : int;
}

let default_config = { mem_size = 256 * 1024 * 1024; chaining = true; max_block = 64 }

let tlb_entries = 256
let tlb_bytes = tlb_entries * 32

type translation = {
  t_key : int64 * int * bool; (* va, el, mmu_on *)
  t_code : Exec.code;
  t_n_guest : int;
  t_n_host : int;
  mutable t_chain : (int64 * int * translation) option;
  mutable t_exec_count : int;
  mutable t_cycles : int;
}

type stats = {
  mutable t_decode : float;
  mutable t_translate : float;
  mutable t_regalloc : float;
  mutable t_encode : float;
  mutable blocks_translated : int;
  mutable guest_instrs_translated : int;
  mutable host_instrs_emitted : int;
  mutable host_bytes_emitted : int;
  mutable blocks_executed : int;
  mutable full_flushes : int;
}

type t = {
  guest : Ops.ops;
  config : config;
  machine : Machine.t;
  mutable ctx : Exec.ctx;
  cache : (int64 * int * bool, translation) Hashtbl.t;
  code_pages : (int64, (int64 * int * bool) list ref) Hashtbl.t; (* phys page -> keys *)
  itlb : (int64 * int, int64) Hashtbl.t;
  softtlb_base : int64; (* runtime area inside flat memory *)
  stats : stats;
  uart : Hvm.Device.Uart.state;
  timer : Hvm.Device.Timer.state;
  syscon : Hvm.Device.Syscon.state;
}

let now () = Unix.gettimeofday ()

let tlb_base_for e el = Int64.add e.softtlb_base (Int64.of_int (el * tlb_bytes))

(* Invalidate the whole soft TLB (fill tags with -1). *)
let soft_tlb_flush (e : t) =
  for el = 0 to 1 do
    let base = tlb_base_for e el in
    for i = 0 to tlb_entries - 1 do
      let ea = Int64.add base (Int64.of_int (32 * i)) in
      Hvm.Mem.write64 e.machine.Machine.mem ea (-1L);
      Hvm.Mem.write64 e.machine.Machine.mem (Int64.add ea 8L) (-1L)
    done
  done

(* QEMU-style global invalidation: guest page-table/TLB changes flush the
   soft TLB *and* every translation. *)
let flush_all (e : t) =
  soft_tlb_flush e;
  Hashtbl.reset e.cache;
  Hashtbl.reset e.code_pages;
  Hashtbl.reset e.itlb;
  Machine.charge e.machine 2000; (* retranslation storm is charged as it happens *)
  e.stats.full_flushes <- e.stats.full_flushes + 1

let invalidate_phys_page (e : t) phys_page =
  match Hashtbl.find_opt e.code_pages phys_page with
  | Some keys ->
    List.iter (fun k -> Hashtbl.remove e.cache k) !keys;
    Hashtbl.remove e.code_pages phys_page
  | None -> ()

(* Fill the soft TLB for [va]; returns the flat ("host") address.  Raises
   the guest data abort on translation/permission failure. *)
let softmmu_fill (e : t) ctx ~write va =
  (* tlb_fill: full software walk of the guest page tables plus
     tlb_set_page bookkeeping - an expensive path in real QEMU. *)
  Machine.charge e.machine 160;
  let sys = Common.sys_ctx e.guest ctx in
  let access = if write then Ops.Astore else Ops.Aload in
  match e.guest.Ops.mmu_translate sys ~access va with
  | Error fault ->
    e.guest.Ops.data_abort sys ~va ~access ~fault;
    raise Ops.Guest_trap
  | Ok (pa, perms) ->
    let el = e.guest.Ops.privilege_level sys in
    let allowed = (el > 0 || perms.Ops.puser) && ((not write) || perms.Ops.pw) in
    if not allowed then begin
      e.guest.Ops.data_abort sys ~va ~access ~fault:(Ops.Gf_permission 3);
      raise Ops.Guest_trap
    end;
    let phys_page = Bits.align_down pa 4096 in
    if write && Hashtbl.mem e.code_pages phys_page then invalidate_phys_page e phys_page;
    (* Install the entry. *)
    let va_page = Bits.align_down va 4096 in
    let idx = Int64.to_int (Int64.logand (Int64.shift_right_logical va 12) (Int64.of_int (tlb_entries - 1))) in
    let ea = Int64.add (tlb_base_for e el) (Int64.of_int (32 * idx)) in
    let addend = Int64.sub phys_page va_page in
    if not write then Hvm.Mem.write64 e.machine.Machine.mem ea va_page
    else begin
      if perms.Ops.pw && not (Hashtbl.mem e.code_pages phys_page) then
        Hvm.Mem.write64 e.machine.Machine.mem (Int64.add ea 8L) va_page
    end;
    Hvm.Mem.write64 e.machine.Machine.mem (Int64.add ea 16L) addend;
    Int64.add va addend

let create ?(config = default_config) (guest : Ops.ops) : t =
  let machine, uart, timer, syscon = Machine.board ~mem_size:config.mem_size in
  machine.Machine.paging <- false;
  (* QEMU runtime structures live above guest RAM, below the (unused)
     page-table area. *)
  let softtlb_base = Int64.of_int (config.mem_size - (48 * 1024 * 1024)) in
  let engine_ref = ref None in
  let engine () = Option.get !engine_ref in
  let sys ctx = Common.sys_ctx guest ctx in
  let helpers =
    Array.make (Common.first_softfloat + List.length Common.softfloat_names)
      { Exec.fn = (fun _ _ -> 0L); cost = 0 }
  in
  helpers.(Common.h_coproc_read) <-
    { Exec.fn = (fun ctx args -> guest.Ops.coproc_read (sys ctx) args.(0)); cost = 15 };
  helpers.(Common.h_coproc_write) <-
    {
      Exec.fn =
        (fun ctx args ->
          (match guest.Ops.coproc_write (sys ctx) args.(0) args.(1) with
          | Ops.Ce_none -> ()
          | Ops.Ce_mmu_changed | Ops.Ce_tlb_flush -> flush_all (engine ()));
          0L);
      cost = 15;
    };
  (* Guest exceptions in a user-mode DBT: full state synchronization plus
     a longjmp out of the translated code. *)
  helpers.(Common.h_take_exception) <-
    {
      Exec.fn =
        (fun ctx args ->
          guest.Ops.take_exception (sys ctx) ~ec:args.(0) ~iss:args.(1);
          0L);
      cost = 450;
    };
  helpers.(Common.h_eret) <-
    {
      Exec.fn =
        (fun ctx _ ->
          guest.Ops.eret (sys ctx);
          0L);
      cost = 300;
    };
  helpers.(Common.h_tlb_flush) <-
    { Exec.fn = (fun _ _ -> flush_all (engine ()); 0L); cost = 40 };
  helpers.(Common.h_tlb_flush_page) <-
    { Exec.fn = (fun _ _ -> flush_all (engine ()); 0L); cost = 40 };
  helpers.(Common.h_halt) <- { Exec.fn = (fun _ _ -> raise (Machine.Powered_off 0)); cost = 0 };
  helpers.(Common.h_wfi) <-
    {
      Exec.fn =
        (fun ctx _ ->
          Machine.wfi ctx.Exec.machine (engine ()).timer;
          0L);
      cost = 10;
    };
  helpers.(Common.h_barrier) <- { Exec.fn = (fun _ _ -> 0L); cost = 0 };
  helpers.(Common.h_softmmu_fill_read) <-
    { Exec.fn = (fun ctx args -> softmmu_fill (engine ()) ctx ~write:false args.(0)); cost = 12 };
  helpers.(Common.h_softmmu_fill_write) <-
    { Exec.fn = (fun ctx args -> softmmu_fill (engine ()) ctx ~write:true args.(0)); cost = 12 };
  List.iteri
    (fun i name -> helpers.(Common.first_softfloat + i) <- Common.softfloat_helper name)
    Common.softfloat_names;
  let fault_handler _ctx _access va ~bits:_ ~value:_ =
    invalid_arg (Printf.sprintf "qemu engine: unexpected host fault at %Lx" va)
  in
  let ctx = Exec.create ~machine ~helpers ~fault_handler in
  let e =
    {
      guest;
      config;
      machine;
      ctx;
      cache = Hashtbl.create 1024;
      code_pages = Hashtbl.create 256;
      itlb = Hashtbl.create 256;
      softtlb_base;
      stats =
        {
          t_decode = 0.;
          t_translate = 0.;
          t_regalloc = 0.;
          t_encode = 0.;
          blocks_translated = 0;
          guest_instrs_translated = 0;
          host_instrs_emitted = 0;
          host_bytes_emitted = 0;
          blocks_executed = 0;
          full_flushes = 0;
        };
      uart;
      timer;
      syscon;
    }
  in
  engine_ref := Some e;
  soft_tlb_flush e;
  guest.Ops.reset (sys ctx) ~entry:0L;
  e

(* --- translation ----------------------------------------------------------------- *)

let field_fn (e : t) sys (d : Adl.Decode.decoded) =
  let el = Int64.of_int (e.guest.Ops.privilege_level sys) in
  fun name ->
    if name = "__el" then el
    else
      match List.assoc_opt name d.Adl.Decode.field_values with
      | Some v -> v
      | None -> invalid_arg ("no field " ^ name)

let translate_block (e : t) sys ~va ~pa ~el ~mmu_on : translation =
  let s = e.stats in
  let model = e.guest.Ops.model in
  let t0 = now () in
  let decoded = ref [] in
  let n = ref 0 in
  let undefined_stub = ref false in
  let continue_ = ref true in
  while !continue_ do
    let insn_va = Int64.add va (Int64.of_int (4 * !n)) in
    let insn_pa = Int64.add pa (Int64.of_int (4 * !n)) in
    let word = Machine.phys_read e.machine ~bits:32 insn_pa in
    match Ssa.Offline.decode model word with
    | Some d ->
      decoded := d :: !decoded;
      incr n;
      if d.Adl.Decode.ends_block || !n >= e.config.max_block || Int64.logand insn_va 0xFFFL = 0xFFCL
      then continue_ := false
    | None ->
      if !n = 0 then undefined_stub := true;
      continue_ := false
  done;
  let decoded = List.rev !decoded in
  s.t_decode <- s.t_decode +. (now () -. t0);
  let t1 = now () in
  let emit_config =
    {
      Qemu_emit.bank_offset = e.guest.Ops.bank_offset;
      slot_offset = e.guest.Ops.slot_offset;
      effect_helper = Common.effect_helper_index;
      coproc_read_helper = Common.h_coproc_read;
      coproc_write_helper = Common.h_coproc_write;
      softfloat_helper = Common.softfloat_index;
      (* System-mode QEMU always probes its soft TLB, even with the guest
         MMU off (the fill helper then installs identity mappings). *)
      softmmu =
        Some
          {
            Qemu_emit.tlb_base = tlb_base_for e el;
            tlb_entries;
            fill_read = Common.h_softmmu_fill_read;
            fill_write = Common.h_softmmu_fill_write;
          };
    }
  in
  let qe = Qemu_emit.create emit_config in
  let em = Qemu_emit.emitter qe in
  if !undefined_stub then
    em.Ssa.Emitter.effect "take_exception" [ em.Ssa.Emitter.const 0L; em.Ssa.Emitter.const 0L ]
  else
    List.iter
      (fun d ->
        let action = Ssa.Offline.action model d.Adl.Decode.name in
        let field = field_fn e sys d in
        let inc_pc = if d.Adl.Decode.ends_block then None else Some e.guest.Ops.insn_size in
        Ssa.Gen.translate em action ~field ~inc_pc)
      decoded;
  Qemu_emit.raw qe (Hir.Exit 0);
  let instrs = Qemu_emit.finish qe in
  s.t_translate <- s.t_translate +. (now () -. t1);
  let t2 = now () in
  let ra = Regalloc.run instrs in
  s.t_regalloc <- s.t_regalloc +. (now () -. t2);
  let t3 = now () in
  let code = Encode.encode ra in
  let compiled = Exec.compile (Encode.decode_program ~n_slots:ra.Regalloc.n_slots code) in
  s.t_encode <- s.t_encode +. (now () -. t3);
  (* Single-pass TCG-style translation cost (Sec. 3.4: Captive is ~2.6x
     slower to translate than QEMU). *)
  let n_host = Array.length instrs in
  (* Translation-side charge (Machine's virtual-time split): counted in
     wall-clock cycles but excluded from guest-visible device time. *)
  Machine.charge_jit e.machine ((550 * !n) + (90 * n_host));
  s.blocks_translated <- s.blocks_translated + 1;
  s.guest_instrs_translated <- s.guest_instrs_translated + !n;
  s.host_instrs_emitted <- s.host_instrs_emitted + n_host;
  s.host_bytes_emitted <- s.host_bytes_emitted + Bytes.length code;
  let tr =
    {
      t_key = (va, el, mmu_on);
      t_code = compiled;
      t_n_guest = !n;
      t_n_host = n_host;
      t_chain = None;
      t_exec_count = 0;
      t_cycles = 0;
    }
  in
  Hashtbl.replace e.cache tr.t_key tr;
  let page = Bits.align_down pa 4096 in
  (match Hashtbl.find_opt e.code_pages page with
  | Some l -> l := tr.t_key :: !l
  | None -> Hashtbl.replace e.code_pages page (ref [ tr.t_key ]));
  tr

(* --- dispatch -------------------------------------------------------------------- *)

type exit_reason = Poweroff of int | Cycle_limit | Block_limit

let fetch (e : t) sys va ~el =
  match Hashtbl.find_opt e.itlb (Bits.align_down va 4096, el) with
  | Some pa_page -> Ok (Int64.logor pa_page (Int64.logand va 0xFFFL))
  | None -> (
    match e.guest.Ops.mmu_translate sys ~access:Ops.Afetch va with
    | Error fault ->
      e.guest.Ops.insn_abort sys ~va ~fault;
      Error ()
    | Ok (pa, perms) ->
      if (el = 0 && not perms.Ops.puser) || not perms.Ops.px then begin
        e.guest.Ops.insn_abort sys ~va ~fault:(Ops.Gf_permission 3);
        Error ()
      end
      else begin
        Hashtbl.replace e.itlb (Bits.align_down va 4096, el) (Bits.align_down pa 4096);
        Ok pa
      end)

let run ?(max_cycles = max_int) ?(max_blocks = max_int) (e : t) : exit_reason =
  let sys = Common.sys_ctx e.guest e.ctx in
  let result = ref None in
  (try
     while !result = None do
       if e.syscon.Hvm.Device.Syscon.poweroff then
         result := Some (Poweroff e.syscon.Hvm.Device.Syscon.exit_code)
       else if e.machine.Machine.cycles > max_cycles then result := Some Cycle_limit
       else if e.stats.blocks_executed > max_blocks then result := Some Block_limit
       else begin
         if Machine.irq_pending e.machine then ignore (e.guest.Ops.deliver_irq sys);
         let el = e.guest.Ops.privilege_level sys in
         let mmu_on = e.guest.Ops.mmu_enabled sys in
         let va = Exec.get_pc e.ctx in
         Machine.charge e.machine Cost.dispatch_lookup;
         match fetch e sys va ~el with
         | Error () -> ()
         | Ok pa -> (
           let key = (va, el, mmu_on) in
           let tr =
             match Hashtbl.find_opt e.cache key with
             | Some tr -> tr
             | None -> translate_block e sys ~va ~pa ~el ~mmu_on
           in
           try
             let cur = ref tr in
             let continue_chain = ref true in
             while !continue_chain do
               let c0 = e.machine.Machine.cycles in
               Machine.charge e.machine Cost.block_entry;
               ignore (Exec.run e.ctx !cur.t_code);
               !cur.t_exec_count <- !cur.t_exec_count + 1;
               !cur.t_cycles <- !cur.t_cycles + (e.machine.Machine.cycles - c0);
               e.stats.blocks_executed <- e.stats.blocks_executed + 1;
               let next_va = Exec.get_pc e.ctx in
               let next_el = e.guest.Ops.privilege_level sys in
               if
                 e.config.chaining
                 && (not (Machine.irq_pending e.machine))
                 && e.stats.blocks_executed <= max_blocks
                 && e.machine.Machine.cycles <= max_cycles
               then begin
                 match !cur.t_chain with
                 | Some (cva, cel, target) when cva = next_va && cel = next_el ->
                   Machine.charge e.machine Cost.branch;
                   cur := target
                 | _ -> (
                   let mmu_on' = e.guest.Ops.mmu_enabled sys in
                   match Hashtbl.find_opt e.cache (next_va, next_el, mmu_on') with
                   | Some target when mmu_on' = mmu_on ->
                     !cur.t_chain <- Some (next_va, next_el, target);
                     Machine.charge e.machine Cost.dispatch_lookup;
                     cur := target
                   | _ -> continue_chain := false)
               end
               else continue_chain := false
             done
           with Ops.Guest_trap -> ())
       end
     done
   with Machine.Powered_off code -> result := Some (Poweroff code));
  Option.get !result

let sys (e : t) = Common.sys_ctx e.guest e.ctx
let load_image (e : t) ~addr image = Hvm.Mem.blit_in e.machine.Machine.mem ~addr image
let set_entry (e : t) entry = e.guest.Ops.reset (sys e) ~entry
let uart_output (e : t) = Hvm.Device.Uart.output e.uart
let cycles (e : t) = e.machine.Machine.cycles

(* Same tuple shape as Captive.Engine.block_stats; the QEMU-style engine
   has no tiering, so every translation reports tier 0. *)
let block_stats (e : t) =
  Hashtbl.fold
    (fun (va, _, _) tr acc -> (va, tr.t_n_guest, tr.t_n_host, tr.t_exec_count, tr.t_cycles, 0) :: acc)
    e.cache []
