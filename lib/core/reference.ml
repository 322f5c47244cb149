(* A reference interpreter for a guest architecture: decode each
   instruction and execute its SSA action directly with Ssa.Interp,
   against the same HVM devices and guest-MMU model the DBT engines use.

   No JIT, no host paging, no cycle fidelity - this is the correctness
   oracle the engines are differentially tested against. *)

module Exec = Hostir.Exec
module Machine = Hvm.Machine
module Ops = Guest.Ops

type t = {
  guest : Ops.ops;
  machine : Machine.t;
  ctx : Exec.ctx; (* used only as the register-file container *)
  uart : Hvm.Device.Uart.state;
  timer : Hvm.Device.Timer.state;
  syscon : Hvm.Device.Syscon.state;
  mutable instrs_executed : int; (* decoded guest instructions *)
  mutable steps : int; (* loop steps: decoded instructions, aborts, undefined *)
}

exception Insn_aborted

let create ?(mem_size = 256 * 1024 * 1024) (guest : Ops.ops) : t =
  let machine, uart, timer, syscon = Machine.board ~mem_size in
  let ctx =
    Exec.create ~machine ~helpers:[||] ~fault_handler:(fun _ _ _ ~bits:_ ~value:_ -> Exec.Retry)
  in
  let t = { guest; machine; ctx; uart; timer; syscon; instrs_executed = 0; steps = 0 } in
  guest.Ops.reset (Common.sys_ctx guest ctx) ~entry:0L;
  t

let sys (t : t) = Common.sys_ctx t.guest t.ctx

let load_image (t : t) ~addr image = Hvm.Mem.blit_in t.machine.Machine.mem ~addr image
let set_entry (t : t) entry = t.guest.Ops.reset (sys t) ~entry

(* Translate-and-access guest memory with full fault semantics. *)
let guest_access (t : t) sysc ~(access : Ops.access) ~bits va ~(value : int64 option) : int64 =
  match t.guest.Ops.mmu_translate sysc ~access va with
  | Error fault ->
    t.guest.Ops.data_abort sysc ~va ~access ~fault;
    raise Ssa.Interp.Stop
  | Ok (pa, perms) ->
    let el = t.guest.Ops.privilege_level sysc in
    let allowed =
      (el > 0 || perms.Ops.puser) && (access <> Ops.Astore || perms.Ops.pw)
    in
    if not allowed then begin
      t.guest.Ops.data_abort sysc ~va ~access ~fault:(Ops.Gf_permission 3);
      raise Ssa.Interp.Stop
    end;
    (match value with
    | Some v ->
      Machine.phys_write t.machine ~bits pa v;
      0L
    | None -> Machine.phys_read t.machine ~bits pa)

let interp_state (t : t) : Ssa.Interp.state =
  let sysc = sys t in
  {
    Ssa.Interp.bank_read = (fun bank i -> sysc.Ops.read_bank bank i);
    bank_write = (fun bank i v -> sysc.Ops.write_bank bank i v);
    reg_read = sysc.Ops.read_reg;
    reg_write = sysc.Ops.write_reg;
    pc_read = sysc.Ops.get_pc;
    pc_write = sysc.Ops.set_pc;
    mem_read = (fun bits va -> guest_access t sysc ~access:Ops.Aload ~bits va ~value:None);
    mem_write =
      (fun bits va v -> ignore (guest_access t sysc ~access:Ops.Astore ~bits va ~value:(Some v)));
    coproc_read = (fun id -> t.guest.Ops.coproc_read sysc id);
    coproc_write = (fun id v -> ignore (t.guest.Ops.coproc_write sysc id v));
    effect =
      (fun name args ->
        match (name, args) with
        | "take_exception", [ ec; iss ] ->
          t.guest.Ops.take_exception sysc ~ec ~iss;
          raise Ssa.Interp.Stop
        | "eret", _ ->
          t.guest.Ops.eret sysc;
          raise Ssa.Interp.Stop
        | "tlb_flush", _ | "tlb_flush_page", _ | "barrier", _ -> ()
        | "halt", _ -> raise (Machine.Powered_off 0)
        | "wfi", _ ->
          (* Advance time so a pending timer can fire. *)
          Machine.charge t.machine 1000
        | other, _ -> invalid_arg ("reference: unknown effect " ^ other));
  }

type exit_reason = Poweroff of int | Step_limit

(* Execute up to [max_instrs] steps.  Every step counts, whether it
   decodes an instruction or ends in a fetch abort or an undefined
   instruction (an IRQ entry happens within a step), so a guest that
   faults forever still stops. *)
let run ?(max_instrs = max_int) (t : t) : exit_reason =
  let sysc = sys t in
  let st = interp_state t in
  let model = t.guest.Ops.model in
  let result = ref None in
  (try
     while !result = None do
       if t.syscon.Hvm.Device.Syscon.poweroff then
         result := Some (Poweroff t.syscon.Hvm.Device.Syscon.exit_code)
       else if t.steps >= max_instrs then result := Some Step_limit
       else begin
         t.steps <- t.steps + 1;
         Machine.charge t.machine 1; (* nominal time so devices advance *)
         if Machine.irq_pending t.machine then ignore (t.guest.Ops.deliver_irq sysc);
         let va = sysc.Ops.get_pc () in
         match t.guest.Ops.mmu_translate sysc ~access:Ops.Afetch va with
         | Error fault -> t.guest.Ops.insn_abort sysc ~va ~fault
         | Ok (pa, perms) ->
           let el = t.guest.Ops.privilege_level sysc in
           if (el = 0 && not perms.Ops.puser) || not perms.Ops.px then
             t.guest.Ops.insn_abort sysc ~va ~fault:(Ops.Gf_permission 3)
           else begin
             let word = Machine.phys_read t.machine ~bits:32 pa in
             match Ssa.Offline.decode model word with
             | None -> t.guest.Ops.undefined_insn sysc
             | Some d ->
               t.instrs_executed <- t.instrs_executed + 1;
               let action = Ssa.Offline.action model d.Adl.Decode.name in
               let field name =
                 if name = "__el" then Int64.of_int el
                 else
                   match List.assoc_opt name d.Adl.Decode.field_values with
                   | Some v -> v
                   | None -> invalid_arg ("no field " ^ name)
               in
               Ssa.Interp.run st action ~field;
               (* Advance the PC unless the action redirected it (branch
                  target or exception vector). *)
               if (not d.Adl.Decode.ends_block) && sysc.Ops.get_pc () = va then
                 sysc.Ops.set_pc (Int64.add va (Int64.of_int t.guest.Ops.insn_size))
           end
       end
     done
   with Machine.Powered_off code -> result := Some (Poweroff code));
  Option.get !result

let uart_output (t : t) = Hvm.Device.Uart.output t.uart
let regfile (t : t) = t.ctx.Exec.regfile
