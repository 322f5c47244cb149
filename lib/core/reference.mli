(** A reference interpreter for a guest architecture: each instruction is
    decoded and its SSA action executed directly with {!Ssa.Interp},
    against the same HVM devices and guest-MMU model the DBT engines use.

    No JIT and no cycle fidelity: this is the correctness oracle that the
    engines are differentially tested against. *)

type t = {
  guest : Guest.Ops.ops;
  machine : Hvm.Machine.t;
  ctx : Hostir.Exec.ctx;  (** register-file container only *)
  uart : Hvm.Device.Uart.state;
  timer : Hvm.Device.Timer.state;
  syscon : Hvm.Device.Syscon.state;
  mutable instrs_executed : int;  (** decoded guest instructions *)
  mutable steps : int;
      (** steps taken: decoded instructions plus fetch aborts and
          undefined instructions *)
}

exception Insn_aborted

val create : ?mem_size:int -> Guest.Ops.ops -> t
val sys : t -> Guest.Ops.sys_ctx
val load_image : t -> addr:int64 -> Bytes.t -> unit
val set_entry : t -> int64 -> unit

type exit_reason = Poweroff of int | Step_limit

(** Interpret up to [max_instrs] steps (see [steps]); [Step_limit] once
    they are taken, even if no instruction decoded. *)
val run : ?max_instrs:int -> t -> exit_reason

val uart_output : t -> string
val regfile : t -> Bytes.t
