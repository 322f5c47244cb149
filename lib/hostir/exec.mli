(* Execution of encoded host machine code against the HVM.

   Decoded programs (Encode.program) are compiled once into segment
   closures ({!compile}) and run with the cycle costs of Hvm.Cost,
   charged once per straight-line segment.  Host page faults raised by
   the MMU are delivered to the engine-installed fault handler; [Retry]
   re-executes the faulting instruction once the handler has populated
   the host page tables, [Mmio_*] completes the access by device
   emulation, and guest exceptions simply propagate as OCaml exceptions
   to the engine's run loop. *)

(* What the engine-installed fault handler tells the executor to do with
   a faulting access. *)
type fault_response =
  | Retry
  | Mmio_value of int64 (* a load serviced by device emulation *)
  | Mmio_done (* a store serviced by device emulation *)

(* The simulated host machine state a translation executes against.  The
   record is transparent: the engine sets budgets and reads the counters
   directly between translations, and helpers receive the ctx to reach
   the guest system state.  Host registers and the guest PC are stored
   unboxed; reach them through {!get_reg}/{!set_reg} and
   {!get_pc}/{!set_pc}. *)
type ctx = {
  machine : Hvm.Machine.t;
  regfile : Bytes.t; (* guest register file (lives in HVM memory space) *)
  regs : Bytes.t; (* host GPRs r0..r15, then the dedicated guest-PC register *)
  helpers : helper array;
  fault_handler :
    ctx -> Hvm.Machine.access -> int64 -> bits:int -> value:int64 option -> fault_response;
  mutable slots : Bytes.t; (* current translation frame: a native-endian qword per spill slot *)
  (* region safepoint budgets, set by the engine before entering a
     tier-1 region translation; [Poll] exits when either is exhausted *)
  mutable poll_deadline : int; (* machine-cycle ceiling (run's max_cycles) *)
  mutable poll_budget : int; (* remaining block executions (run's max_blocks) *)
  (* Set by the dispatcher when it could not deliver a pending IRQ (the
     guest masks it).  The next [Poll] ignores the IRQ once and clears
     the flag, so a region entered with a masked IRQ pending executes at
     least one block instead of bailing back to the dispatcher forever. *)
  mutable irq_held : bool;
  (* statistics *)
  mutable instrs_executed : int;
  mutable rf_loads : int; (* dynamic register-file reads ([Ldrf]) *)
  mutable rf_stores : int; (* dynamic register-file writes ([Strf] + writebacks) *)
}

and helper = {
  fn : ctx -> int64 array -> int64;
  cost : int; (* charged in addition to the call overhead *)
}

val create :
  machine:Hvm.Machine.t ->
  helpers:helper array ->
  fault_handler:
    (ctx -> Hvm.Machine.access -> int64 -> bits:int -> value:int64 option -> fault_response) ->
  ctx

(* Guest register-file access (little-endian qwords at byte offsets). *)
val rf_read : ctx -> int -> int64
val rf_write : ctx -> int -> int64 -> unit

(* Host register [0, 16) access; [Invalid_argument] outside that range. *)
val get_reg : ctx -> int -> int64
val set_reg : ctx -> int -> int64 -> unit

(* The dedicated guest-PC host register. *)
val get_pc : ctx -> int64
val set_pc : ctx -> int64 -> unit

(* Shared concrete semantics, exposed for the symbolic executor
   (Symexec) and the abstract interpreter so their constant folding is
   this executor by construction. *)
val exec_alu : Hir.aluop -> int64 -> int64 -> int64
val exec_mulhi : bool -> int64 -> int64 -> int64
val exec_divrem : bool -> bool -> int64 -> int64 -> int64
val exec_ext : bool -> int -> int64 -> int64
val exec_bit1 : Hir.bit1op -> int64 -> int64
val exec_bit2 : Hir.bit2op -> int64 -> int64 -> int64
val exec_fp2 : Hir.fp2op -> int64 -> int64 -> int64
val exec_fp1 : Hir.fp1op -> int64 -> int64
val fcmp_nzcv : int -> int64 -> int64 -> int64
val cond_holds : Hir.cond -> int64 -> int64 -> bool

(* NZCV nibble of a [width]-bit add with carry-in ([cin] <> 0), and of a
   logical result. *)
val flags_add_nzcv : width:int -> int64 -> int64 -> int64 -> int64
val flags_logic_nzcv : width:int -> int64 -> int64

(* Per-instruction cycle cost (Hvm.Cost model). *)
val instr_cost : Hir.instr -> int

(* A decoded program compiled for execution: one closure per segment, a
   straight-line run that ends at control flow, at an access or helper
   call (which can observe the cycle count) or at an instruction that
   can raise.  Each segment's summed {!instr_cost} and instruction count
   are charged once, before its last instruction acts, so the cycle and
   instruction counts anything outside the executor observes equal
   per-instruction charging.  Translation records keep only this, not
   the decoded program. *)
type code

(* Never raises: a [Vreg] operand or falling off the end raises
   [Invalid_argument] when executed, after everything before it (the
   raising instruction included) has been charged and counted. *)
val compile : Encode.program -> code

(* Run compiled code; returns the chain-slot id of the exit taken. *)
val run : ctx -> code -> int
