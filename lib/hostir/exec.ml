(* Execution of encoded host machine code against the HVM.

   A decoded program (Encode.program) is compiled once per translation
   into an array of closures, one per instruction, each specialised on
   its operand shapes; [run] then only calls closures.  Each closure
   charges the instruction's Hvm.Cost before its operation, counts it,
   performs it and returns the index of the next instruction, or
   [lnot slot] for an exit through chain slot [slot].

   Host registers, the guest PC and spill slots live unboxed in [Bytes],
   so the specialised shapes (physical-register destination,
   register/immediate sources) allocate nothing.  [Slot] operands and the
   rare instruction forms go through one generic closure that interprets
   the instruction; a [Vreg] operand or falling off the end raises
   [Invalid_argument] when executed, never when compiled.

   dune's dev profile compiles every module with -opaque, so a call into
   another module is never inlined and boxes its int64 arguments: the hot
   path keeps its arithmetic, cycle charging and register access inside
   this module.

   Host page faults raised by the MMU are delivered to the engine-installed
   fault handler after the translation's write-back map is flushed;
   [Retry] re-executes (re-charges and re-counts) the faulting
   instruction once the handler has populated the host page tables,
   [Mmio_*] completes the access by device emulation, and guest exceptions
   simply propagate as OCaml exceptions to the engine's run loop. *)

open Hir
module Machine = Hvm.Machine
module Cost = Hvm.Cost
module Bits = Dbt_util.Bits
module Absval = Dbt_util.Absval

type fault_response =
  | Retry
  | Mmio_value of int64 (* a load serviced by device emulation *)
  | Mmio_done (* a store serviced by device emulation *)

type ctx = {
  machine : Machine.t;
  regfile : Bytes.t; (* guest register file (lives in HVM memory space) *)
  regs : Bytes.t; (* host GPRs r0..r15, then the dedicated guest-PC register *)
  helpers : helper array;
  fault_handler : ctx -> Machine.access -> int64 -> bits:int -> value:int64 option -> fault_response;
  mutable slots : Bytes.t; (* current translation frame *)
  mutable poll_deadline : int;
  mutable poll_budget : int;
  mutable irq_held : bool;
  mutable instrs_executed : int;
  mutable rf_loads : int;
  mutable rf_stores : int;
}

and helper = {
  fn : ctx -> int64 array -> int64;
  cost : int;
}

let n_regs = 16
let pc_off = 8 * n_regs
let regfile_bytes = 8192

let create ~machine ~helpers ~fault_handler =
  {
    machine;
    regfile = Bytes.make regfile_bytes '\000';
    regs = Bytes.make (pc_off + 8) '\000';
    helpers;
    fault_handler;
    slots = Bytes.empty;
    poll_deadline = max_int;
    poll_budget = max_int;
    irq_held = false;
    instrs_executed = 0;
    rf_loads = 0;
    rf_stores = 0;
  }

(* Unboxed qword access.  Registers, PC and slots are private to the
   executor and stored native-endian; the register file is little-endian
   because the guest's system state reads it. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] rf_get b off = if Sys.big_endian then bswap64 (get64 b off) else get64 b off
let[@inline] rf_set b off v = set64 b off (if Sys.big_endian then bswap64 v else v)

let rf_read ctx off = Bytes.get_int64_le ctx.regfile off
let rf_write ctx off v = Bytes.set_int64_le ctx.regfile off v

let check_reg r = if r < 0 || r >= n_regs then invalid_arg "index out of bounds"

let get_reg ctx r =
  check_reg r;
  get64 ctx.regs (8 * r)

let set_reg ctx r v =
  check_reg r;
  set64 ctx.regs (8 * r) v

let get_pc ctx = get64 ctx.regs pc_off
let set_pc ctx v = set64 ctx.regs pc_off v

let[@inline] charge ctx n =
  let m = ctx.machine in
  m.Machine.cycles <- m.Machine.cycles + n

(* Every executed instruction: its cost up front, then the count. *)
let[@inline] tick ctx c =
  charge ctx c;
  ctx.instrs_executed <- ctx.instrs_executed + 1

(* Generic operand access; spill-slot traffic costs an extra L1 access. *)
let get_slot ctx s = Bytes.get_int64_ne ctx.slots (8 * s)
let set_slot ctx s v = Bytes.set_int64_ne ctx.slots (8 * s) v

let rd ctx = function
  | Preg r -> get_reg ctx r
  | Imm v -> v
  | Slot s ->
    charge ctx 1;
    get_slot ctx s
  | Vreg _ -> invalid_arg "executor: virtual register"

let wr ctx o v =
  match o with
  | Preg r -> set_reg ctx r v
  | Slot s ->
    charge ctx 1;
    set_slot ctx s v
  | Imm _ | Vreg _ -> invalid_arg "executor: bad destination"

(* --- shared concrete semantics (also Symexec's constant folding) ------ *)

open Softfloat

let flags = Sf_types.new_flags ()

let exec_fp2 op a b =
  match op with
  | Fadd64 -> F64.add flags a b
  | Fsub64 -> F64.sub flags a b
  | Fmul64 -> F64.mul flags a b
  | Fdiv64 -> F64.div flags a b
  | Fmin64 -> F64.min_ flags a b
  | Fmax64 -> F64.max_ flags a b
  | Fadd32 -> F32.add flags (Bits.zero_extend a ~width:32) (Bits.zero_extend b ~width:32)
  | Fsub32 -> F32.sub flags (Bits.zero_extend a ~width:32) (Bits.zero_extend b ~width:32)
  | Fmul32 -> F32.mul flags (Bits.zero_extend a ~width:32) (Bits.zero_extend b ~width:32)
  | Fdiv32 -> F32.div flags (Bits.zero_extend a ~width:32) (Bits.zero_extend b ~width:32)
  | Fmin32 -> F32.min_ flags (Bits.zero_extend a ~width:32) (Bits.zero_extend b ~width:32)
  | Fmax32 -> F32.max_ flags (Bits.zero_extend a ~width:32) (Bits.zero_extend b ~width:32)

(* The simulated host FPU: square root has x86 NaN-sign semantics (the
   engine emits the paper's inline fix-up); everything else follows the
   shared softfloat propagation rules. *)
let exec_fp1 op s =
  match op with
  | Fsqrt64 -> F64.sqrt ~style:Sf_types.X86_nan flags s
  | Fsqrt32 -> F32.sqrt ~style:Sf_types.X86_nan flags (Bits.zero_extend s ~width:32)
  | Fcvt_32_64 -> F32.to_f64 flags (Bits.zero_extend s ~width:32)
  | Fcvt_64_32 -> F64.to_f32 flags s
  | Fcvt_64_s64 -> F64.to_int64 flags s
  | Fcvt_64_u64 -> Sf_core.to_uint64 Sf_core.f64_fmt flags s
  | Fcvt_32_s32 -> (
    let v = F32.to_int64 flags (Bits.zero_extend s ~width:32) in
    let v = if v > 2147483647L then 2147483647L else if v < -2147483648L then -2147483648L else v in
    Bits.zero_extend v ~width:32)
  | Fcvt_s64_64 -> F64.of_int64 flags s
  | Fcvt_u64_64 -> F64.of_uint64 flags s
  | Fcvt_s32_32 -> F32.of_int64 flags (Bits.sign_extend s ~width:32)
  | Fcvt_s64_32 -> F32.of_int64 flags s

let fcmp_nzcv w a b =
  let c =
    if w = 64 then F64.compare_ flags a b
    else F32.compare_ flags (Bits.zero_extend a ~width:32) (Bits.zero_extend b ~width:32)
  in
  match c with
  | Sf_core.Cmp_lt -> 8L
  | Sf_core.Cmp_eq -> 6L
  | Sf_core.Cmp_gt -> 2L
  | Sf_core.Cmp_unordered -> 3L

let[@inline] ult (a : int64) b = Int64.sub a Int64.min_int < Int64.sub b Int64.min_int
let[@inline] ule (a : int64) b = Int64.sub a Int64.min_int <= Int64.sub b Int64.min_int
let[@inline] nibble n z c v =
  Int64.of_int ((Bool.to_int n lsl 3) lor (Bool.to_int z lsl 2) lor (Bool.to_int c lsl 1) lor Bool.to_int v)

(* NZCV of [width]-bit AddWithCarry, computed without the tuple:
   [mask]/[sign] are the width's value mask and sign bit. *)
let[@inline] add_nzcv ~mask ~sign a b cin =
  let a = Int64.logand a mask and b = Int64.logand b mask in
  let r = Int64.logand (Int64.add (Int64.add a b) (if cin <> 0L then 1L else 0L)) mask in
  let carry = if cin <> 0L then ule r a else ult r a in
  let ovf = Int64.logand (Int64.logand (Int64.logxor a r) (Int64.logxor b r)) sign <> 0L in
  nibble (Int64.logand r sign <> 0L) (r = 0L) carry ovf

let flags_add_nzcv ~width a b cin =
  add_nzcv ~mask:(Bits.mask width) ~sign:(Bits.shl 1L (width - 1)) a b cin

let flags_logic_nzcv ~width r =
  nibble (Int64.logand r (Bits.shl 1L (width - 1)) <> 0L) (Int64.logand r (Bits.mask width) = 0L) false false

let cond_holds c a b =
  match c with
  | Ceq -> a = b
  | Cne -> a <> b
  | Cult -> ult a b
  | Cule -> ule a b
  | Cugt -> ult b a
  | Cuge -> ule b a
  | Cslt -> a < b
  | Csle -> a <= b
  | Csgt -> a > b
  | Csge -> a >= b

let exec_alu op a b =
  match op with
  | Aadd -> Int64.add a b
  | Asub -> Int64.sub a b
  | Aand -> Int64.logand a b
  | Aor -> Int64.logor a b
  | Axor -> Int64.logxor a b
  | Ashl -> Int64.shift_left a (Int64.to_int b land 63)
  | Ashr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Asar -> Int64.shift_right a (Int64.to_int b land 63)
  | Amul -> Int64.mul a b

let exec_mulhi signed a b =
  let hi, _ = Sf_core.mul64_wide a b in
  let hi = if signed && a < 0L then Int64.sub hi b else hi in
  if signed && b < 0L then Int64.sub hi a else hi

let exec_divrem signed want_rem a b =
  if b = 0L then if want_rem then a else 0L
  else if signed then if want_rem then Int64.rem a b else Int64.div a b
  else if want_rem then Int64.unsigned_rem a b
  else Int64.unsigned_div a b

let exec_ext signed bits v =
  if signed then Bits.sign_extend v ~width:bits else Bits.zero_extend v ~width:bits

let exec_bit1 op v =
  match op with
  | Bclz32 -> Int64.of_int (Bits.clz ~width:32 (Bits.zero_extend v ~width:32))
  | Bclz64 -> Int64.of_int (Bits.clz v)
  | Bpopcnt -> Int64.of_int (Bits.popcount v)
  | Bswap16 -> Bits.byte_swap v ~width:16
  | Bswap32 -> Bits.byte_swap (Bits.zero_extend v ~width:32) ~width:32
  | Bswap64 -> Bits.byte_swap v ~width:64
  | Brbit32 -> Bits.bit_reverse (Bits.zero_extend v ~width:32) ~width:32
  | Brbit64 -> Bits.bit_reverse v ~width:64

let exec_bit2 op a b =
  match op with
  | Bror32 ->
    Bits.rotate_right (Bits.zero_extend a ~width:32) (Int64.to_int (Int64.logand b 31L)) ~width:32
  | Bror64 -> Bits.rotate_right a (Int64.to_int (Int64.logand b 63L)) ~width:64

let instr_cost = function
  | Mov _ | Neg _ | Not _ | Bit1 _ | Bit2 _ | Setcc _ | Cmov _ | Ext _ -> Cost.mov
  | Alu (Amul, _, _, _) -> Cost.int_mul
  | Alu _ -> Cost.alu
  | Mulhi _ -> Cost.int_mul
  | Divrem _ -> Cost.int_div
  | Fp2 ((Fdiv64 | Fdiv32), _, _, _) -> Cost.fp_div
  | Fp2 _ -> Cost.fp
  | Fp1 ((Fsqrt64 | Fsqrt32), _, _) -> Cost.fp_sqrt
  | Fp1 _ -> Cost.fp
  | Fcmp_flags _ -> Cost.fp + 2
  | Flags_add _ -> 2
  | Flags_logic _ -> 1
  | Ldrf _ | Strf _ -> 1 (* register-file access: L1-resident, pipelined *)
  | Load_pc _ | Store_pc _ | Inc_pc _ -> Cost.mov
  | Mem_ld _ | Mem_st _ -> 0 (* charged inside the MMU model *)
  | Call _ -> Cost.helper_call_overhead
  | Jmp _ -> Cost.branch
  | Br _ -> Cost.branch
  | Exit _ -> 0
  (* never executed in sequence; each applied entry charges like a Strf *)
  | Wbmap _ -> 0
  (* free, like the run loop's own irq_pending check at block boundaries:
     a single host flag test folded into the dispatch branch *)
  | Poll _ -> 0
  | Label _ -> 0

(* --- compiled code ------------------------------------------------------ *)

type code = {
  n_slots : int;
  steps : (ctx -> int) array; (* one per instruction, then the fall-off sentinel *)
}

(* Flush dirty promoted guest registers ([Encode.program.wb_map]) to the
   register file: the precise-state step before the world outside the
   translation (fault handler, engine dispatcher) reads it.  Each entry
   costs one cycle, like the [Strf] it stands in for (spilled entries
   charge their slot read on top). *)
let flush_wb map ctx =
  Array.iter
    (fun (o, off) ->
      charge ctx 1;
      ctx.rf_stores <- ctx.rf_stores + 1;
      rf_write ctx off (rd ctx o))
    map

(* Hand a host page fault to the engine; returns the index to continue at. *)
let deliver_fault ctx wb ins idx va access =
  let m = ctx.machine in
  m.Machine.faults <- m.Machine.faults + 1;
  charge ctx Cost.fault_roundtrip;
  (* Precise state: the fault handler (and, through it, the guest's own
     abort handlers) reads the register file. *)
  wb ctx;
  let bits, value =
    match ins with
    | Mem_ld (w, _, _) -> (w, None)
    | Mem_st (w, _, v) -> (w, Some (rd ctx v))
    | _ -> (0, None)
  in
  match ctx.fault_handler ctx access va ~bits ~value with
  | Retry -> idx
  | Mmio_value v -> (
    match ins with
    | Mem_ld (_, d, _) ->
      wr ctx d v;
      idx + 1
    | _ -> invalid_arg "Mmio_value for a non-load")
  | Mmio_done -> idx + 1

(* Region safepoint.  An IRQ the dispatcher could not deliver (the guest
   masks it) is held: the first [Poll] after dispatch ignores it, so the
   translation always makes progress; later ones see it again, so an
   unmask inside the region is honoured at the next member boundary. *)
let[@inline] poll ctx wb slot next =
  let held = ctx.irq_held in
  ctx.irq_held <- false;
  if
    get64 ctx.regs (8 * region_poison_preg) <> 0L
    || ctx.poll_budget <= 0
    || ctx.machine.Machine.cycles >= ctx.poll_deadline
    || (Machine.irq_pending ctx.machine && not held)
  then begin
    wb ctx;
    lnot slot
  end
  else begin
    ctx.poll_budget <- ctx.poll_budget - 1;
    next
  end

(* Clamp a jump target to the fall-off sentinel at index [n]. *)
let target n t = if t < 0 || t > n then n else t

(* The interpretive step for [Slot] operands and the rare forms. *)
let exec_generic ctx wb n idx ins =
  let next = idx + 1 in
  match ins with
  | Label _ | Wbmap _ -> next
  | Mov (d, s) ->
    wr ctx d (rd ctx s);
    next
  | Alu (op, d, a, b) ->
    let a = rd ctx a and b = rd ctx b in
    wr ctx d (exec_alu op a b);
    next
  | Mulhi (signed, d, a, b) ->
    let a = rd ctx a and b = rd ctx b in
    wr ctx d (exec_mulhi signed a b);
    next
  | Divrem (signed, want_rem, d, a, b) ->
    let a = rd ctx a and b = rd ctx b in
    wr ctx d (exec_divrem signed want_rem a b);
    next
  | Setcc (c, d, a, b) ->
    wr ctx d (if cond_holds c (rd ctx a) (rd ctx b) then 1L else 0L);
    next
  | Cmov (d, c, a, b) ->
    wr ctx d (if rd ctx c <> 0L then rd ctx a else rd ctx b);
    next
  | Ext (signed, bits, d, s) ->
    wr ctx d (exec_ext signed bits (rd ctx s));
    next
  | Neg (d, s) ->
    wr ctx d (Int64.neg (rd ctx s));
    next
  | Not (d, s) ->
    wr ctx d (Int64.lognot (rd ctx s));
    next
  | Bit1 (op, d, s) ->
    wr ctx d (exec_bit1 op (rd ctx s));
    next
  | Bit2 (op, d, a, b) ->
    let a = rd ctx a and b = rd ctx b in
    wr ctx d (exec_bit2 op a b);
    next
  | Fp2 (op, d, a, b) ->
    wr ctx d (exec_fp2 op (rd ctx a) (rd ctx b));
    next
  | Fp1 (op, d, s) ->
    wr ctx d (exec_fp1 op (rd ctx s));
    next
  | Fcmp_flags (w, d, a, b) ->
    wr ctx d (fcmp_nzcv w (rd ctx a) (rd ctx b));
    next
  | Flags_add (w, d, a, b, c) ->
    let a = rd ctx a and b = rd ctx b and cin = rd ctx c in
    wr ctx d (flags_add_nzcv ~width:w a b cin);
    next
  | Flags_logic (w, d, s) ->
    wr ctx d (flags_logic_nzcv ~width:w (rd ctx s));
    next
  | Ldrf (d, off) ->
    ctx.rf_loads <- ctx.rf_loads + 1;
    wr ctx d (rf_read ctx off);
    next
  | Strf (off, s) ->
    ctx.rf_stores <- ctx.rf_stores + 1;
    rf_write ctx off (rd ctx s);
    next
  | Load_pc d ->
    wr ctx d (get_pc ctx);
    next
  | Store_pc s ->
    set_pc ctx (rd ctx s);
    next
  | Inc_pc k ->
    set_pc ctx (Int64.add (get_pc ctx) (Int64.of_int k));
    next
  | Mem_ld (w, d, a) ->
    wr ctx d (Machine.mem_read ctx.machine ~bits:w (rd ctx a));
    next
  | Mem_st (w, a, v) ->
    Machine.mem_write ctx.machine ~bits:w (rd ctx a) (rd ctx v);
    next
  | Call (h, args, ret) ->
    let helper = ctx.helpers.(h) in
    charge ctx helper.cost;
    let vals = Array.map (rd ctx) args in
    let r = helper.fn ctx vals in
    (match ret with Some dst -> wr ctx dst r | None -> ());
    next
  | Jmp t -> target n t
  | Br (c, t, f) -> if rd ctx c <> 0L then target n t else target n f
  | Exit slot ->
    wb ctx;
    lnot slot
  | Poll slot -> poll ctx wb slot next

let generic ~wb ~n idx ins =
  let cost = instr_cost ins in
  fun ctx ->
    tick ctx cost;
    match exec_generic ctx wb n idx ins with
    | next -> next
    | exception Machine.Host_fault { va; access } -> deliver_fault ctx wb ins idx va access

(* Specialised shapes.  [d], [a], [b], [s] below are byte offsets into
   [ctx.regs]; [ki] is an immediate captured as an OCaml [int]. *)

let alu_rr op c d a b next : ctx -> int =
  match op with
  | Aadd -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.add (get64 r a) (get64 r b)); next
  | Asub -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.sub (get64 r a) (get64 r b)); next
  | Aand -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.logand (get64 r a) (get64 r b)); next
  | Aor -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.logor (get64 r a) (get64 r b)); next
  | Axor -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.logxor (get64 r a) (get64 r b)); next
  | Amul -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.mul (get64 r a) (get64 r b)); next
  | Ashl ->
    fun ctx -> tick ctx c; let r = ctx.regs in
      set64 r d (Int64.shift_left (get64 r a) (Int64.to_int (get64 r b) land 63)); next
  | Ashr ->
    fun ctx -> tick ctx c; let r = ctx.regs in
      set64 r d (Int64.shift_right_logical (get64 r a) (Int64.to_int (get64 r b) land 63)); next
  | Asar ->
    fun ctx -> tick ctx c; let r = ctx.regs in
      set64 r d (Int64.shift_right (get64 r a) (Int64.to_int (get64 r b) land 63)); next

let alu_ri op c d a ki next : ctx -> int =
  let sh = ki land 63 in
  match op with
  | Aadd -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.add (get64 r a) (Int64.of_int ki)); next
  | Asub -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.sub (get64 r a) (Int64.of_int ki)); next
  | Aand -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.logand (get64 r a) (Int64.of_int ki)); next
  | Aor -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.logor (get64 r a) (Int64.of_int ki)); next
  | Axor -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.logxor (get64 r a) (Int64.of_int ki)); next
  | Amul -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.mul (get64 r a) (Int64.of_int ki)); next
  | Ashl -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.shift_left (get64 r a) sh); next
  | Ashr -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.shift_right_logical (get64 r a) sh); next
  | Asar -> fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (Int64.shift_right (get64 r a) sh); next

(* Setcc: an unsigned comparison is the signed one with both operands'
   sign bits flipped ([flip] = min_int), so six relations cover all ten
   conditions; register-register forms also swap operands to drop
   [>]/[>=]. *)
let rel_of : cond -> Absval.cmp * int64 = function
  | Ceq -> (Eq, 0L)
  | Cne -> (Ne, 0L)
  | Cslt -> (Lt, 0L)
  | Csle -> (Le, 0L)
  | Csgt -> (Gt, 0L)
  | Csge -> (Ge, 0L)
  | Cult -> (Lt, Int64.min_int)
  | Cule -> (Le, Int64.min_int)
  | Cugt -> (Gt, Int64.min_int)
  | Cuge -> (Ge, Int64.min_int)

let[@inline] set_bool r d b = set64 r d (Int64.of_int (Bool.to_int b))

let setcc_rr cond c d a b next : ctx -> int =
  let rel, flip = rel_of cond in
  let rel, a, b = match rel with Gt -> (Absval.Lt, b, a) | Ge -> (Le, b, a) | _ -> (rel, a, b) in
  let[@inline] x r o = Int64.logxor (get64 r o) flip in
  match rel with
  | Eq -> fun ctx -> tick ctx c; let r = ctx.regs in set_bool r d (get64 r a = get64 r b); next
  | Ne -> fun ctx -> tick ctx c; let r = ctx.regs in set_bool r d (get64 r a <> get64 r b); next
  | Lt | Gt -> fun ctx -> tick ctx c; let r = ctx.regs in set_bool r d (x r a < x r b); next
  | Le | Ge -> fun ctx -> tick ctx c; let r = ctx.regs in set_bool r d (x r a <= x r b); next

let setcc_ri cond c d a ki next : ctx -> int =
  let rel, flip = rel_of cond in
  let[@inline] x r o = Int64.logxor (get64 r o) flip in
  let[@inline] k () = Int64.logxor (Int64.of_int ki) flip in
  match rel with
  | Eq -> fun ctx -> tick ctx c; let r = ctx.regs in set_bool r d (get64 r a = Int64.of_int ki); next
  | Ne -> fun ctx -> tick ctx c; let r = ctx.regs in set_bool r d (get64 r a <> Int64.of_int ki); next
  | Lt -> fun ctx -> tick ctx c; let r = ctx.regs in set_bool r d (x r a < k ()); next
  | Le -> fun ctx -> tick ctx c; let r = ctx.regs in set_bool r d (x r a <= k ()); next
  | Gt -> fun ctx -> tick ctx c; let r = ctx.regs in set_bool r d (x r a > k ()); next
  | Ge -> fun ctx -> tick ctx c; let r = ctx.regs in set_bool r d (x r a >= k ()); next

(* Immediates the specialised shapes capture as an OCaml [int] (every
   63-bit value; wider ones take the generic path), so a closure retains
   no boxed [int64]. *)
let small k = Int64.equal (Int64.of_int (Int64.to_int k)) k

(* A register-or-immediate source: a register's byte offset, or -1 and
   the immediate. *)
let[@inline] src regs o k = if o < 0 then Int64.of_int k else get64 regs o

let ok_reg r = r >= 0 && r < n_regs
let ok_src = function Preg r -> ok_reg r | Imm k -> small k | _ -> false
let src_of = function Preg r -> (8 * r, 0) | Imm k -> (-1, Int64.to_int k) | _ -> assert false
let ok_rf off = off >= 0 && off <= regfile_bytes - 8

let compile_step ~n ~wb idx ins : ctx -> int =
  let next = idx + 1 in
  let c = instr_cost ins in
  match ins with
  | Label _ -> fun ctx -> tick ctx c; next
  | Jmp t ->
    let t = target n t in
    fun ctx -> tick ctx c; t
  | Exit slot -> fun ctx -> tick ctx c; wb ctx; lnot slot
  | Poll slot -> fun ctx -> tick ctx c; poll ctx wb slot next
  | Inc_pc k ->
    fun ctx -> tick ctx c; let r = ctx.regs in set64 r pc_off (Int64.add (get64 r pc_off) (Int64.of_int k)); next
  | Mov (Preg d, Imm k) when ok_reg d && small k ->
    let d = 8 * d and k = Int64.to_int k in
    fun ctx -> tick ctx c; set64 ctx.regs d (Int64.of_int k); next
  | Mov (Preg d, Preg s) when ok_reg d && ok_reg s ->
    let d = 8 * d and s = 8 * s in
    fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (get64 r s); next
  | Alu (op, Preg d, Preg a, Imm k) when ok_reg d && ok_reg a && small k ->
    alu_ri op c (8 * d) (8 * a) (Int64.to_int k) next
  | Alu (op, Preg d, Preg a, Preg b) when ok_reg d && ok_reg a && ok_reg b ->
    alu_rr op c (8 * d) (8 * a) (8 * b) next
  | Setcc (cond, Preg d, Preg a, Imm k) when ok_reg d && ok_reg a && small k ->
    setcc_ri cond c (8 * d) (8 * a) (Int64.to_int k) next
  | Setcc (cond, Preg d, Preg a, Preg b) when ok_reg d && ok_reg a && ok_reg b ->
    setcc_rr cond c (8 * d) (8 * a) (8 * b) next
  | Br (Preg cond, t, f) when ok_reg cond ->
    let cond = 8 * cond and t = target n t and f = target n f in
    fun ctx -> tick ctx c; if get64 ctx.regs cond <> 0L then t else f
  | Ldrf (Preg d, off) when ok_reg d && ok_rf off ->
    let d = 8 * d in
    fun ctx ->
      tick ctx c;
      ctx.rf_loads <- ctx.rf_loads + 1;
      set64 ctx.regs d (rf_get ctx.regfile off);
      next
  | Strf (off, s) when ok_src s && ok_rf off ->
    let s, sk = src_of s in
    fun ctx ->
      tick ctx c;
      ctx.rf_stores <- ctx.rf_stores + 1;
      rf_set ctx.regfile off (src ctx.regs s sk);
      next
  | Load_pc (Preg d) when ok_reg d ->
    let d = 8 * d in
    fun ctx -> tick ctx c; let r = ctx.regs in set64 r d (get64 r pc_off); next
  | Store_pc s when ok_src s ->
    let s, sk = src_of s in
    fun ctx -> tick ctx c; let r = ctx.regs in set64 r pc_off (src r s sk); next
  | Mem_ld (w, Preg d, Preg a) when ok_reg d && ok_reg a ->
    let d = 8 * d and a = 8 * a in
    fun ctx ->
      tick ctx c;
      (match Machine.mem_read ctx.machine ~bits:w (get64 ctx.regs a) with
      | v -> set64 ctx.regs d v; next
      | exception Machine.Host_fault { va; access } -> deliver_fault ctx wb ins idx va access)
  | Mem_st (w, Preg a, v) when ok_reg a && ok_src v ->
    let a = 8 * a and v, vk = src_of v in
    fun ctx ->
      tick ctx c;
      let r = ctx.regs in
      (match Machine.mem_write ctx.machine ~bits:w (get64 r a) (src r v vk) with
      | () -> next
      | exception Machine.Host_fault { va; access } -> deliver_fault ctx wb ins idx va access)
  | Flags_add (w, Preg d, a, b, cin) when ok_reg d && ok_src a && ok_src b && ok_src cin ->
    let d = 8 * d and mask = Bits.mask w and sign = Bits.shl 1L (w - 1) in
    let a, ak = src_of a and b, bk = src_of b and cin, ck = src_of cin in
    fun ctx ->
      tick ctx c;
      let r = ctx.regs in
      set64 r d (add_nzcv ~mask ~sign (src r a ak) (src r b bk) (src r cin ck));
      next
  | _ -> generic ~wb ~n idx ins

let compile (p : Encode.program) : code =
  let n = Array.length p.Encode.code in
  let wb = flush_wb p.Encode.wb_map in
  let fell_off _ = invalid_arg "translation fell off the end without an exit" in
  let steps = Array.make (n + 1) fell_off in
  Array.iteri (fun i ins -> steps.(i) <- compile_step ~n ~wb i ins) p.Encode.code;
  { n_slots = p.Encode.n_slots; steps }

(* Run compiled code; returns the chain-slot id of the exit taken.  Every
   index a step returns is within [0, n], so the fetch needs no check. *)
let run (ctx : ctx) (code : code) : int =
  if Bytes.length ctx.slots < 8 * code.n_slots then ctx.slots <- Bytes.make (8 * code.n_slots) '\000';
  let steps = code.steps in
  let rec go i =
    let r = (Array.unsafe_get steps i) ctx in
    if r >= 0 then go r else lnot r
  in
  go 0
