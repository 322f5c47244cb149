(* Execution of encoded host machine code against the HVM.

   A decoded program (Encode.program) is compiled once per translation
   into segment closures ({!compile}); [run] then only calls closures.  A
   segment is a straight-line run of instructions that starts at a
   segment head (index 0, a jump target, or the instruction after a
   segment's end) and ends at control flow ([Jmp], [Br], [Exit],
   [Poll]), at an instruction that can observe the cycle count from
   outside the executor's own arithmetic ([Mem_ld], [Mem_st], [Call]),
   or at a step that can raise (a [Vreg] or otherwise invalid operand).
   Its body instructions run as closures specialised on their operand
   shapes that neither charge nor return an index; its terminator
   charges the whole segment's Hvm.Cost and instruction count at once,
   then acts and returns the index of the next segment head, or
   [lnot slot] for an exit through chain slot [slot].

   This is exact.  Only a segment's terminator can observe
   [Machine.cycles] or [instrs_executed], and every charge ([Slot]
   accesses included) is additive, so the terminator sees the same totals
   that charging each instruction before its operation would give.  A
   raising step is its segment's terminator, so it is charged and counted
   and nothing after it is.

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
   [Retry] re-executes the faulting instruction once the handler has
   populated the host page tables, entering at an entry of that
   instruction alone so that it is re-charged and re-counted exactly
   once; [Mmio_*] completes the access by device emulation and continues
   at the next segment head; guest exceptions simply propagate as OCaml
   exceptions to the engine's run loop. *)

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
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Native <-> little-endian, in either direction. *)
let[@inline] le16 v = if Sys.big_endian then bswap16 v else v
let[@inline] le32 v = if Sys.big_endian then bswap32 v else v
let[@inline] le64 v = if Sys.big_endian then bswap64 v else v
let[@inline] rf_get b off = le64 (get64 b off)
let[@inline] rf_set b off v = set64 b off (le64 v)

let rf_read ctx off = Bytes.get_int64_le ctx.regfile off
let rf_write ctx off v = Bytes.set_int64_le ctx.regfile off v

let check_reg r = if r < 0 || r >= n_regs then invalid_arg "index out of bounds"
let ok_reg r = r >= 0 && r < n_regs
let ok_rf off = off >= 0 && off <= regfile_bytes - 8

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

(* A segment's summed cost and instruction count, charged once by its
   terminator before it acts. *)
let[@inline] enter ctx cost count =
  charge ctx cost;
  ctx.instrs_executed <- ctx.instrs_executed + count

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
  (* a closure at every segment head and every retryable instruction
     ([Mem_ld], [Mem_st], [Call]), then the fall-off sentinel *)
  entries : (ctx -> int) array;
}

(* Flush dirty promoted guest registers ([Encode.program.wb_map]) to the
   register file: the precise-state step before the world outside the
   translation (fault handler, engine dispatcher) reads it.  Each entry
   costs one cycle, like the [Strf] it stands in for (spilled entries
   charge their slot read on top).  A map of physical registers only,
   the common case, is compiled into offset arrays and copies unboxed. *)
let flush_wb map =
  let n = Array.length map in
  if Array.for_all (function Preg r, off -> ok_reg r && ok_rf off | _ -> false) map then begin
    let regs = Array.map (function Preg r, _ -> 8 * r | _ -> assert false) map in
    let offs = Array.map snd map in
    fun ctx ->
      charge ctx n;
      ctx.rf_stores <- ctx.rf_stores + n;
      for i = 0 to n - 1 do
        rf_set ctx.regfile (Array.unsafe_get offs i) (get64 ctx.regs (Array.unsafe_get regs i))
      done
  end
  else fun ctx ->
    Array.iter
      (fun (o, off) ->
        charge ctx 1;
        ctx.rf_stores <- ctx.rf_stores + 1;
        rf_write ctx off (rd ctx o))
      map

(* Hand a host page fault to the engine; returns the index to continue
   at: the access's own entry on [Retry], else the next segment head. *)
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

(* [Machine.irq_pending]'s own first test, made here so that a poll in
   the quiet window makes no call. *)
let[@inline] quiet_over m = m.Machine.cycles - m.Machine.jit_cycles >= m.Machine.quiet_until

(* Region safepoint: true (after the write-back flush) when the region
   must exit.  An IRQ the dispatcher could not deliver (the guest masks
   it) is held: the first [Poll] after dispatch ignores it, so the
   translation always makes progress; later ones see it again, so an
   unmask inside the region is honoured at the next member boundary. *)
let[@inline] poll_exits ctx wb =
  let held = ctx.irq_held in
  ctx.irq_held <- false;
  if
    get64 ctx.regs (8 * region_poison_preg) <> 0L
    || ctx.poll_budget <= 0
    || ctx.machine.Machine.cycles >= ctx.poll_deadline
    || (quiet_over ctx.machine && Machine.irq_pending ctx.machine && not held)
  then begin
    wb ctx;
    true
  end
  else begin
    ctx.poll_budget <- ctx.poll_budget - 1;
    false
  end

(* --- the memory fast path ---------------------------------------------

   A register-addressed load or store that hits in the host TLB model
   with its permissions passing, on plain RAM and inside one frame, is
   completed here without a call into [Machine] and with no allocation.
   It bumps exactly what [Machine.mem_read]/[mem_write] would: [mem_ops],
   [Cost.mem_access] and, with paging on, the TLB's hit count.  Every
   other access (a miss, a fault, MMIO, out of RAM, a frame straddle)
   takes the unchanged [Machine] path. *)

module Mem = Hvm.Mem
module Tlb = Hvm.Tlb

external ram_get16 : Mem.frame -> int -> int = "%caml_bigstring_get16u"
external ram_get32 : Mem.frame -> int -> int32 = "%caml_bigstring_get32u"
external ram_get64 : Mem.frame -> int -> int64 = "%caml_bigstring_get64u"
external ram_set16 : Mem.frame -> int -> int -> unit = "%caml_bigstring_set16u"
external ram_set32 : Mem.frame -> int -> int32 -> unit = "%caml_bigstring_set32u"
external ram_set64 : Mem.frame -> int -> int64 -> unit = "%caml_bigstring_set64u"

let frame_mask = Mem.frame_size - 1

(* The RAM address of a [len]-byte access at [va], or -1 when the access
   must take the [Machine] path.  With paging off, pa = va.  A TLB entry
   answers only if it is valid, holds [va]'s page and is global or of the
   current PCID, the same test as [Tlb.lookup]; a write needs [writable]
   and ring 3 needs [user], as in [Machine.translate]. *)
let[@inline] ram_addr m ~write ~len va =
  let pa =
    if not m.Machine.paging then va
    else begin
      let tlb = m.Machine.tlb in
      let vpn = Int64.shift_right_logical va 12 in
      let e = Array.unsafe_get tlb.Tlb.entries (Int64.to_int vpn land (tlb.Tlb.size - 1)) in
      if
        e.Tlb.valid && e.Tlb.vpn = vpn
        && (e.Tlb.global || e.Tlb.pcid = m.Machine.pcid)
        && (e.Tlb.writable || not write)
        && (e.Tlb.user || m.Machine.ring <> 3)
      then Int64.logor e.Tlb.frame (Int64.logand va 0xFFFL)
      else -1L (* above every [ram_limit] *)
    end
  in
  let lim = m.Machine.ram_limit in
  if ult pa (Int64.of_int lim) then begin
    let a = Int64.to_int pa in
    if a + len <= lim && a land frame_mask <= Mem.frame_size - len then a else -1
  end
  else -1

let[@inline] ram_hit m =
  m.Machine.mem_ops <- m.Machine.mem_ops + 1;
  m.Machine.cycles <- m.Machine.cycles + Cost.mem_access;
  if m.Machine.paging then begin
    let tlb = m.Machine.tlb in
    tlb.Tlb.hits <- tlb.Tlb.hits + 1
  end

(* Little-endian RAM access of [w] bits at RAM address [a], as [Mem.read]
   and [Mem.write] do it for an access inside one frame. *)
let[@inline] ram_read mem w a =
  let f = Mem.frame mem a and o = a land frame_mask in
  match w with
  | 8 -> Int64.of_int (Char.code (Bigarray.Array1.unsafe_get f o))
  | 16 -> Int64.of_int (le16 (ram_get16 f o))
  | 32 -> Int64.logand (Int64.of_int32 (le32 (ram_get32 f o))) 0xFFFFFFFFL
  | _ -> le64 (ram_get64 f o)

let[@inline] ram_write mem w a v =
  let f = Mem.frame_for_write mem a and o = a land frame_mask in
  match w with
  | 8 -> Bigarray.Array1.unsafe_set f o (Char.unsafe_chr (Int64.to_int v land 0xFF))
  | 16 -> ram_set16 f o (le16 (Int64.to_int v land 0xFFFF))
  | 32 -> ram_set32 f o (le32 (Int64.to_int32 v))
  | _ -> ram_set64 f o (le64 v)

let ok_width w = w = 8 || w = 16 || w = 32 || w = 64

(* Clamp a jump target to the fall-off sentinel at index [n]. *)
let target n t = if t < 0 || t > n then n else t

(* The interpretive operation for [Slot] operands and the rare forms;
   control flow is its caller's. *)
let exec_op ctx ins =
  match ins with
  | Label _ | Wbmap _ | Jmp _ | Br _ | Exit _ | Poll _ -> ()
  | Mov (d, s) -> wr ctx d (rd ctx s)
  | Alu (op, d, a, b) ->
    let a = rd ctx a and b = rd ctx b in
    wr ctx d (exec_alu op a b)
  | Mulhi (signed, d, a, b) ->
    let a = rd ctx a and b = rd ctx b in
    wr ctx d (exec_mulhi signed a b)
  | Divrem (signed, want_rem, d, a, b) ->
    let a = rd ctx a and b = rd ctx b in
    wr ctx d (exec_divrem signed want_rem a b)
  | Setcc (c, d, a, b) -> wr ctx d (if cond_holds c (rd ctx a) (rd ctx b) then 1L else 0L)
  | Cmov (d, c, a, b) -> wr ctx d (if rd ctx c <> 0L then rd ctx a else rd ctx b)
  | Ext (signed, bits, d, s) -> wr ctx d (exec_ext signed bits (rd ctx s))
  | Neg (d, s) -> wr ctx d (Int64.neg (rd ctx s))
  | Not (d, s) -> wr ctx d (Int64.lognot (rd ctx s))
  | Bit1 (op, d, s) -> wr ctx d (exec_bit1 op (rd ctx s))
  | Bit2 (op, d, a, b) ->
    let a = rd ctx a and b = rd ctx b in
    wr ctx d (exec_bit2 op a b)
  | Fp2 (op, d, a, b) -> wr ctx d (exec_fp2 op (rd ctx a) (rd ctx b))
  | Fp1 (op, d, s) -> wr ctx d (exec_fp1 op (rd ctx s))
  | Fcmp_flags (w, d, a, b) -> wr ctx d (fcmp_nzcv w (rd ctx a) (rd ctx b))
  | Flags_add (w, d, a, b, c) ->
    let a = rd ctx a and b = rd ctx b and cin = rd ctx c in
    wr ctx d (flags_add_nzcv ~width:w a b cin)
  | Flags_logic (w, d, s) -> wr ctx d (flags_logic_nzcv ~width:w (rd ctx s))
  | Ldrf (d, off) ->
    ctx.rf_loads <- ctx.rf_loads + 1;
    wr ctx d (rf_read ctx off)
  | Strf (off, s) ->
    ctx.rf_stores <- ctx.rf_stores + 1;
    rf_write ctx off (rd ctx s)
  | Load_pc d -> wr ctx d (get_pc ctx)
  | Store_pc s -> set_pc ctx (rd ctx s)
  | Inc_pc k -> set_pc ctx (Int64.add (get_pc ctx) (Int64.of_int k))
  | Mem_ld (w, d, a) -> wr ctx d (Machine.mem_read ctx.machine ~bits:w (rd ctx a))
  | Mem_st (w, a, v) -> Machine.mem_write ctx.machine ~bits:w (rd ctx a) (rd ctx v)
  | Call (h, args, ret) -> (
    let helper = ctx.helpers.(h) in
    charge ctx helper.cost;
    let vals = Array.map (rd ctx) args in
    let r = helper.fn ctx vals in
    match ret with Some dst -> wr ctx dst r | None -> ())

(* The generic terminator: charges its segment, then interprets. *)
let generic ~wb ~n ~cost ~count idx ins : ctx -> int =
  let next = idx + 1 in
  fun ctx ->
    enter ctx cost count;
    match ins with
    | Br (c, t, f) -> if rd ctx c <> 0L then target n t else target n f
    | _ -> (
      match exec_op ctx ins with
      | () -> next
      | exception Machine.Host_fault { va; access } -> deliver_fault ctx wb ins idx va access)

(* Specialised body shapes.  [d], [a], [b], [s] below are byte offsets
   into [ctx.regs]; [ki] is an immediate captured as an OCaml [int]. *)

let alu_rr op d a b : ctx -> unit =
  match op with
  | Aadd -> fun ctx -> let r = ctx.regs in set64 r d (Int64.add (get64 r a) (get64 r b))
  | Asub -> fun ctx -> let r = ctx.regs in set64 r d (Int64.sub (get64 r a) (get64 r b))
  | Aand -> fun ctx -> let r = ctx.regs in set64 r d (Int64.logand (get64 r a) (get64 r b))
  | Aor -> fun ctx -> let r = ctx.regs in set64 r d (Int64.logor (get64 r a) (get64 r b))
  | Axor -> fun ctx -> let r = ctx.regs in set64 r d (Int64.logxor (get64 r a) (get64 r b))
  | Amul -> fun ctx -> let r = ctx.regs in set64 r d (Int64.mul (get64 r a) (get64 r b))
  | Ashl ->
    fun ctx -> let r = ctx.regs in set64 r d (Int64.shift_left (get64 r a) (Int64.to_int (get64 r b) land 63))
  | Ashr ->
    fun ctx -> let r = ctx.regs in
      set64 r d (Int64.shift_right_logical (get64 r a) (Int64.to_int (get64 r b) land 63))
  | Asar ->
    fun ctx -> let r = ctx.regs in set64 r d (Int64.shift_right (get64 r a) (Int64.to_int (get64 r b) land 63))

let alu_ri op d a ki : ctx -> unit =
  let sh = ki land 63 in
  match op with
  | Aadd -> fun ctx -> let r = ctx.regs in set64 r d (Int64.add (get64 r a) (Int64.of_int ki))
  | Asub -> fun ctx -> let r = ctx.regs in set64 r d (Int64.sub (get64 r a) (Int64.of_int ki))
  | Aand -> fun ctx -> let r = ctx.regs in set64 r d (Int64.logand (get64 r a) (Int64.of_int ki))
  | Aor -> fun ctx -> let r = ctx.regs in set64 r d (Int64.logor (get64 r a) (Int64.of_int ki))
  | Axor -> fun ctx -> let r = ctx.regs in set64 r d (Int64.logxor (get64 r a) (Int64.of_int ki))
  | Amul -> fun ctx -> let r = ctx.regs in set64 r d (Int64.mul (get64 r a) (Int64.of_int ki))
  | Ashl -> fun ctx -> let r = ctx.regs in set64 r d (Int64.shift_left (get64 r a) sh)
  | Ashr -> fun ctx -> let r = ctx.regs in set64 r d (Int64.shift_right_logical (get64 r a) sh)
  | Asar -> fun ctx -> let r = ctx.regs in set64 r d (Int64.shift_right (get64 r a) sh)

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

let setcc_rr cond d a b : ctx -> unit =
  let rel, flip = rel_of cond in
  let rel, a, b = match rel with Gt -> (Absval.Lt, b, a) | Ge -> (Le, b, a) | _ -> (rel, a, b) in
  let[@inline] x r o = Int64.logxor (get64 r o) flip in
  match rel with
  | Eq -> fun ctx -> let r = ctx.regs in set_bool r d (get64 r a = get64 r b)
  | Ne -> fun ctx -> let r = ctx.regs in set_bool r d (get64 r a <> get64 r b)
  | Lt | Gt -> fun ctx -> let r = ctx.regs in set_bool r d (x r a < x r b)
  | Le | Ge -> fun ctx -> let r = ctx.regs in set_bool r d (x r a <= x r b)

let setcc_ri cond d a ki : ctx -> unit =
  let rel, flip = rel_of cond in
  let[@inline] x r o = Int64.logxor (get64 r o) flip in
  let[@inline] k () = Int64.logxor (Int64.of_int ki) flip in
  match rel with
  | Eq -> fun ctx -> let r = ctx.regs in set_bool r d (get64 r a = Int64.of_int ki)
  | Ne -> fun ctx -> let r = ctx.regs in set_bool r d (get64 r a <> Int64.of_int ki)
  | Lt -> fun ctx -> let r = ctx.regs in set_bool r d (x r a < k ())
  | Le -> fun ctx -> let r = ctx.regs in set_bool r d (x r a <= k ())
  | Gt -> fun ctx -> let r = ctx.regs in set_bool r d (x r a > k ())
  | Ge -> fun ctx -> let r = ctx.regs in set_bool r d (x r a >= k ())

(* Immediates the specialised shapes capture as an OCaml [int] (every
   63-bit value; wider ones take the generic path), so a closure retains
   no boxed [int64]. *)
let small k = Int64.equal (Int64.of_int (Int64.to_int k)) k

(* A register-or-immediate source: a register's byte offset, or -1 and
   the immediate. *)
let[@inline] src regs o k = if o < 0 then Int64.of_int k else get64 regs o

(* [Bits.clz] and [Bits.bit_reverse] at width 64, repeated here so that
   they inline and their operands stay unboxed. *)
let[@inline] popcount64 x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555_5555_5555_5555L) in
  let x =
    Int64.add (Int64.logand x 0x3333_3333_3333_3333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333_3333_3333_3333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F_0F0F_0F0F_0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101_0101_0101_0101L) 56)

let[@inline] smear x k = Int64.logor x (Int64.shift_right_logical x k)

let[@inline] clz64 x =
  let x = smear (smear (smear x 1) 2) 4 in
  popcount64 (Int64.lognot (smear (smear (smear x 8) 16) 32))

let[@inline] swap_bits x m k =
  Int64.logor (Int64.logand (Int64.shift_right_logical x k) m) (Int64.shift_left (Int64.logand x m) k)

let[@inline] rbit64 x =
  let x = swap_bits x 0x5555_5555_5555_5555L 1 in
  let x = swap_bits x 0x3333_3333_3333_3333L 2 in
  bswap64 (swap_bits x 0x0F0F_0F0F_0F0F_0F0FL 4)

let ok_src = function Preg r -> ok_reg r | Imm k -> small k | _ -> false
let src_of = function Preg r -> (8 * r, 0) | Imm k -> (-1, Int64.to_int k) | _ -> assert false

(* A body instruction: performs its operation, neither charging nor
   returning an index. *)
let compile_op ins : ctx -> unit =
  match ins with
  | Inc_pc k -> fun ctx -> let r = ctx.regs in set64 r pc_off (Int64.add (get64 r pc_off) (Int64.of_int k))
  | Mov (Preg d, Imm k) when ok_reg d && small k ->
    let d = 8 * d and k = Int64.to_int k in
    fun ctx -> set64 ctx.regs d (Int64.of_int k)
  | Mov (Preg d, Preg s) when ok_reg d && ok_reg s ->
    let d = 8 * d and s = 8 * s in
    fun ctx -> let r = ctx.regs in set64 r d (get64 r s)
  | Alu (op, Preg d, Preg a, Imm k) when ok_reg d && ok_reg a && small k ->
    alu_ri op (8 * d) (8 * a) (Int64.to_int k)
  | Alu (op, Preg d, Preg a, Preg b) when ok_reg d && ok_reg a && ok_reg b -> alu_rr op (8 * d) (8 * a) (8 * b)
  | Setcc (cond, Preg d, Preg a, Imm k) when ok_reg d && ok_reg a && small k ->
    setcc_ri cond (8 * d) (8 * a) (Int64.to_int k)
  | Setcc (cond, Preg d, Preg a, Preg b) when ok_reg d && ok_reg a && ok_reg b ->
    setcc_rr cond (8 * d) (8 * a) (8 * b)
  | Ldrf (Preg d, off) when ok_reg d && ok_rf off ->
    let d = 8 * d in
    fun ctx ->
      ctx.rf_loads <- ctx.rf_loads + 1;
      set64 ctx.regs d (rf_get ctx.regfile off)
  | Strf (off, s) when ok_src s && ok_rf off ->
    let s, sk = src_of s in
    fun ctx ->
      ctx.rf_stores <- ctx.rf_stores + 1;
      rf_set ctx.regfile off (src ctx.regs s sk)
  | Load_pc (Preg d) when ok_reg d ->
    let d = 8 * d in
    fun ctx -> let r = ctx.regs in set64 r d (get64 r pc_off)
  | Store_pc s when ok_src s ->
    let s, sk = src_of s in
    fun ctx -> let r = ctx.regs in set64 r pc_off (src r s sk)
  | Bit2 (Bror64, Preg d, Preg a, b) when ok_reg d && ok_reg a && ok_src b ->
    let d = 8 * d and a = 8 * a and b, bk = src_of b in
    fun ctx ->
      let r = ctx.regs in
      let x = get64 r a and n = Int64.to_int (src r b bk) land 63 in
      set64 r d (Int64.logor (Int64.shift_right_logical x n) (Int64.shift_left x ((64 - n) land 63)))
  | Bit1 (Bswap64, Preg d, Preg s) when ok_reg d && ok_reg s ->
    let d = 8 * d and s = 8 * s in
    fun ctx -> let r = ctx.regs in set64 r d (bswap64 (get64 r s))
  | Bit1 (Bclz64, Preg d, Preg s) when ok_reg d && ok_reg s ->
    let d = 8 * d and s = 8 * s in
    fun ctx -> let r = ctx.regs in set64 r d (Int64.of_int (clz64 (get64 r s)))
  | Bit1 (Brbit64, Preg d, Preg s) when ok_reg d && ok_reg s ->
    let d = 8 * d and s = 8 * s in
    fun ctx -> let r = ctx.regs in set64 r d (rbit64 (get64 r s))
  | Flags_add (w, Preg d, a, b, cin) when ok_reg d && ok_src a && ok_src b && ok_src cin ->
    let d = 8 * d and mask = Bits.mask w and sign = Bits.shl 1L (w - 1) in
    let a, ak = src_of a and b, bk = src_of b and cin, ck = src_of cin in
    fun ctx ->
      let r = ctx.regs in
      set64 r d (add_nzcv ~mask ~sign (src r a ak) (src r b bk) (src r cin ck))
  | _ -> fun ctx -> exec_op ctx ins

(* A terminator that is not inlined into its segment: charges the
   segment's [cost] and [count], then acts and returns the next index. *)
let compile_step ~wb ~n ~cost ~count idx ins : ctx -> int =
  let next = idx + 1 in
  match ins with
  | Exit slot ->
    fun ctx ->
      enter ctx cost count;
      wb ctx;
      lnot slot
  | Mem_ld (w, Preg d, Preg a) when ok_reg d && ok_reg a && ok_width w ->
    let d = 8 * d and a = 8 * a and len = w / 8 in
    fun ctx ->
      enter ctx cost count;
      let m = ctx.machine and r = ctx.regs in
      let ra = ram_addr m ~write:false ~len (get64 r a) in
      if ra >= 0 then begin
        ram_hit m;
        set64 r d (ram_read m.Machine.mem w ra);
        next
      end
      else (
        match Machine.mem_read m ~bits:w (get64 r a) with
        | v -> set64 r d v; next
        | exception Machine.Host_fault { va; access } -> deliver_fault ctx wb ins idx va access)
  | Mem_st (w, Preg a, v) when ok_reg a && ok_src v && ok_width w ->
    let a = 8 * a and v, vk = src_of v and len = w / 8 in
    fun ctx ->
      enter ctx cost count;
      let m = ctx.machine and r = ctx.regs in
      let ra = ram_addr m ~write:true ~len (get64 r a) in
      if ra >= 0 then begin
        ram_hit m;
        ram_write m.Machine.mem w ra (src r v vk);
        next
      end
      else (
        match Machine.mem_write m ~bits:w (get64 r a) (src r v vk) with
        | () -> next
        | exception Machine.Host_fault { va; access } -> deliver_fault ctx wb ins idx va access)
  | _ -> generic ~wb ~n ~cost ~count idx ins

(* Operands the generic operation reads or writes without raising. *)
let safe_src n_slots = function
  | Preg r -> ok_reg r
  | Slot s -> s >= 0 && s < n_slots
  | Imm _ -> true
  | Vreg _ -> false

let safe_dst n_slots = function Imm _ -> false | o -> safe_src n_slots o

(* A segment ends at control flow, at an instruction that can observe the
   cycle count (the MMU model charges and devices read time; a helper may
   do either), and at one that can raise: an invalid operand, an
   immediate destination or a register-file offset out of range.  Ending
   a segment early is always exact. *)
let ends_segment ~n_slots:n ins =
  not
    (match ins with
    | Label _ | Wbmap _ | Inc_pc _ -> true
    | Jmp _ | Br _ | Exit _ | Poll _ | Mem_ld _ | Mem_st _ | Call _ -> false
    | Load_pc x -> safe_dst n x
    | Store_pc a -> safe_src n a
    | Ldrf (x, off) -> safe_dst n x && ok_rf off
    | Strf (off, a) -> ok_rf off && safe_src n a
    | Mov (x, a) | Neg (x, a) | Not (x, a) | Ext (_, _, x, a) | Bit1 (_, x, a) | Fp1 (_, x, a)
    | Flags_logic (_, x, a) ->
      safe_dst n x && safe_src n a
    | Alu (_, x, a, b)
    | Mulhi (_, x, a, b)
    | Divrem (_, _, x, a, b)
    | Setcc (_, x, a, b)
    | Bit2 (_, x, a, b)
    | Fp2 (_, x, a, b)
    | Fcmp_flags (_, x, a, b) ->
      safe_dst n x && safe_src n a && safe_src n b
    | Cmov (x, a, b, c) | Flags_add (_, x, a, b, c) ->
      safe_dst n x && safe_src n a && safe_src n b && safe_src n c)

(* How a segment ends when its terminator is inlined: continue at a
   head, branch on a register (its byte offset), or poll and, unless
   that exits through [slot], go straight on to the next head. *)
type term =
  | Goto of int
  | Branch of int * int * int
  | Poll_then of int * int
  | Step of (ctx -> int)

let[@inline] run_ops ops ctx =
  for i = 0 to Array.length ops - 1 do
    (Array.unsafe_get ops i) ctx
  done

(* One closure per segment: its body, unrolled up to four operations,
   then its terminator, which charges the segment before it acts. *)
let segment entries ~wb ~cost ~count ops term : ctx -> int =
  match (term, ops) with
  | Goto t, [] -> fun ctx -> enter ctx cost count; t
  | Goto t, [ a ] -> fun ctx -> a ctx; enter ctx cost count; t
  | Goto t, [ a; b ] -> fun ctx -> a ctx; b ctx; enter ctx cost count; t
  | Goto t, [ a; b; c ] -> fun ctx -> a ctx; b ctx; c ctx; enter ctx cost count; t
  | Goto t, [ a; b; c; d ] -> fun ctx -> a ctx; b ctx; c ctx; d ctx; enter ctx cost count; t
  | Goto t, _ ->
    let ops = Array.of_list ops in
    fun ctx -> run_ops ops ctx; enter ctx cost count; t
  | Branch (r, t, f), [] -> fun ctx -> enter ctx cost count; if get64 ctx.regs r <> 0L then t else f
  | Branch (r, t, f), [ a ] -> fun ctx -> a ctx; enter ctx cost count; if get64 ctx.regs r <> 0L then t else f
  | Branch (r, t, f), [ a; b ] ->
    fun ctx -> a ctx; b ctx; enter ctx cost count; if get64 ctx.regs r <> 0L then t else f
  | Branch (r, t, f), [ a; b; c ] ->
    fun ctx -> a ctx; b ctx; c ctx; enter ctx cost count; if get64 ctx.regs r <> 0L then t else f
  | Branch (r, t, f), [ a; b; c; d ] ->
    fun ctx -> a ctx; b ctx; c ctx; d ctx; enter ctx cost count; if get64 ctx.regs r <> 0L then t else f
  | Branch (r, t, f), _ ->
    let ops = Array.of_list ops in
    fun ctx -> run_ops ops ctx; enter ctx cost count; if get64 ctx.regs r <> 0L then t else f
  | Poll_then (slot, next), [] ->
    fun ctx ->
      enter ctx cost count;
      if poll_exits ctx wb then lnot slot else (Array.unsafe_get entries next) ctx
  | Poll_then (slot, next), [ a ] ->
    fun ctx ->
      a ctx;
      enter ctx cost count;
      if poll_exits ctx wb then lnot slot else (Array.unsafe_get entries next) ctx
  | Poll_then (slot, next), [ a; b ] ->
    fun ctx ->
      a ctx; b ctx;
      enter ctx cost count;
      if poll_exits ctx wb then lnot slot else (Array.unsafe_get entries next) ctx
  | Poll_then (slot, next), [ a; b; c ] ->
    fun ctx ->
      a ctx; b ctx; c ctx;
      enter ctx cost count;
      if poll_exits ctx wb then lnot slot else (Array.unsafe_get entries next) ctx
  | Poll_then (slot, next), [ a; b; c; d ] ->
    fun ctx ->
      a ctx; b ctx; c ctx; d ctx;
      enter ctx cost count;
      if poll_exits ctx wb then lnot slot else (Array.unsafe_get entries next) ctx
  | Poll_then (slot, next), _ ->
    let ops = Array.of_list ops in
    fun ctx ->
      run_ops ops ctx;
      enter ctx cost count;
      if poll_exits ctx wb then lnot slot else (Array.unsafe_get entries next) ctx
  | Step s, [] -> s
  | Step s, [ a ] -> fun ctx -> a ctx; s ctx
  | Step s, [ a; b ] -> fun ctx -> a ctx; b ctx; s ctx
  | Step s, [ a; b; c ] -> fun ctx -> a ctx; b ctx; c ctx; s ctx
  | Step s, [ a; b; c; d ] -> fun ctx -> a ctx; b ctx; c ctx; d ctx; s ctx
  | Step s, _ ->
    let ops = Array.of_list ops in
    fun ctx -> run_ops ops ctx; s ctx

let compile (p : Encode.program) : code =
  let code = p.Encode.code and n_slots = p.Encode.n_slots in
  let n = Array.length code in
  let wb = flush_wb p.Encode.wb_map in
  let ends = Array.map (ends_segment ~n_slots) code in
  let head = Array.make (n + 1) false in
  head.(0) <- true;
  head.(n) <- true;
  for i = 0 to n - 1 do
    if ends.(i) then head.(i + 1) <- true;
    match code.(i) with
    | Jmp t -> head.(target n t) <- true
    | Br (_, t, f) ->
      head.(target n t) <- true;
      head.(target n f) <- true
    | _ -> ()
  done;
  let fell_off _ = invalid_arg "translation fell off the end without an exit" in
  let entries = Array.make (n + 1) fell_off in
  (* Backwards: [last] is the current segment's last instruction; [cost]
     and [ops] cover it down to [i]. *)
  let last = ref n and cost = ref 0 and ops = ref [] in
  for i = n - 1 downto 0 do
    let ins = code.(i) in
    if head.(i + 1) then begin
      last := i;
      cost := 0;
      ops := []
    end;
    cost := !cost + instr_cost ins;
    (match ins with
    | Label _ | Wbmap _ -> ()
    | (Mem_ld _ | Mem_st _ | Call _) when not head.(i) ->
      (* a [Retry] re-enters at the access itself: an entry that charges
         and counts it alone *)
      entries.(i) <- compile_step ~wb ~n ~cost:(instr_cost ins) ~count:1 i ins
    | _ -> if not ends.(i) then ops := compile_op ins :: !ops);
    if head.(i) then begin
      let cost = !cost and count = !last - i + 1 in
      let term =
        if not ends.(!last) then Goto (!last + 1)
        else
          match code.(!last) with
          | Jmp t -> Goto (target n t)
          | Br (Preg r, t, f) when ok_reg r -> Branch (8 * r, target n t, target n f)
          | Poll slot -> Poll_then (slot, !last + 1)
          | ins -> Step (compile_step ~wb ~n ~cost ~count !last ins)
      in
      entries.(i) <- segment entries ~wb ~cost ~count !ops term
    end
  done;
  { n_slots; entries }

(* Every index an entry returns is a segment head or a retryable
   instruction within [0, n], so the fetch needs no check.  A top-level
   loop, so that a run allocates no closure. *)
let rec run_from entries ctx i =
  let r = (Array.unsafe_get entries i) ctx in
  if r >= 0 then run_from entries ctx r else lnot r

(* Run compiled code; returns the chain-slot id of the exit taken. *)
let run (ctx : ctx) (code : code) : int =
  if Bytes.length ctx.slots < 8 * code.n_slots then ctx.slots <- Bytes.make (8 * code.n_slots) '\000';
  run_from code.entries ctx 0
