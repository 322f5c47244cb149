(* Forward abstract interpretation over label-form HostIR streams (the
   translate-time proof layer under the engine's dynamic validators).

   Values live in the known-bits x interval domain shared with the
   SSA-level analysis (Dbt_util.Absval).  Here it is applied below the
   SSA layer, to the flattened instruction streams the engine actually
   allocates and encodes — tier-0 blocks and tier-1 regions, before or
   after register allocation — where facts invisible to the SSA pass
   materialize: region flattening pins guest-PC increments, promotion
   turns register-file traffic into vreg dataflow, and dispatch chunks
   compare values the block translator produced as opaque temporaries.

   The abstract state maps each storage location the executor models —
   vregs, host GPRs, spill slots, register-file qwords at static byte
   offsets, and the dedicated PC register — to a value; absent entries
   mean "any 64-bit value".  Every transfer function over-approximates
   the concrete executor (Exec) exactly: shift amounts mask to 6 bits
   (5 for 32-bit rotates), division by zero yields the ARM-style
   quotient 0 / remainder a, Setcc produces {0,1}, the flags ops
   produce NZCV nibbles.  Helper calls are interpreted through the
   shared effect classification (Effects): clobber helpers havoc the
   register file and the PC, every non-pure helper havocs the reserved
   scratch registers, and faulting memory accesses havoc the register
   file and PC because the fault handler observes (and the guest's
   abort path may rewrite) both before a Retry.

   Three consumers:
   - [check_translation]: the static obligation checker (rf-offset
     bounds and alignment, spill-frame bounds, promoted-register
     discipline and writeback coverage — the latter subsuming the
     verifier's previous ad-hoc fixpoint, which now delegates here);
   - [simplify]: the O4 `absint-simplify` region pass (fold branches
     with known conditions, rewrite fully-known results to constants,
     drop redundant masks and extensions, strength-reduce divisions,
     and delete cross-block dead vreg definitions), closed by a tail of
     jump threading, CFG-wide copy propagation, branch inversion,
     copy retargeting and add-chain folding;
   - the engine's per-translation analysis hook, which runs the checker
     over every translation it produces when [config.check] is set. *)

open Hir
module Bits = Dbt_util.Bits
module V = Dbt_util.Absval

(* --- value transfer functions ---------------------------------------------- *)

let decide_cond (c : cond) a b =
  let cmp, signed =
    match c with
    | Ceq -> (V.Eq, false)
    | Cne -> (V.Ne, false)
    | Cult -> (V.Lt, false)
    | Cule -> (V.Le, false)
    | Cugt -> (V.Gt, false)
    | Cuge -> (V.Ge, false)
    | Cslt -> (V.Lt, true)
    | Csle -> (V.Le, true)
    | Csgt -> (V.Gt, true)
    | Csge -> (V.Ge, true)
  in
  V.decide cmp ~signed a b

(* ALU transfer, matching Exec exactly: shift amounts mask to 6 bits. *)
let alu (op : aluop) a b =
  match (V.is_const a, V.is_const b) with
  | Some x, Some y ->
    V.const
      (match op with
      | Aadd -> Int64.add x y
      | Asub -> Int64.sub x y
      | Aand -> Int64.logand x y
      | Aor -> Int64.logor x y
      | Axor -> Int64.logxor x y
      | Ashl -> Bits.shl x (Int64.to_int (Int64.logand y 63L))
      | Ashr -> Bits.shr x (Int64.to_int (Int64.logand y 63L))
      | Asar -> Bits.sar x (Int64.to_int (Int64.logand y 63L))
      | Amul -> Int64.mul x y)
  | _ -> (
    match op with
    | Aadd -> V.add a b
    | Asub -> V.sub a b
    | Aand -> V.logand a b
    | Aor -> V.logor a b
    | Axor -> V.logxor a b
    | Ashl -> V.shl a b
    | Ashr -> V.lshr a b
    | Asar -> V.ashr a b
    | Amul -> V.mul a b)

let mulhi ~signed a b =
  match (V.is_const a, V.is_const b) with
  | Some x, Some y -> V.const (Exec.exec_mulhi signed x y)
  | _ -> if V.is_bot a || V.is_bot b then V.bot else V.top

let divrem ~signed ~want_rem a b =
  match (V.is_const a, V.is_const b) with
  | Some x, Some y ->
    (* ARM-style guarded divide: b = 0 yields rem = a, div = 0. *)
    V.const (Exec.exec_divrem signed want_rem x y)
  | _ ->
    if V.is_bot a || V.is_bot b then V.bot
    else if signed then V.top
    else if want_rem then V.urem a b
    else V.udiv a b

let cmov c a b =
  if V.is_bot c then V.bot
  else
    match V.is_const c with
    | Some 0L -> b
    | Some _ -> a
    | None -> if not (V.contains c 0L) then a else V.join a b

let neg a =
  match V.is_const a with
  | Some x -> V.const (Int64.neg x)
  | None -> if V.is_bot a then V.bot else V.top

let bit1 (op : bit1op) a =
  match V.is_const a with
  | Some v -> V.const (Exec.exec_bit1 op v)
  | None ->
    if V.is_bot a then V.bot
    else (
      match op with
      | Bclz32 -> V.range 0L 32L
      | Bclz64 -> V.range 0L 64L
      | Bpopcnt -> V.range 0L 64L
      | Bswap16 -> V.of_width 16
      | Bswap32 | Brbit32 -> V.of_width 32
      | Bswap64 | Brbit64 -> V.top)

let bit2 (op : bit2op) a b =
  match (V.is_const a, V.is_const b) with
  | Some x, Some y ->
    V.const (Exec.exec_bit2 op x y)
  | _ ->
    if V.is_bot a || V.is_bot b then V.bot
    else (match op with Bror32 -> V.of_width 32 | Bror64 -> V.top)

(* NZCV nibbles.  Fcmp produces one of {lt=8, eq=6, gt=2, unordered=3};
   Flags_logic sets N|Z only (mutually exclusive: {0, 4, 8}). *)
let one_of cs = List.fold_left (fun acc c -> V.join acc (V.const c)) V.bot cs
let fcmp_value = one_of [ 8L; 6L; 2L; 3L ]
let flags_add_value = V.of_width 4
let flags_logic_value = one_of [ 0L; 4L; 8L ]
let setcc (c : cond) a b =
  match decide_cond c a b with Some r -> V.of_bool r | None -> V.bool_unknown

(* --- abstract state -------------------------------------------------------- *)

module Imap = Map.Make (Int)

(* Absent entries are implicitly top, so joins only keep keys known on
   both sides and havocs are deletions. *)
type state = {
  s_vregs : V.t Imap.t;
  s_pregs : V.t Imap.t;
  s_slots : V.t Imap.t;
  s_rf : V.t Imap.t; (* register-file qwords, by byte offset *)
  s_pc : V.t;
}

let state_top =
  { s_vregs = Imap.empty; s_pregs = Imap.empty; s_slots = Imap.empty; s_rf = Imap.empty; s_pc = V.top }

let map_combine f a b =
  Imap.merge
    (fun _ x y ->
      match (x, y) with
      | Some x, Some y ->
        let v = f x y in
        if V.is_top v then None else Some v
      | _ -> None)
    a b

let state_join a b =
  {
    s_vregs = map_combine V.join a.s_vregs b.s_vregs;
    s_pregs = map_combine V.join a.s_pregs b.s_pregs;
    s_slots = map_combine V.join a.s_slots b.s_slots;
    s_rf = map_combine V.join a.s_rf b.s_rf;
    s_pc = V.join a.s_pc b.s_pc;
  }

let state_widen a b =
  {
    s_vregs = map_combine V.widen a.s_vregs b.s_vregs;
    s_pregs = map_combine V.widen a.s_pregs b.s_pregs;
    s_slots = map_combine V.widen a.s_slots b.s_slots;
    s_rf = map_combine V.widen a.s_rf b.s_rf;
    s_pc = V.widen a.s_pc b.s_pc;
  }

let state_equal a b =
  Imap.equal ( = ) a.s_vregs b.s_vregs
  && Imap.equal ( = ) a.s_pregs b.s_pregs
  && Imap.equal ( = ) a.s_slots b.s_slots
  && Imap.equal ( = ) a.s_rf b.s_rf
  && a.s_pc = b.s_pc

let read (s : state) (o : operand) : V.t =
  let get m k = match Imap.find_opt k m with Some v -> v | None -> V.top in
  match o with
  | Imm c -> V.const c
  | Vreg v -> get s.s_vregs v
  | Preg p -> get s.s_pregs p
  | Slot k -> get s.s_slots k

let write (s : state) (o : operand) (v : V.t) : state =
  let set m k = if V.is_top v then Imap.remove k m else Imap.add k v m in
  match o with
  | Vreg r -> { s with s_vregs = set s.s_vregs r }
  | Preg r -> { s with s_pregs = set s.s_pregs r }
  | Slot k -> { s with s_slots = set s.s_slots k }
  | Imm _ -> s

let rf_read (s : state) off = match Imap.find_opt off s.s_rf with Some v -> v | None -> V.top

(* An 8-byte store at [off] overwrites every qword entry it overlaps;
   only an exactly-aligned entry keeps a fact. *)
let rf_write (s : state) off v =
  let rf = Imap.filter (fun o _ -> o <= off - 8 || o >= off + 8) s.s_rf in
  { s with s_rf = (if V.is_top v then rf else Imap.add off v rf) }

(* A faulting access hands control to the fault handler, which observes
   the register file and PC and — through the guest's own abort path —
   may rewrite both before a Retry resumes the same instruction. *)
let havoc_fault (s : state) = { s with s_rf = Imap.empty; s_pc = V.top }

(* Reserved host registers (spill scratch, AS tag, poison flag, rf base)
   may be rewritten by any traced helper; allocatable registers and
   vregs are helper-invariant (the same model Symexec validates). *)
let havoc_reserved_pregs (s : state) =
  { s with s_pregs = Imap.filter (fun p _ -> p < Regalloc.num_allocatable) s.s_pregs }

let transfer ~(classify : int -> Effects.helper_kind) (s : state) (ins : instr) : state =
  match ins with
  | Mov (d, src) -> write s d (read s src)
  | Alu (op, d, a, b) -> write s d (alu op (read s a) (read s b))
  | Mulhi (signed, d, a, b) -> write s d (mulhi ~signed (read s a) (read s b))
  | Divrem (signed, want_rem, d, a, b) ->
    write s d (divrem ~signed ~want_rem (read s a) (read s b))
  | Setcc (c, d, a, b) -> write s d (setcc c (read s a) (read s b))
  | Cmov (d, c, a, b) -> write s d (cmov (read s c) (read s a) (read s b))
  | Ext (signed, bits, d, src) -> write s d (V.normalize ~bits ~signed (read s src))
  | Neg (d, src) -> write s d (neg (read s src))
  | Not (d, src) -> write s d (V.lognot (read s src))
  | Bit1 (op, d, src) -> write s d (bit1 op (read s src))
  | Bit2 (op, d, a, b) -> write s d (bit2 op (read s a) (read s b))
  | Fp2 (_, d, _, _) | Fp1 (_, d, _) -> write s d V.top
  | Fcmp_flags (_, d, _, _) -> write s d fcmp_value
  | Flags_add (_, d, _, _, _) -> write s d flags_add_value
  | Flags_logic (_, d, _) -> write s d flags_logic_value
  | Ldrf (d, off) -> write s d (rf_read s off)
  | Strf (off, src) -> rf_write s off (read s src)
  | Load_pc d -> write s d s.s_pc
  | Store_pc src -> { s with s_pc = read s src }
  | Inc_pc n -> { s with s_pc = alu Aadd s.s_pc (V.const (Int64.of_int n)) }
  | Mem_ld (_, d, _) -> write (havoc_fault s) d V.top
  | Mem_st _ -> havoc_fault s
  | Call (h, _, ret) ->
    let k = classify h in
    if k = Effects.C_pure then (match ret with Some d -> write s d V.top | None -> s)
    else begin
      let s = havoc_reserved_pregs s in
      let s = if k = Effects.C_clobber then { s with s_rf = Imap.empty; s_pc = V.top } else s in
      match ret with Some d -> write s d V.top | None -> s
    end
  | Label _ | Jmp _ | Br _ | Exit _ | Poll _ | Wbmap _ -> s

(* --- CFG fixpoint ---------------------------------------------------------- *)

let default_classify : int -> Effects.helper_kind = fun _ -> Effects.C_clobber

type facts = {
  f_instrs : instr array;
  f_cfg : Cfg.t;
  f_entry : state option array; (* per-block entry state; None = unreachable *)
  f_classify : int -> Effects.helper_kind;
}

let flow_block ~classify (cfg : Cfg.t) b (s : state) : state =
  let s = ref s in
  for idx = cfg.Cfg.starts.(b) to Cfg.block_end cfg b - 1 do
    s := transfer ~classify !s cfg.Cfg.instrs.(idx)
  done;
  !s

(* Widening at the DFS loop heads bounds every cycle reachable from the
   entry.  The result depends on the solver's FIFO visiting order. *)
let analyze ?(classify = default_classify) ?(entry = state_top) (instrs : instr array) : facts =
  let cfg = Cfg.build instrs in
  let f_entry =
    Cfg.forward cfg ~seeds:[ (0, entry) ]
      ~merge:(fun ~head old s -> if head then state_widen old s else state_join old s)
      ~equal:state_equal ~transfer:(flow_block ~classify cfg)
  in
  { f_instrs = instrs; f_cfg = cfg; f_entry; f_classify = classify }

(* The abstract state immediately before instruction [idx]; [None] when
   its block is unreachable. *)
let state_before (facts : facts) idx =
  let cfg = facts.f_cfg in
  let b = cfg.Cfg.block_of.(idx) in
  Option.map
    (fun s0 ->
      let s = ref s0 in
      for i = cfg.Cfg.starts.(b) to idx - 1 do
        s := transfer ~classify:facts.f_classify !s facts.f_instrs.(i)
      done;
      !s)
    facts.f_entry.(b)

(* Walk every reachable instruction in [facts], calling [f idx state ins]
   with the abstract state immediately before the instruction. *)
let iter_facts (facts : facts) f =
  let cfg = facts.f_cfg in
  Array.iteri
    (fun b entry ->
      Option.iter
        (fun s0 ->
          let s = ref s0 in
          for idx = cfg.Cfg.starts.(b) to Cfg.block_end cfg b - 1 do
            f idx !s facts.f_instrs.(idx);
            s := transfer ~classify:facts.f_classify !s facts.f_instrs.(idx)
          done)
        entry)
    facts.f_entry

(* --- obligation checking --------------------------------------------------- *)

(* The register file is 8 KiB of qwords; an 8-byte access at [off] is
   in-bounds iff 0 <= off <= 8192 - 8, and the translators only emit
   naturally aligned slots. *)
let rf_bytes = 8192

type obligation =
  | Ob_rf_oob (* Ldrf/Strf/Wbmap offset outside the register file *)
  | Ob_rf_align (* register-file offset not 8-byte aligned *)
  | Ob_frame_oob (* spill-slot index outside the allocated frame *)
  | Ob_dirty_call (* helper call reachable with a dirty promoted vreg *)
  | Ob_wb_coverage (* escape reachable with an uncovered dirty vreg *)
  | Ob_stale_use (* use/writeback of a possibly-overtaken promoted vreg *)
  | Ob_wb_shape (* malformed writeback map *)

let obligation_name = function
  | Ob_rf_oob -> "rf-oob"
  | Ob_rf_align -> "rf-align"
  | Ob_frame_oob -> "frame-oob"
  | Ob_dirty_call -> "dirty-across-call"
  | Ob_wb_coverage -> "wb-coverage"
  | Ob_stale_use -> "stale-use"
  | Ob_wb_shape -> "wb-shape"

type finding = {
  f_index : int option; (* instruction index in the stream, if any *)
  f_class : obligation;
  f_msg : string;
}

let finding_to_string f =
  match f.f_index with
  | Some i -> Printf.sprintf "[%d] %s: %s" i (obligation_name f.f_class) f.f_msg
  | None -> Printf.sprintf "%s: %s" (obligation_name f.f_class) f.f_msg

module Is = Cfg.Iset

(* Register-file bounds and alignment: offsets are static, so the facts
   are immediate — but stating them as checked obligations means the
   encoder's 8-byte rf accesses can never read or write outside the
   8 KiB file no matter what the translators emitted. *)
let check_rf_bounds (instrs : instr array) : finding list =
  let findings = ref [] in
  let add idx cls fmt =
    Printf.ksprintf (fun msg -> findings := { f_index = Some idx; f_class = cls; f_msg = msg } :: !findings) fmt
  in
  let check_off idx off =
    if off < 0 || off > rf_bytes - 8 then
      add idx Ob_rf_oob "register-file access at 0x%x outside the %d-byte file" off rf_bytes
    else if off land 7 <> 0 then
      add idx Ob_rf_align "register-file access at 0x%x is not 8-byte aligned" off
  in
  Array.iteri
    (fun idx ins ->
      match ins with
      | Ldrf (_, off) | Strf (off, _) -> check_off idx off
      | Wbmap m -> Array.iter (fun (_, off) -> check_off idx off) m
      | _ -> ())
    instrs;
  List.rev !findings

(* Spill-frame bounds on a post-allocation stream. *)
let check_frame ~n_slots (instrs : instr array) : finding list =
  let findings = ref [] in
  Array.iteri
    (fun idx ins ->
      ignore
        (map_operands
           (fun o ->
             (match o with
             | Slot s when s < 0 || s >= n_slots ->
               findings :=
                 {
                   f_index = Some idx;
                   f_class = Ob_frame_oob;
                   f_msg = Printf.sprintf "spill slot %d outside frame of %d slots" s n_slots;
                 }
                 :: !findings
             | _ -> ());
             o)
           ins))
    instrs;
  List.rev !findings

(* Promoted-register discipline: the forward may-analysis over dirty
   (vreg newer than its rf slot) and stale (slot possibly newer than the
   vreg) promoted registers, run on the region CFG.  This subsumes the
   verifier's previous ad-hoc fixpoint — Verify.check_wb delegates here
   — and is classification-aware: helpers that can neither observe the
   register file nor escape (not an [Effects.barrier]: pure softfloat
   and the address-space switch) are transparent to the discipline. *)
let check_wb ?(classify = default_classify) ~(promoted : (int * int) list)
    (instrs : instr array) : finding list =
  let findings = ref [] in
  let add ?index cls fmt =
    Printf.ksprintf (fun msg -> findings := { f_index = index; f_class = cls; f_msg = msg } :: !findings) fmt
  in
  let off_of_pv = Hashtbl.create 8 and pv_of_off = Hashtbl.create 8 in
  List.iter
    (fun (pv, off) ->
      Hashtbl.replace off_of_pv pv off;
      Hashtbl.replace pv_of_off off pv)
    promoted;
  let all_pvs = List.fold_left (fun s (pv, _) -> Is.add pv s) Is.empty promoted in
  (* The stream's writeback map, checked for well-formedness. *)
  let wb_covered = Hashtbl.create 8 in
  let n_maps = ref 0 in
  Array.iteri
    (fun idx ins ->
      match ins with
      | Wbmap m ->
        incr n_maps;
        if !n_maps > 1 then add ~index:idx Ob_wb_shape "multiple writeback maps in one stream";
        Array.iter
          (fun (op, off) ->
            match op with
            | Vreg pv when Hashtbl.find_opt off_of_pv pv = Some off ->
              Hashtbl.replace wb_covered pv ()
            | Vreg pv ->
              add ~index:idx Ob_wb_shape
                "stale writeback entry: %%v%d -> 0x%x does not match a promoted register" pv off
            | _ ->
              add ~index:idx Ob_wb_shape "writeback entry for non-virtual operand %s"
                (string_of_operand op))
          m
      | _ -> ())
    instrs;
  let covered pv = Hashtbl.mem wb_covered pv in
  (* A constant move into a promoted vreg whose slot provably holds that
     constant is a reload: absint-simplify folds the promoter's reloads
     after a barrier helper that leaves the register file alone into
     exactly that.  The facts are computed only for a move in such a
     reload run, right after the call. *)
  let rec after_barrier i =
    i >= 0
    &&
    match instrs.(i) with
    | Call (h, _, _) ->
      let k = classify h in
      Effects.barrier k && k <> C_clobber
    | Ldrf (Vreg v, _) | Mov (Vreg v, Imm _) -> Is.mem v all_pvs && after_barrier (i - 1)
    | _ -> false
  in
  let facts = lazy (analyze ~classify instrs) in
  let holds_slot idx pv =
    match instrs.(idx) with
    | Mov (_, Imm c) when after_barrier (idx - 1) -> (
      match state_before (Lazy.force facts) idx with
      | Some s -> V.is_const (rf_read s (Hashtbl.find off_of_pv pv)) = Some c
      | None -> false)
    | _ -> false
  in
  if promoted = [] then List.rev !findings
  else begin
    let cfg = Cfg.build instrs in
    (* Transfer over one block; [report] enables finding emission on the
       final sweep (the fixpoint iterations stay silent). *)
    let flow ~report b (dirty0, stale0) =
      let dirty = ref dirty0 and stale = ref stale0 in
      let add ?index cls fmt =
        if report then add ?index cls fmt else Printf.ksprintf (fun _ -> ()) fmt
      in
      let check_escape idx what =
        Is.iter
          (fun pv ->
            if not (covered pv) then
              add ~index:idx Ob_wb_coverage
                "%s reachable while %%v%d (rf 0x%x) is dirty with no writeback entry" what pv
                (Hashtbl.find off_of_pv pv))
          !dirty;
        Is.iter
          (fun pv ->
            if covered pv then
              add ~index:idx Ob_stale_use
                "%s reachable while %%v%d (rf 0x%x) is stale: its writeback entry would clobber newer state"
                what pv (Hashtbl.find off_of_pv pv))
          !stale
      in
      for idx = cfg.Cfg.starts.(b) to Cfg.block_end cfg b - 1 do
        let ins = instrs.(idx) in
        (* A use of a stale vreg reads a value the register file has
           since overtaken. *)
        List.iter
          (fun o ->
            match o with
            | Vreg v when Is.mem v !stale ->
              add ~index:idx Ob_stale_use "use of stale promoted register %%v%d" v
            | _ -> ())
          (match ins with Wbmap _ -> [] | _ -> sources ins);
        (match ins with
        | Ldrf (d, off) when Hashtbl.mem pv_of_off off ->
          let pv = Hashtbl.find pv_of_off off in
          (match d with
          | Vreg v when v = pv ->
            dirty := Is.remove pv !dirty;
            stale := Is.remove pv !stale
          | _ ->
            if Is.mem pv !dirty then
              add ~index:idx Ob_wb_coverage
                "read of promoted rf offset 0x%x bypasses dirty cache register %%v%d" off pv)
        | Strf (off, s) when Hashtbl.mem pv_of_off off ->
          let pv = Hashtbl.find pv_of_off off in
          (match s with
          | Vreg v when v = pv -> dirty := Is.remove pv !dirty
          | _ ->
            add ~index:idx Ob_wb_coverage
              "write to promoted rf offset 0x%x bypasses cache register %%v%d" off pv)
        | Call (h, _, _) when Effects.barrier (classify h) ->
          Is.iter
            (fun pv ->
              add ~index:idx Ob_dirty_call "helper call reachable while %%v%d (rf 0x%x) is dirty"
                pv (Hashtbl.find off_of_pv pv))
            !dirty;
          (* Helpers may rewrite the register file: every cached value
             is stale until reloaded. *)
          dirty := Is.empty;
          stale := all_pvs
        | Call _ -> () (* not a barrier: cannot observe or write the register file *)
        | Mem_ld _ | Mem_st _ -> check_escape idx "faulting memory access"
        | Poll _ -> check_escape idx "safepoint"
        | Exit _ -> check_escape idx "region exit"
        | _ -> ());
        (match ins with
        | Ldrf (Vreg v, off) when Hashtbl.find_opt off_of_pv v = Some off -> ()
        | _ -> (
          match dest ins with
          | Some (Vreg d) when Is.mem d all_pvs ->
            (* A redefinition makes the vreg the authoritative (dirty)
               value for its slot, unless it provably equals the slot. *)
            dirty := (if holds_slot idx d then Is.remove else Is.add) d !dirty;
            stale := Is.remove d !stale
          | _ -> ()))
      done;
      (!dirty, !stale)
    in
    (* Forward fixpoint with union join (may-dirty, may-stale); the
       final sweep reports, visiting unreachable blocks with empty sets. *)
    let empty = (Is.empty, Is.empty) in
    let entry =
      Cfg.forward cfg ~seeds:[ (0, empty) ]
        ~merge:(fun ~head:_ (d, s) (d', s') -> (Is.union d d', Is.union s s'))
        ~equal:(fun (d, s) (d', s') -> Is.equal d d' && Is.equal s s')
        ~transfer:(flow ~report:false)
    in
    Array.iteri (fun b st -> ignore (flow ~report:true b (Option.value st ~default:empty))) entry;
    List.rev !findings
  end

(* The full obligation suite for one translation.  [promoted] enables
   the writeback discipline (tier-1 promoted regions); [n_slots] enables
   frame-bound checking (post-allocation streams). *)
let check_translation ?(classify = default_classify) ?(promoted = []) ?n_slots
    (instrs : instr array) : finding list =
  let rf = check_rf_bounds instrs in
  let frame = match n_slots with Some n -> check_frame ~n_slots:n instrs | None -> [] in
  let wb = check_wb ~classify ~promoted instrs in
  rf @ frame @ wb

(* --- absint-simplify's passes ------------------------------------------------ *)

(* Cross-block liveness DCE over vregs.  Deletable: pure instructions
   defining a vreg that is dead at the definition point — which catches
   values redefined before use across block boundaries, invisible to the
   allocator's never-used marking.  Vregs named by a writeback map are
   pinned live everywhere: the executor reads them at any fault point,
   not just where the stream mentions them. *)
let wbmap_vregs (instrs : instr array) =
  Array.fold_left
    (fun acc ins ->
      match ins with
      | Wbmap m ->
        Array.fold_left (fun acc (o, _) -> match o with Vreg v -> Is.add v acc | _ -> acc) acc m
      | _ -> acc)
    Is.empty instrs

let dead_code (instrs : instr array) : instr array =
  let pinned = wbmap_vregs instrs in
  let cfg = Cfg.build instrs in
  (* Faint-variable liveness: a pure definition of a dead vreg reads
     nothing, so a chain of dead definitions (a [Load_pc] feeding only
     PC arithmetic whose [Store_pc] the region pass made relative) goes
     in one sweep. *)
  let dead live ins =
    match dest ins with Some (Vreg d) when pure ins -> not (Is.mem d live) | _ -> false
  in
  let step live ins = if dead live ins then live else Cfg.live_step ~pinned live ins in
  let _, live_out =
    Cfg.backward cfg ~bottom:pinned ~exit:pinned ~join:Is.union ~equal:Is.equal
      ~transfer:(fun b out ->
        let live = ref out in
        for idx = Cfg.block_end cfg b - 1 downto cfg.Cfg.starts.(b) do
          live := step !live instrs.(idx)
        done;
        !live)
  in
  (* Sweep: delete pure definitions of dead vregs (pinned ones are live
     everywhere). *)
  let keep = Array.make (Array.length instrs) true in
  Array.iteri
    (fun b out ->
      let live = ref out in
      for idx = Cfg.block_end cfg b - 1 downto cfg.Cfg.starts.(b) do
        let ins = instrs.(idx) in
        if dead !live ins then keep.(idx) <- false
        else live := Cfg.live_step ~pinned !live ins
      done)
    live_out;
  let out = ref [] in
  Array.iteri (fun idx ins -> if keep.(idx) then out := ins :: !out) instrs;
  Array.of_list (List.rev !out)

(* CFG-wide copy propagation: forward available copies [d := s]
   (vreg to vreg) over the region CFG, joined by intersection, each
   killed by a redefinition of either side; every use of [d] where the
   copy is available reads [s] instead.  Run after promotion it leaves
   a promoted load's residue dead; run after jump threading it sees
   across labels that are only seams.  Writeback-map vregs are never
   rewritten: a [Wbmap]'s operands stay untouched ([map_sources]), and
   no copy into a pinned vreg is tracked, so a use of one — the
   barrier flush [Strf (off, pv)] included — keeps reading the
   authoritative cache register.  A barrier call forgets every copy: a
   promoted register is stale after it until reloaded, and a reload
   the dead-code pass deleted must not be replaced by a use of the
   stale register. *)
let copy_prop ~classify (instrs : instr array) : instr array =
  let pinned = wbmap_vregs instrs in
  let cfg = Cfg.build instrs in
  let subst m ins =
    map_sources
      (function Vreg v as o -> (match Imap.find_opt v m with Some s -> Vreg s | None -> o) | o -> o)
      ins
  in
  let step m ins =
    match ins with
    | Call (h, _, _) when Effects.barrier (classify h) -> Imap.empty
    | _ -> (
      let m =
        match dest ins with
        | Some (Vreg d) -> Imap.filter (fun d' s -> d' <> d && s <> d) m
        | _ -> m
      in
      match ins with
      | Mov (Vreg d, Vreg s) when d <> s && not (Is.mem d pinned) -> Imap.add d s m
      | _ -> m)
  in
  let block b m f =
    let m = ref m in
    for i = cfg.Cfg.starts.(b) to Cfg.block_end cfg b - 1 do
      let ins = subst !m instrs.(i) in
      f i ins;
      m := step !m ins
    done;
    !m
  in
  let meet _ x y = match (x, y) with Some x, Some y when x = y -> Some x | _ -> None in
  let entry =
    Cfg.forward cfg ~seeds:[ (0, Imap.empty) ]
      ~merge:(fun ~head:_ a b -> Imap.merge meet a b)
      ~equal:(Imap.equal ( = ))
      ~transfer:(fun b m -> block b m (fun _ _ -> ()))
  in
  let out = Array.copy instrs in
  Array.iteri
    (fun b m -> Option.iter (fun m -> ignore (block b m (fun i ins -> out.(i) <- ins))) m)
    entry;
  out

(* absint-simplify's fact-driven folds, the head of the O4
   absint-simplify stage ([Pipeline]) on the flattened, promoted region
   stream before register allocation.  Rewrites are per-instruction, so
   the promoted-register discipline (rechecked by the engine after the
   stage) is preserved: constants replace sources, never the identity
   of a definition's destination.  Returns the stream and the numbers
   of branches, constants and masks folded. *)
let fold ?(classify = default_classify) (instrs : instr array) : instr array * int * int * int =
  let branches = ref 0 and consts = ref 0 and masks = ref 0 in
  let facts = analyze ~classify instrs in
  let out = Array.copy instrs in
  iter_facts facts (fun idx s ins ->
      let folded =
        (* Constant folding first: a pure result the facts pin to a
           single value becomes an immediate move (Divrem-by-constant
           folds are the big win — an integer divide priced at tens of
           cycles becomes a register move). *)
        match ins with
        | Mov (_, Imm _) -> None
        | _ when pure ins -> (
          match dest ins with
          | Some d -> (
            match V.is_const (read (transfer ~classify s ins) d) with
            | Some c ->
              incr consts;
              Some (Mov (d, Imm c))
            | _ -> None)
          | None -> None)
        | _ -> None
      in
      let reduced =
        match folded with
        | Some _ -> folded
        | None -> (
          match ins with
          | Br (c, t, f) -> (
            match V.is_const (read s c) with
            | Some 0L ->
              incr branches;
              Some (Jmp f)
            | Some _ ->
              incr branches;
              Some (Jmp t)
            | None ->
              if not (V.contains (read s c) 0L) then begin
                incr branches;
                Some (Jmp t)
              end
              else None)
          | Alu (Aand, d, a, Imm m) when V.mask_redundant (read s a) m ->
            (* Every possibly-set bit of [a] survives the mask. *)
            incr masks;
            Some (Mov (d, a))
          | Ext (false, bits, d, src)
            when bits < 64 && V.fits ~bits ~signed:false (read s src) ->
            incr masks;
            Some (Mov (d, src))
          | Ext (true, bits, d, src)
            when bits < 64 && V.fits ~bits ~signed:true (read s src) ->
            (* Value provably fits below the sign bit: sext = identity. *)
            incr masks;
            Some (Mov (d, src))
          | _ -> None)
      in
      match reduced with Some ins' -> out.(idx) <- ins' | None -> ());
  (out, !branches, !consts, !masks)
