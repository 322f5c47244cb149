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
     and delete cross-block dead vreg definitions);
   - the engine's per-translation analysis hook, which runs the checker
     over every translation it produces when [analyze_translations] is
     set. *)

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
  f_cfg : Region.cfg;
  f_entry : state option array; (* per-block entry state; None = unreachable *)
  f_classify : int -> Effects.helper_kind;
}

(* Depth-first order and loop heads (targets of back edges). *)
let loop_heads (cfg : Region.cfg) =
  let nb = cfg.Region.c_nb in
  let visited = Array.make nb false and on_stack = Array.make nb false in
  let heads = Array.make nb false in
  let rec dfs b =
    visited.(b) <- true;
    on_stack.(b) <- true;
    List.iter
      (fun s -> if not visited.(s) then dfs s else if on_stack.(s) then heads.(s) <- true)
      (cfg.Region.c_succs b);
    on_stack.(b) <- false
  in
  if nb > 0 then dfs 0;
  heads

let flow_block ~classify (instrs : instr array) (cfg : Region.cfg) b (s : state) : state =
  let s = ref s in
  for idx = cfg.Region.c_starts.(b) to cfg.Region.c_block_end b - 1 do
    s := transfer ~classify !s instrs.(idx)
  done;
  !s

let analyze ?(classify = default_classify) ?(entry = state_top) (instrs : instr array) : facts =
  let cfg = Region.build_cfg instrs in
  let nb = cfg.Region.c_nb in
  let heads = loop_heads cfg in
  let in_s : state option array = Array.make nb None in
  if nb > 0 then in_s.(0) <- Some entry;
  let queued = Array.make nb false in
  let work = Queue.create () in
  if nb > 0 then begin
    Queue.add 0 work;
    queued.(0) <- true
  end;
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    queued.(b) <- false;
    match in_s.(b) with
    | None -> ()
    | Some s ->
      let out = flow_block ~classify instrs cfg b s in
      List.iter
        (fun succ ->
          let merged =
            match in_s.(succ) with
            | None -> out
            | Some old -> if heads.(succ) then state_widen old out else state_join old out
          in
          let changed = match in_s.(succ) with None -> true | Some old -> not (state_equal old merged) in
          if changed then begin
            in_s.(succ) <- Some merged;
            if not queued.(succ) then begin
              queued.(succ) <- true;
              Queue.add succ work
            end
          end)
        (cfg.Region.c_succs b)
  done;
  { f_instrs = instrs; f_cfg = cfg; f_entry = in_s; f_classify = classify }

(* Walk every reachable instruction in [facts], calling [f idx state ins]
   with the abstract state immediately before the instruction. *)
let iter_facts (facts : facts) f =
  let cfg = facts.f_cfg in
  for b = 0 to cfg.Region.c_nb - 1 do
    match facts.f_entry.(b) with
    | None -> ()
    | Some s0 ->
      let s = ref s0 in
      for idx = cfg.Region.c_starts.(b) to cfg.Region.c_block_end b - 1 do
        f idx !s facts.f_instrs.(idx);
        s := transfer ~classify:facts.f_classify !s facts.f_instrs.(idx)
      done
  done

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

module Is = Set.Make (Int)

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
   — and is classification-aware: helpers that cannot observe the
   register file (pure softfloat) are transparent to the discipline. *)
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
  if promoted = [] then List.rev !findings
  else begin
    let cfg = Region.build_cfg instrs in
    let nb = cfg.Region.c_nb in
    let in_dirty = Array.make nb Is.empty and in_stale = Array.make nb Is.empty in
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
      for idx = cfg.Region.c_starts.(b) to cfg.Region.c_block_end b - 1 do
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
        | Call (h, _, _) when classify h <> Effects.C_pure ->
          Is.iter
            (fun pv ->
              add ~index:idx Ob_dirty_call "helper call reachable while %%v%d (rf 0x%x) is dirty"
                pv (Hashtbl.find off_of_pv pv))
            !dirty;
          (* Helpers may rewrite the register file: every cached value
             is stale until reloaded. *)
          dirty := Is.empty;
          stale := all_pvs
        | Call _ -> () (* pure: cannot observe or write the register file *)
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
               value for its slot. *)
            dirty := Is.add d !dirty;
            stale := Is.remove d !stale
          | _ -> ()))
      done;
      (!dirty, !stale)
    in
    (* Worklist fixpoint with union join (may-dirty, may-stale). *)
    let work = Queue.create () in
    Queue.add 0 work;
    let queued = Array.make nb false in
    queued.(0) <- true;
    while not (Queue.is_empty work) do
      let b = Queue.pop work in
      queued.(b) <- false;
      let out_d, out_s = flow ~report:false b (in_dirty.(b), in_stale.(b)) in
      List.iter
        (fun s ->
          let d' = Is.union in_dirty.(s) out_d and s' = Is.union in_stale.(s) out_s in
          if not (Is.equal d' in_dirty.(s) && Is.equal s' in_stale.(s)) then begin
            in_dirty.(s) <- d';
            in_stale.(s) <- s';
            if not queued.(s) then begin
              queued.(s) <- true;
              Queue.add s work
            end
          end)
        (cfg.Region.c_succs b)
    done;
    for b = 0 to nb - 1 do
      ignore (flow ~report:true b (in_dirty.(b), in_stale.(b)))
    done;
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

(* --- the absint-simplify region pass --------------------------------------- *)

type simplify_stats = {
  mutable branches_folded : int; (* Br with a decided condition -> Jmp *)
  mutable consts_folded : int; (* pure results proved constant -> Mov Imm *)
  mutable masks_dropped : int; (* redundant And masks / extensions elided *)
  mutable divs_reduced : int; (* unsigned div/rem by 2^k strength-reduced *)
  mutable dead_deleted : int; (* cross-block dead vreg definitions removed *)
}

let empty_simplify_stats () =
  { branches_folded = 0; consts_folded = 0; masks_dropped = 0; divs_reduced = 0; dead_deleted = 0 }

let is_pow2 v = v <> 0L && Int64.logand v (Int64.sub v 1L) = 0L

(* Cross-block liveness DCE over vregs.  Deletable: pure instructions
   defining a vreg that is dead at the definition point — which catches
   values redefined before use across block boundaries, invisible to the
   allocator's never-used marking.  Vregs named by a writeback map are
   pinned live everywhere: the executor reads them at any fault point,
   not just where the stream mentions them. *)
let dead_code (instrs : instr array) stats : instr array =
  let pinned =
    Array.fold_left
      (fun acc ins ->
        match ins with
        | Wbmap m ->
          Array.fold_left
            (fun acc (o, _) -> match o with Vreg v -> Is.add v acc | _ -> acc)
            acc m
        | _ -> acc)
      Is.empty instrs
  in
  let cfg = Region.build_cfg instrs in
  let nb = cfg.Region.c_nb in
  (* Predecessor lists for the backward fixpoint. *)
  let preds = Array.make nb [] in
  for b = 0 to nb - 1 do
    List.iter (fun s -> preds.(s) <- b :: preds.(s)) (cfg.Region.c_succs b)
  done;
  let live_in = Array.make nb Is.empty in
  let vregs_of_sources ins =
    List.fold_left
      (fun acc o -> match o with Vreg v -> Is.add v acc | _ -> acc)
      Is.empty (sources ins)
  in
  let flow_back b live_out =
    let live = ref live_out in
    for idx = cfg.Region.c_block_end b - 1 downto cfg.Region.c_starts.(b) do
      let ins = instrs.(idx) in
      (match dest ins with
      | Some (Vreg d) when not (Is.mem d pinned) -> live := Is.remove d !live
      | _ -> ());
      live := Is.union !live (vregs_of_sources ins)
    done;
    !live
  in
  let work = Queue.create () in
  let queued = Array.make nb false in
  for b = 0 to nb - 1 do
    Queue.add b work;
    queued.(b) <- true
  done;
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    queued.(b) <- false;
    let live_out =
      List.fold_left (fun acc s -> Is.union acc live_in.(s)) Is.empty (cfg.Region.c_succs b)
    in
    let l = flow_back b live_out in
    if not (Is.equal l live_in.(b)) then begin
      live_in.(b) <- l;
      List.iter
        (fun p ->
          if not queued.(p) then begin
            queued.(p) <- true;
            Queue.add p work
          end)
        preds.(b)
    end
  done;
  (* Final sweep: delete pure definitions of dead, unpinned vregs. *)
  let keep = Array.make (Array.length instrs) true in
  for b = 0 to nb - 1 do
    let live =
      ref
        (List.fold_left (fun acc s -> Is.union acc live_in.(s)) Is.empty (cfg.Region.c_succs b))
    in
    for idx = cfg.Region.c_block_end b - 1 downto cfg.Region.c_starts.(b) do
      let ins = instrs.(idx) in
      (match (pure ins, dest ins) with
      | true, Some (Vreg d) when (not (Is.mem d pinned)) && not (Is.mem d !live) ->
        keep.(idx) <- false;
        stats.dead_deleted <- stats.dead_deleted + 1
      | _ -> ());
      if keep.(idx) then begin
        (match dest ins with
        | Some (Vreg d) when not (Is.mem d pinned) -> live := Is.remove d !live
        | _ -> ());
        live := Is.union !live (vregs_of_sources ins)
      end
    done
  done;
  let out = ref [] in
  Array.iteri (fun idx ins -> if keep.(idx) then out := ins :: !out) instrs;
  Array.of_list (List.rev !out)

(* Unreachable-block pruning that preserves the writeback map, which by
   construction sits in a block no execution path reaches (after the
   last exit) but must survive: its operands keep the promoted
   registers live and the executor applies it at fault points. *)
let prune_unreachable_keep_wb (instrs : instr array) : instr array =
  let cfg = Region.build_cfg instrs in
  let nb = cfg.Region.c_nb in
  let reach = Array.make nb false in
  let rec dfs b =
    if not reach.(b) then begin
      reach.(b) <- true;
      List.iter dfs (cfg.Region.c_succs b)
    end
  in
  if nb > 0 then dfs 0;
  let out = ref [] in
  Array.iteri
    (fun idx ins ->
      match ins with
      | Wbmap _ -> out := ins :: !out
      | _ -> if reach.(cfg.Region.c_block_of_idx idx) then out := ins :: !out)
    instrs;
  Array.of_list (List.rev !out)

(* The O4 absint-simplify pass: runs on the flattened, promoted region
   stream before register allocation.  Rewrites are fact-driven and
   per-instruction, so the promoted-register discipline (rechecked by
   the engine after this pass) is preserved: constants replace sources,
   never the identity of a definition's destination. *)
let simplify ?(classify = default_classify) (instrs : instr array) :
    instr array * simplify_stats =
  let stats = empty_simplify_stats () in
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
              stats.consts_folded <- stats.consts_folded + 1;
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
              stats.branches_folded <- stats.branches_folded + 1;
              Some (Jmp f)
            | Some _ ->
              stats.branches_folded <- stats.branches_folded + 1;
              Some (Jmp t)
            | None ->
              if not (V.contains (read s c) 0L) then begin
                stats.branches_folded <- stats.branches_folded + 1;
                Some (Jmp t)
              end
              else None)
          | Alu (Aand, d, a, Imm m) when V.mask_redundant (read s a) m ->
            (* Every possibly-set bit of [a] survives the mask. *)
            stats.masks_dropped <- stats.masks_dropped + 1;
            Some (Mov (d, a))
          | Ext (false, bits, d, src)
            when bits < 64 && V.fits ~bits ~signed:false (read s src) ->
            stats.masks_dropped <- stats.masks_dropped + 1;
            Some (Mov (d, src))
          | Ext (true, bits, d, src)
            when bits < 64 && V.fits ~bits ~signed:true (read s src) ->
            (* Value provably fits below the sign bit: sext = identity. *)
            stats.masks_dropped <- stats.masks_dropped + 1;
            Some (Mov (d, src))
          | Divrem (false, false, d, a, Imm k) when is_pow2 k ->
            stats.divs_reduced <- stats.divs_reduced + 1;
            Some (Alu (Ashr, d, a, Imm (Int64.of_int (Bits.ctz k))))
          | Divrem (false, true, d, a, Imm k) when is_pow2 k ->
            stats.divs_reduced <- stats.divs_reduced + 1;
            Some (Alu (Aand, d, a, Imm (Int64.sub k 1L)))
          | _ -> None)
      in
      match reduced with Some ins' -> out.(idx) <- ins' | None -> ());
  let out = dead_code out stats in
  let out = prune_unreachable_keep_wb out in
  (out, stats)
