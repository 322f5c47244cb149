(* Region-scoped guest-register promotion, and two helpers of the
   cleanup that follows it, over a region's flattened instruction stream
   after the [Region] shaping passes and before register allocation
   ([Pipeline] declares the order):

   - promotion: the hottest register-file byte offsets are loaded into
     dedicated vregs once at region entry; every interior [Ldrf]/[Strf]
     of a promoted offset becomes a vreg move.  Barrier helper calls
     ([Effects.barrier]) flush dirty promoted values before the call
     and reload everything after, since such helpers read and write the
     register file directly; pure softfloat helpers and the
     address-space switch pass through untouched.  Faults, [Poll] exits
     and [Exit]s are covered instead by the [Wbmap] appended to the
     stream, which the executor applies before the register file
     becomes observable, so a [Mem_ld]/[Mem_st] fault anywhere in the
     region still delivers an architecturally consistent register
     state.

   - canonicalization: identity ALU operations become moves, so the
     CFG-wide copy propagation that follows ([Absint.copy_prop]) sees
     through them.  That pass leaves a promoted load's residue
     ([Mov (d, pv)]) dead, and absint-simplify's dead-code pass erases
     it; without both the rewrite would only swap a [Ldrf] for a [Mov]
     of identical cost.

   - register-file forwarding: the last value stored to or loaded from
     an unpromoted offset serves later loads of it in the same block.

   All three are pure functions of the instruction stream. *)

open Hir

(* ------------------------------------------------------------------ *)
(* Guest-register promotion *)

let max_vreg instrs =
  let m = ref (-1) in
  Array.iter
    (fun ins ->
      ignore
        (map_operands
           (fun o ->
             (match o with Vreg v when v > !m -> m := v | _ -> ());
             o)
           ins))
    instrs;
  !m

(* Static execution-frequency weights: an instruction inside a loop body
   runs many times per region entry, one outside runs about once.  Each
   enclosing loop (a layout back edge, [Cfg.back_edges]; regions
   are laid out contiguously by [Region.straighten], so the loop body is
   the span between the target's start and the backedge) multiplies the
   weight by 8, capped to keep deep nests from dominating. *)
let loop_weights (instrs : instr array) : int array =
  let w = Array.make (Array.length instrs) 1 in
  let cfg = Cfg.build instrs in
  List.iter
    (fun (b, s) ->
      for i = cfg.Cfg.starts.(s) to Cfg.block_end cfg b - 1 do
        w.(i) <- min (w.(i) * 8) 4096
      done)
    (Cfg.back_edges cfg);
  w

(* Register-file offsets worth caching in a host register, picked by a
   static cost model.  A candidate's benefit is the weighted count of
   its [Ldrf]/[Strf] sites (each becomes a move that copy propagation
   and dead-marking usually make free); its cost is the entry prologue
   load, the exit writeback when dirty, and the per-barrier-call
   traffic (a reload per call, plus a flush when dirty), all weighted
   by the same loop frequencies.  This keeps promotion out of regions
   that are entered often but left quickly — there the barriers and
   writebacks outweigh the interior savings.  Only barrier calls
   ([Effects.barrier]) are priced: a pure softfloat call or an
   address-space switch costs a promoted register nothing.  Offsets
   overlapping another accessed offset are excluded outright:
   [Ldrf]/[Strf] move 8 bytes, so offsets closer than 8 bytes alias
   through the register file and caching one would miss accesses to
   the other. *)
let pick_candidates ~max_regs ~classify (instrs : instr array) : int list =
  let w = loop_weights instrs in
  let score = Hashtbl.create 16 and dirty = Hashtbl.create 16 in
  let bump off x =
    Hashtbl.replace score off
      (x + Option.value (Hashtbl.find_opt score off) ~default:0)
  in
  let call_weight = ref 0 in
  Array.iteri
    (fun i ins ->
      match ins with
      | Ldrf (_, off) -> bump off w.(i)
      | Strf (off, _) ->
        bump off w.(i);
        Hashtbl.replace dirty off ()
      | Call (h, _, _) when Effects.barrier (classify h) -> call_weight := !call_weight + w.(i)
      | _ -> ())
    instrs;
  let offs = Hashtbl.fold (fun off _ acc -> off :: acc) score [] in
  let overlaps off = List.exists (fun o -> o <> off && abs (o - off) < 8) offs in
  Hashtbl.fold
    (fun off sc acc ->
      let d = if Hashtbl.mem dirty off then 1 else 0 in
      let cost = 1 + d + (!call_weight * (1 + d)) in
      if sc > cost + 2 && not (overlaps off) then (off, sc) :: acc else acc)
    score []
  |> List.sort (fun (o1, c1) (o2, c2) ->
         if c1 <> c2 then compare c2 c1 else compare o1 o2)
  |> List.filteri (fun i _ -> i < max_regs)
  |> List.map fst

(* Rewrite the stream against a set of promoted offsets.  Returns the
   new stream, the (vreg, offset) promotion list and the number of
   ever-dirty offsets (= the writeback map's entries). *)
let promote_regs ~max_regs ~classify (instrs : instr array) =
  let cands = pick_candidates ~max_regs ~classify instrs in
  if cands = [] then (instrs, [], 0)
  else begin
    let base = max_vreg instrs + 1 in
    let pv_of = Hashtbl.create 8 in
    List.iteri (fun i off -> Hashtbl.replace pv_of off (base + i)) cands;
    let ever_dirty = Hashtbl.create 8 in
    Array.iter
      (function
        | Strf (off, _) when Hashtbl.mem pv_of off ->
          Hashtbl.replace ever_dirty off ()
        | _ -> ())
      instrs;
    let dirty = List.filter (Hashtbl.mem ever_dirty) cands in
    let out = ref [] in
    let emit i = out := i :: !out in
    let pv off = Vreg (Hashtbl.find pv_of off) in
    (* Entry prologue: regions are only entered at instruction 0 (their
       backedges target interior labels), so one load per promoted
       offset here runs exactly once per region entry. *)
    List.iter (fun off -> emit (Ldrf (pv off, off))) cands;
    Array.iter
      (fun ins ->
        match ins with
        | Ldrf (d, off) when Hashtbl.mem pv_of off -> emit (Mov (d, pv off))
        | Strf (off, s) when Hashtbl.mem pv_of off -> emit (Mov (pv off, s))
        | Call (h, _, _) when Effects.barrier (classify h) ->
          (* Barrier: the helper may read and write the register file
             directly (or escape the translation without the ordinary
             exit path), so flush dirty values before and reload every
             promoted offset after (the helper may have changed any of
             them).  Pure helpers and the address-space switch can do
             neither, so they fall through barrier-free. *)
          List.iter (fun off -> emit (Strf (off, pv off))) dirty;
          emit ins;
          List.iter (fun off -> emit (Ldrf (pv off, off))) cands
        | _ -> emit ins)
      instrs;
    emit (Wbmap (Array.of_list (List.map (fun off -> (pv off, off)) dirty)));
    ( Array.of_list (List.rev !out),
      List.map (fun off -> (Hashtbl.find pv_of off, off)) cands,
      List.length dirty )
  end

(* ------------------------------------------------------------------ *)
(* Canonicalization *)

(* Identity ALU operations (the translator emits e.g. [add d, s, #0]
   for register moves with unused shifts) become plain copies, so copy
   propagation and dead-code deletion can see through them. *)
let canonicalize ins =
  match ins with
  | Alu ((Aadd | Aor | Axor | Ashl | Ashr | Asar), d, a, Imm 0L) -> Mov (d, a)
  | Alu ((Aadd | Aor | Axor), d, Imm 0L, b) -> Mov (d, b)
  | Alu (Aand, d, a, Imm -1L) -> Mov (d, a)
  | Alu (Aand, d, Imm -1L, b) -> Mov (d, b)
  | Alu (Amul, d, a, Imm 1L) -> Mov (d, a)
  | Alu (Amul, d, Imm 1L, b) -> Mov (d, b)
  | _ -> ins

(* ------------------------------------------------------------------ *)
(* Register-file store-to-load forwarding *)

(* Forward the value of the last [Strf]/[Ldrf] of each register-file
   offset into later [Ldrf]s of that offset within a basic block —
   covering the offsets the promotion budget left behind.  Unlike
   promotion this changes no register-file state (every [Strf] still
   executes), so it needs no writeback map and is trivially
   fault-precise: a fault handler or MMIO access never writes the
   register file mid-region, and if a safepoint exits, the forwarded
   instructions never run.  Helper calls kill everything (helpers write
   the register file); tracked values are restricted to vregs and
   immediates since dedicated pregs change outside the stream. *)
let rf_forward (instrs : instr array) =
  let n = Array.length instrs in
  let out = Array.make n (Label 0) in
  let avail : (int, operand) Hashtbl.t = Hashtbl.create 16 in
  let kill_val d =
    let stale =
      Hashtbl.fold (fun off v acc -> if v = d then off :: acc else acc) avail []
    in
    List.iter (Hashtbl.remove avail) stale
  in
  for i = 0 to n - 1 do
    let ins = instrs.(i) in
    let ins' =
      match ins with
      | Ldrf (d, off) -> (
        match Hashtbl.find_opt avail off with
        | Some v when v <> d -> Mov (d, v)
        | _ -> ins)
      | _ -> ins
    in
    (match ins' with
     | Label _ | Jmp _ | Br _ | Call _ -> Hashtbl.reset avail
     | _ -> (match dest ins' with Some d -> kill_val d | None -> ()));
    (match ins' with
     | Strf (off, (Vreg _ | Imm _ as v)) -> Hashtbl.replace avail off v
     | Strf (off, _) -> Hashtbl.remove avail off
     | Ldrf ((Vreg _ as d), off) -> Hashtbl.replace avail off d
     | _ -> ());
    out.(i) <- ins'
  done;
  out
