(* Region-scoped guest-register promotion.

   Three cooperating passes over a region's flattened instruction
   stream, run after the [Region] passes and before register
   allocation:

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

   - copy propagation: forward substitution within a basic block so a
     promoted load's residue ([Mov (d, pv)]) leaves [d] unused and the
     register allocator's dead-marking erases it.  Without this the
     rewrite would only swap a [Ldrf] for a [Mov] of identical cost.

   - register-file forwarding: the last value stored to or loaded from
     an unpromoted offset serves later loads of it in the same block.

   All three passes are pure functions of the instruction stream. *)

open Hir

type stats = {
  promoted : int;  (** register-file offsets promoted to vregs *)
  wb_entries : int;  (** dirty promoted offsets in the writeback map *)
  loads_rewritten : int;  (** interior [Ldrf]s turned into moves *)
  stores_rewritten : int;  (** interior [Strf]s turned into moves *)
  copies_propagated : int;  (** source operands substituted by copy-prop *)
  rf_loads_forwarded : int;  (** [Ldrf]s satisfied by an earlier rf access *)
}

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
   new stream, the (vreg, offset) promotion list, the rewrite counts
   and the ever-dirty offset list (= the writeback map's domain). *)
let promote_regs ~max_regs ~classify (instrs : instr array) =
  let cands = pick_candidates ~max_regs ~classify instrs in
  if cands = [] then (instrs, [], 0, 0, [])
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
    let loads_rw = ref 0 and stores_rw = ref 0 in
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
        | Ldrf (d, off) when Hashtbl.mem pv_of off ->
          incr loads_rw;
          emit (Mov (d, pv off))
        | Strf (off, s) when Hashtbl.mem pv_of off ->
          incr stores_rw;
          emit (Mov (pv off, s))
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
      !loads_rw, !stores_rw, dirty )
  end

(* ------------------------------------------------------------------ *)
(* Copy propagation *)

(* Forward substitution of [Mov (Vreg d, src)] copies within a basic
   block.  The map is cleared at labels, terminators and safepoints; it
   survives helper calls because helpers never touch vregs (they only
   clobber the dedicated scratch pregs).  [map_sources] leaves a
   [Wbmap]'s operands untouched: the writeback map must keep naming the
   promoted vregs themselves, which stay live (and thus allocated and
   up to date) precisely because the map references them.  For the same
   reason a barrier flush [Strf (off, pv)] at a promoted offset is not
   substituted into — the flush must read the authoritative cache
   register, and [Verify.check_wb] rejects anything else. *)
(* Identity ALU operations (the translator emits e.g. [add d, s, #0]
   for register moves with unused shifts) become plain copies, so copy
   propagation and dead-marking can see through them. *)
let canonicalize ins =
  match ins with
  | Alu ((Aadd | Aor | Axor | Ashl | Ashr | Asar), d, a, Imm 0L) -> Mov (d, a)
  | Alu ((Aadd | Aor | Axor), d, Imm 0L, b) -> Mov (d, b)
  | Alu (Aand, d, a, Imm -1L) -> Mov (d, a)
  | Alu (Aand, d, Imm -1L, b) -> Mov (d, b)
  | Alu (Amul, d, a, Imm 1L) -> Mov (d, a)
  | Alu (Amul, d, Imm 1L, b) -> Mov (d, b)
  | _ -> ins

let copy_prop ~(promoted_offs : (int, unit) Hashtbl.t) (instrs : instr array) =
  let n = Array.length instrs in
  let out = Array.make n (Label 0) in
  let map = Hashtbl.create 16 in
  let substituted = ref 0 in
  for i = 0 to n - 1 do
    let ins = instrs.(i) in
    (match ins with
     | Label _ | Jmp _ | Br _ | Exit _ | Poll _ -> Hashtbl.reset map
     | _ -> ());
    let ins' =
      match ins with
      | Strf (off, _) when Hashtbl.mem promoted_offs off -> ins
      | _ ->
        map_sources
          (fun o ->
            match o with
            | Vreg v -> (
              match Hashtbl.find_opt map v with
              | Some repl -> incr substituted; repl
              | None -> o)
            | _ -> o)
          ins
    in
    let ins' = canonicalize ins' in
    (* Redefinition kills the dest's own entry and every entry whose
       replacement reads the dest. *)
    (match dest ins' with
     | Some (Vreg d) ->
       Hashtbl.remove map d;
       let stale =
         Hashtbl.fold
           (fun v repl acc -> if repl = Vreg d then v :: acc else acc)
           map []
       in
       List.iter (Hashtbl.remove map) stale
     | _ -> ());
    (match ins' with
     | Mov (Vreg d, (Vreg _ | Imm _ as src)) when src <> Vreg d ->
       Hashtbl.replace map d src
     | _ -> ());
    out.(i) <- ins'
  done;
  (out, !substituted)

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
  let forwarded = ref 0 in
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
        | Some v when v <> d ->
          incr forwarded;
          Mov (d, v)
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
  (out, !forwarded)

(* ------------------------------------------------------------------ *)

(* Run the full pipeline; returns the rewritten stream, the (vreg,
   register-file offset) promotion list and the pass statistics. *)
let run ?(max_regs = 4) ?(classify = fun _ -> Effects.C_clobber) (instrs : instr array) :
    instr array * (int * int) list * stats =
  let instrs, promoted, loads_rw, stores_rw, dirty =
    promote_regs ~max_regs ~classify instrs
  in
  let promoted_offs = Hashtbl.create 8 in
  List.iter (fun (_, off) -> Hashtbl.replace promoted_offs off ()) promoted;
  let instrs, cp1 = copy_prop ~promoted_offs instrs in
  let instrs, rf_fwd = rf_forward instrs in
  let instrs, cp2 = copy_prop ~promoted_offs instrs in
  let stats =
    { promoted = List.length promoted;
      wb_entries = List.length dirty;
      loads_rewritten = loads_rw;
      stores_rewritten = stores_rw;
      copies_propagated = cp1 + cp2;
      rf_loads_forwarded = rf_fwd }
  in
  (instrs, promoted, stats)
