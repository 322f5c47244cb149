(* Post-register-allocation invariant checks on the low-level host IR.

   The encoder assumes - without checking - that register allocation
   left no virtual registers behind, that spill slots fit in the
   translation frame, and that dead-marking is sound.  This module makes
   those assumptions machine-checked: the engine can run it on every
   translation in a debug configuration, and `captive_run lint` sweeps
   it across whole guest models. *)

open Hir

type violation = {
  v_index : int option; (* instruction index in the stream, if any *)
  v_msg : string;
}

exception Invalid of string * violation list

let string_of_violation v =
  match v.v_index with
  | Some i -> Printf.sprintf "[%d]: %s" i v.v_msg
  | None -> v.v_msg

let report ~what violations =
  Printf.sprintf "HostIR verification failed for %s:\n%s" what
    (String.concat "\n" (List.map (fun v -> "  " ^ string_of_violation v) violations))

(* Self-locating CI logs (like Mem.Bus_error): an escaped [Invalid]
   prints the full report — the [what] string carries guest PA, region
   id, and pass name as formatted by the raising site. *)
let () =
  Printexc.register_printer (function
    | Invalid (what, violations) -> Some (report ~what violations)
    | _ -> None)

(* The simulated host has 16 GPRs; allocation hands out
   [0, Regalloc.num_allocatable); the registers above that are reserved
   (spill scratch, address-space tag, register-file base, guest PC) and
   may appear only from explicit backend emission. *)
let num_host_regs = 16

(* [original], when given, is the pre-allocation stream the result was
   produced from; it enables the dead-marking soundness check (a dead
   instruction's destination vreg must not be a source of any live
   instruction). *)
let check ?original (r : Regalloc.result) : violation list =
  let violations = ref [] in
  let add ?index fmt =
    Printf.ksprintf (fun msg -> violations := { v_index = index; v_msg = msg } :: !violations) fmt
  in
  if Array.length r.Regalloc.dead <> Array.length r.Regalloc.instrs then
    add "dead map has %d entries for %d instructions"
      (Array.length r.Regalloc.dead) (Array.length r.Regalloc.instrs);
  let labels = Cfg.label_index r.Regalloc.instrs in
  let pregs_used = Hashtbl.create 16 in
  Array.iteri
    (fun idx i ->
      let check_operand o =
        match o with
        | Vreg v -> add ~index:idx "virtual register %%v%d survived allocation" v
        | Slot s ->
          if s < 0 || s >= r.Regalloc.n_slots then
            add ~index:idx "spill slot %d outside frame of %d slots" s r.Regalloc.n_slots
        | Preg p ->
          if p < 0 || p >= num_host_regs then
            add ~index:idx "physical register %%r%d outside the host register file" p
          else if p < Regalloc.num_allocatable then Hashtbl.replace pregs_used p ()
        | Imm _ -> ()
      in
      ignore (map_operands (fun o -> check_operand o; o) i);
      let check_target l =
        if not (Hashtbl.mem labels l) then add ~index:idx "branch to missing label L%d" l
      in
      match i with
      | Jmp l -> check_target l
      | Br (_, t, f) ->
        check_target t;
        check_target f
      | _ -> ())
    r.Regalloc.instrs;
  if Hashtbl.length pregs_used > Regalloc.num_allocatable then
    add "%d distinct allocatable registers in use, pool has %d"
      (Hashtbl.length pregs_used) Regalloc.num_allocatable;
  (match original with
  | None -> ()
  | Some (orig : instr array) ->
    if Array.length orig <> Array.length r.Regalloc.instrs then
      add "original stream has %d instructions, result has %d"
        (Array.length orig) (Array.length r.Regalloc.instrs)
    else begin
      (* Dead-marking soundness: collect every vreg sourced by a live
         instruction; a dead instruction defining one of them would lose
         a value the program still needs. *)
      let live_sources = Hashtbl.create 64 in
      Array.iteri
        (fun idx i ->
          if not r.Regalloc.dead.(idx) then
            List.iter
              (fun o -> match o with Vreg v -> Hashtbl.replace live_sources v () | _ -> ())
              (sources i))
        orig;
      Array.iteri
        (fun idx i ->
          if r.Regalloc.dead.(idx) then begin
            if not (pure i) then add ~index:idx "impure instruction marked dead";
            match dest i with
            | Some (Vreg v) when Hashtbl.mem live_sources v ->
              add ~index:idx "dead instruction's destination %%v%d is used by a live instruction" v
            | _ -> ()
          end)
        orig
    end);
  List.rev !violations

let check_exn ?(what = "translation") ?original (r : Regalloc.result) =
  match check ?original r with
  | [] -> ()
  | violations -> raise (Invalid (what, violations))

(* ------------------------------------------------------------------ *)
(* Precise-state writeback-map checking (pre-allocation stream).

   A promoted region caches register-file offsets in vregs; the machine
   observes the register file at helper calls, faults ([Mem_ld]/
   [Mem_st]), [Poll] exits and [Exit]s.  Helper calls must be preceded
   by explicit flushes; the other points are covered by the stream's
   [Wbmap], which the executor applies before the state escapes.

   The forward may-analysis over the region CFG (dirty / stale facts
   per promoted vreg) lives in the shared dataflow framework
   ([Absint.check_wb]); this is the thin violation-shaped front door.
   [classify] makes helpers that cannot observe the register file
   (pure softfloat) transparent to the discipline; by default every
   helper is a barrier, which is what the promoter emits unless told
   otherwise. *)

let check_wb ?classify ~(promoted : (int * int) list) (instrs : instr array) :
    violation list =
  List.map
    (fun f -> { v_index = f.Absint.f_index; v_msg = f.Absint.f_msg })
    (Absint.check_wb ?classify ~promoted instrs)

let check_wb_exn ?(what = "region") ?classify ~promoted instrs =
  match check_wb ?classify ~promoted instrs with
  | [] -> ()
  | violations -> raise (Invalid (what, violations))
