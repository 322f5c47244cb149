(* Translation validation: symbolic equivalence of the optimized HostIR
   program against a reference emission.

   The reference is rebuilt from the same decode the engine translated:
   every guest instruction is lowered through Ssa.Gen into its own fresh
   Dag (no cross-instruction memoization, no region passes, no
   promotion), the per-instruction segments are concatenated with vreg
   and label relocation, and — for regions — the engine's member/dispatch
   skeleton is re-created verbatim around the member bodies.  Both
   programs are then executed by Symexec from a common initial symbolic
   state and their exit states compared path-by-path:

     - exit slot and symbolic PC;
     - the guest register file image, with promoted registers equated
       through the Wbmap writeback Symexec applies at every exit;
     - the ordered trace of memory stores (width, address term, stored
       value, guest PC at the store) — order is compared exactly, which
       is sound because the optimizer never deletes or reorders Mem_st;
     - the ordered trace of helper calls (helper id, arguments, guest PC
       and rf snapshot at the call).

   Any mismatch is reported as a named finding carrying both term trees;
   a finding is a real miscompile (or a validator incompleteness — see
   DESIGN.md "Translation validation" for the known ones). *)

open Hir
module S = Symexec

type item = {
  it_action : Ssa.Ir.action;
  it_field : string -> int64;
  it_inc_pc : int option;
}

(* What the engine knew about one region member at translation time:
   enough to re-create the emission skeleton. *)
type member_ref = {
  mb_va : int64;
  mb_items : item list;
  mb_undef : bool; (* decode failed / empty: member body is a bare Exit 0 *)
  mb_targets : int64 list; (* dispatch targets, in the engine's heat order *)
}

type finding = { f_name : string; f_detail : string }

type outcome = {
  ok : bool;
  complete : bool; (* both runs explored every path within the limits *)
  findings : finding list;
  o_paths : int;
  o_steps : int;
}

(* ------------------------------------------------------------------ *)
(* Reference emission                                                 *)
(* ------------------------------------------------------------------ *)

(* One segment per decoded instruction, each from a fresh Dag. *)
let segments ~config items =
  Ssa.Gen.translate_isolated
    ~fresh:(fun () ->
      let d = Dag.create config in
      (Dag.emitter d, fun () -> (Dag.finish d, Dag.vreg_count d, Dag.label_count d)))
    (List.map (fun it -> (it.it_action, it.it_field, it.it_inc_pc)) items)

(* Append a segment to [out] with its vregs and labels relocated above
   everything emitted so far; returns the new (vbase, lbase). *)
let emit_relocated out ~vbase ~lbase (instrs, nv, nl) =
  Array.iter
    (fun ins ->
      let ins = map_operands (function Vreg v -> Vreg (v + vbase) | o -> o) ins in
      out := map_labels (fun l -> l + lbase) ins :: !out)
    instrs;
  (vbase + nv, lbase + nl)

let block_reference ~config items : instr array =
  let out = ref [] in
  let vb = ref 0 and lb = ref 0 in
  List.iter
    (fun seg ->
      let vb', lb' = emit_relocated out ~vbase:!vb ~lbase:!lb seg in
      vb := vb';
      lb := lb')
    (segments ~config items);
  out := Exit 0 :: !out;
  Array.of_list (List.rev !out)

let region_reference ~config (members : member_ref list) : instr array =
  let msegs = List.map (fun m -> (m, segments ~config m.mb_items)) members in
  (* Body vregs/labels first; skeleton ids are allocated above them all. *)
  let body_v, body_l =
    List.fold_left
      (fun (v, l) (_, segs) ->
        List.fold_left (fun (v, l) (_, nv, nl) -> (v + nv, l + nl)) (v, l) segs)
      (0, 0) msegs
  in
  let next_v = ref body_v and next_l = ref body_l in
  let fresh_l () =
    let l = !next_l in
    incr next_l;
    l
  in
  let fresh_v () =
    let v = !next_v in
    incr next_v;
    Vreg v
  in
  let entry = List.map (fun m -> (m.mb_va, fresh_l ())) members in
  let entry_of va = List.assoc_opt va entry in
  let out = ref [] in
  let push i = out := i :: !out in
  let vb = ref 0 and lb = ref 0 in
  List.iteri
    (fun mi (m, segs) ->
      push (Label (List.assoc m.mb_va entry));
      push (Poll 0);
      if m.mb_undef || segs = [] then push (Exit 0)
      else begin
        List.iter
          (fun seg ->
            let vb', lb' = emit_relocated out ~vbase:!vb ~lbase:!lb seg in
            vb := vb';
            lb := lb')
          segs;
        (* the engine's member/dispatch seam: a jump into the dispatch
           chunk, then a PC compare per in-region target in heat order *)
        let l_d = fresh_l () in
        push (Jmp l_d);
        push (Label l_d);
        let targets =
          List.filter_map (fun va -> Option.map (fun l -> (va, l)) (entry_of va)) m.mb_targets
        in
        let pc = fresh_v () in
        if targets <> [] then push (Load_pc pc);
        List.iter
          (fun (va_t, lt) ->
            let c = fresh_v () in
            push (Setcc (Ceq, c, pc, Imm va_t));
            let l_next = fresh_l () in
            push (Br (c, lt, l_next));
            push (Label l_next))
          targets;
        push (Exit (mi + 1))
      end)
    msegs;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Comparison                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-run timing/size diagnostics for debugging validator cost
   (EQUIV_DEBUG=1); output goes to stderr. *)
let debug = lazy (Sys.getenv_opt "EQUIV_DEBUG" <> None)

let lits_str lits =
  String.concat ", "
    (List.map (fun (t, b) -> Printf.sprintf "%s=%b" (S.to_string t) b) lits)

let pair_str a b = Printf.sprintf "optimized:  %s\n  reference:  %s" a b

let check ?classify ~init_pc
    ~(opt : instr array) ~(reference : instr array) () : outcome =
  let run what prog =
    let t0 = Sys.time () in
    let r = S.run ?classify ~init_pc prog in
    if Lazy.force debug then
      Printf.eprintf "equiv: %s %d instrs: steps=%d paths=%d exits=%d complete=%b (%.2fs cpu)\n%!"
        what (Array.length prog) r.S.o_steps r.S.o_paths (List.length r.S.exits) r.S.complete
        (Sys.time () -. t0);
    r
  in
  let ro = run "optimized" opt in
  let rr = run "reference" reference in
  let both_complete = ro.S.complete && rr.S.complete in
  let findings = ref [] in
  let add name detail = findings := { f_name = name; f_detail = detail } :: !findings in
  let addt name what a b = add name (Printf.sprintf "%s\n  %s" what (pair_str a b)) in
  let cmp_terms name what ta tb =
    if ta <> tb then addt name what (S.to_string ta) (S.to_string tb)
  in
  let cmp_rf name what la lb =
    let rec go la lb =
      match (la, lb) with
      | [], [] -> ()
      | (o, t) :: tla, (o', t') :: tlb when o = o' ->
        cmp_terms name (Printf.sprintf "%s rf[0x%x]" what o) t t';
        go tla tlb
      | (o, t) :: tla, ((o', _) :: _ as lb) when o < o' ->
        addt name (Printf.sprintf "%s rf[0x%x]" what o) (S.to_string t) "<initial>";
        go tla lb
      | (o, t) :: tla, [] ->
        addt name (Printf.sprintf "%s rf[0x%x]" what o) (S.to_string t) "<initial>";
        go tla []
      | la, (o', t') :: tlb ->
        addt name (Printf.sprintf "%s rf[0x%x]" what o') "<initial>" (S.to_string t');
        go la tlb
    in
    go la lb
  in
  let cmp_event ctx i (a : S.event) (b : S.event) =
    let what field = Printf.sprintf "%s, trace event %d: %s" ctx i field in
    match (a, b) with
    | ( S.E_store { s_width = wa; s_addr = aa; s_value = va; s_pc = pa },
        S.E_store { s_width = wb; s_addr = ab; s_value = vb; s_pc = pb } ) ->
      if wa <> wb then addt "store-width" (what "store width") (string_of_int wa) (string_of_int wb);
      cmp_terms "store-addr" (what "store address") aa ab;
      cmp_terms "store-value" (what "stored value") va vb;
      cmp_terms "store-pc" (what "guest PC at store") pa pb
    | ( S.E_call { c_helper = ha; c_kind = _; c_args = aa; c_pc = pa; c_rf = fa; c_epoch = ea },
        S.E_call { c_helper = hb; c_kind = _; c_args = ab; c_pc = pb; c_rf = fb; c_epoch = eb } ) ->
      if ha <> hb then addt "call-helper" (what "helper id") (string_of_int ha) (string_of_int hb);
      if List.length aa <> List.length ab then
        addt "call-args" (what "argument count")
          (string_of_int (List.length aa))
          (string_of_int (List.length ab))
      else
        List.iteri
          (fun k (ta, tb) -> cmp_terms "call-args" (what (Printf.sprintf "argument %d" k)) ta tb)
          (List.combine aa ab);
      cmp_terms "call-pc" (what "guest PC at call") pa pb;
      if ea <> eb then addt "call-epoch" (what "rf epoch") (string_of_int ea) (string_of_int eb);
      cmp_rf "call-rf" (what "rf at call") fa fb
    | _ ->
      addt "trace-kind" (what "event kind")
        (match a with S.E_store _ -> "store" | S.E_call _ -> "call")
        (match b with S.E_store _ -> "store" | S.E_call _ -> "call")
  in
  let cmp_exit (o : S.exit_state) (r : S.exit_state) =
    let ctx = Printf.sprintf "path [%s]" (lits_str o.S.x_lits) in
    if o.S.x_slot <> r.S.x_slot || o.S.x_poll <> r.S.x_poll then
      addt "exit-slot"
        (Printf.sprintf "%s: exit slot" ctx)
        (Printf.sprintf "%d%s" o.S.x_slot (if o.S.x_poll then " (poll)" else ""))
        (Printf.sprintf "%d%s" r.S.x_slot (if r.S.x_poll then " (poll)" else ""));
    cmp_terms "pc-mismatch" (Printf.sprintf "%s: exit PC" ctx) o.S.x_pc r.S.x_pc;
    if o.S.x_epoch <> r.S.x_epoch then
      addt "rf-epoch"
        (Printf.sprintf "%s: rf epoch" ctx)
        (string_of_int o.S.x_epoch) (string_of_int r.S.x_epoch);
    cmp_rf "rf-mismatch" (Printf.sprintf "%s: exit" ctx) o.S.x_rf r.S.x_rf;
    let rec cmp_pregs la lb =
      match (la, lb) with
      | [], [] -> ()
      | (g, t) :: tla, (g', t') :: tlb when g = g' ->
        cmp_terms "preg-mismatch" (Printf.sprintf "%s: host r%d" ctx g) t t';
        cmp_pregs tla tlb
      | (g, t) :: tla, ((g', _) :: _ as lb) when g < g' ->
        addt "preg-mismatch" (Printf.sprintf "%s: host r%d" ctx g) (S.to_string t) "<initial>";
        cmp_pregs tla lb
      | (g, t) :: tla, [] ->
        addt "preg-mismatch" (Printf.sprintf "%s: host r%d" ctx g) (S.to_string t) "<initial>";
        cmp_pregs tla []
      | la, (g', t') :: tlb ->
        addt "preg-mismatch" (Printf.sprintf "%s: host r%d" ctx g') "<initial>" (S.to_string t');
        cmp_pregs la tlb
    in
    cmp_pregs o.S.x_pregs r.S.x_pregs;
    let no = List.length o.S.x_trace and nr = List.length r.S.x_trace in
    if no <> nr then
      addt "trace-length"
        (Printf.sprintf "%s: memory/call trace length" ctx)
        (string_of_int no) (string_of_int nr)
    else List.iteri (fun i (a, b) -> cmp_event ctx i a b) (List.combine o.S.x_trace r.S.x_trace)
  in
  (* Exit states are matched by their sorted path condition: two programs
     that agree fork on the same normalized terms, so equal paths carry
     equal literal sets.  Unmatched paths are findings only when both
     runs were complete (a bounded run legitimately misses paths). *)
  let key (x : S.exit_state) = x.S.x_lits in
  let sorted ex = List.sort (fun a b -> compare (key a) (key b)) ex in
  let unmatched side (x : S.exit_state) =
    if both_complete then
      add "exit-unmatched"
        (Printf.sprintf "%s-only exit path (slot %d) under condition [%s]" side x.S.x_slot
           (lits_str x.S.x_lits))
  in
  let rec walk lo lr =
    match (lo, lr) with
    | [], [] -> ()
    | o :: tlo, [] ->
      unmatched "optimized" o;
      walk tlo []
    | [], r :: tlr ->
      unmatched "reference" r;
      walk [] tlr
    | o :: tlo, r :: tlr ->
      let c = compare (key o) (key r) in
      if c = 0 then begin
        cmp_exit o r;
        walk tlo tlr
      end
      else if c < 0 then begin
        unmatched "optimized" o;
        walk tlo lr
      end
      else begin
        unmatched "reference" r;
        walk lo tlr
      end
  in
  walk (sorted ro.S.exits) (sorted rr.S.exits);
  let findings = List.rev !findings in
  {
    ok = findings = [];
    complete = both_complete;
    findings;
    o_paths = ro.S.o_paths + rr.S.o_paths;
    o_steps = ro.S.o_steps + rr.S.o_steps;
  }

(* Convenience wrappers tying the oracle to the comparison. *)

let check_block ?classify ~config ~init_pc ~opt items : outcome =
  check ?classify ~init_pc ~opt
    ~reference:(block_reference ~config items) ()

let check_region ?classify ~config ~init_pc ~opt members : outcome =
  check ?classify ~init_pc ~opt
    ~reference:(region_reference ~config members) ()
