(* Register allocation (paper Sec. 2.3.3): a forward pass discovers live
   ranges, ranges crossing loop back-edges are extended, then a fast
   linear scan maps virtual registers onto the physical pool, spilling the
   furthest-ending interval under pressure.  Dead instructions (pure, with
   an unused destination) are marked so the encoder skips them, as the
   paper describes. *)

open Hir

(* Physical register pool: the simulated host has 16 GPRs; r15 is the
   dedicated guest-PC register, rbp-equivalent is the register-file base,
   r12..r14 are reserved as spill scratch.  That leaves 11 allocatable. *)
let num_allocatable = 11

type result = {
  instrs : instr array; (* operands are Preg/Imm/Slot only *)
  dead : bool array; (* marked dead: encoder skips *)
  n_slots : int;
  n_spilled : int;
  n_dead : int;
}

type interval = {
  vreg : int;
  mutable istart : int;
  mutable iend : int;
  mutable uses : int;
}

let analyze (instrs : instr array) =
  let tbl : (int, interval) Hashtbl.t = Hashtbl.create 64 in
  let touch idx kind op =
    match op with
    | Vreg v ->
      let it =
        match Hashtbl.find_opt tbl v with
        | Some it -> it
        | None ->
          let it = { vreg = v; istart = idx; iend = idx; uses = 0 } in
          Hashtbl.replace tbl v it;
          it
      in
      it.istart <- min it.istart idx;
      it.iend <- max it.iend idx;
      if kind = `Use then it.uses <- it.uses + 1
    | Preg _ | Imm _ | Slot _ -> ()
  in
  Array.iteri
    (fun idx i ->
      List.iter (touch idx `Use) (sources i);
      match dest i with Some d -> touch idx `Def d | None -> ())
    instrs;
  (* Extend ranges across backward branches.  Only virtual registers
     actually live at the branch target need to survive the whole loop —
     a value defined and consumed within one iteration keeps its short
     range, so loop bodies (tier-1 regions especially) don't spill
     everything that merely sits inside the loop span. *)
  let cfg = Cfg.build instrs in
  (match Cfg.back_edges cfg with
  | [] -> ()
  | edges ->
    let live_in, _ = Cfg.live_vregs cfg ~pinned:Cfg.Iset.empty in
    List.iter
      (fun (b, s) ->
        let target = cfg.Cfg.starts.(s) and branch = Cfg.block_end cfg b - 1 in
        Cfg.Iset.iter
          (fun v ->
            match Hashtbl.find_opt tbl v with
            | Some it ->
              it.istart <- min it.istart target;
              it.iend <- max it.iend branch
            | None -> ())
          live_in.(s))
      edges);
  tbl

let run (instrs : instr array) : result =
  let intervals = analyze instrs in
  (* Dead marking: pure instructions whose destination vreg is never used. *)
  let dead = Array.make (Array.length instrs) false in
  let n_dead = ref 0 in
  Array.iteri
    (fun idx i ->
      if pure i then
        match dest i with
        | Some (Vreg v) -> (
          match Hashtbl.find_opt intervals v with
          | Some it when it.uses = 0 ->
            dead.(idx) <- true;
            incr n_dead
          | _ -> ())
        | _ -> ())
    instrs;
  (* Linear scan over intervals sorted by start. *)
  let sorted =
    Hashtbl.fold (fun _ it acc -> it :: acc) intervals []
    |> List.sort (fun a b -> compare a.istart b.istart)
  in
  let assignment : (int, operand) Hashtbl.t = Hashtbl.create 64 in
  let free = ref (List.init num_allocatable (fun i -> i)) in
  let active : interval list ref = ref [] in
  let n_slots = ref 0 and n_spilled = ref 0 in
  let expire current =
    let expired, live = List.partition (fun it -> it.iend < current) !active in
    active := live;
    List.iter
      (fun it ->
        match Hashtbl.find_opt assignment it.vreg with
        | Some (Preg r) -> free := r :: !free
        | _ -> ())
      expired
  in
  List.iter
    (fun it ->
      expire it.istart;
      match !free with
      | r :: rest ->
        free := rest;
        Hashtbl.replace assignment it.vreg (Preg r);
        active := it :: !active
      | [] ->
        (* Spill the interval ending furthest in the future. *)
        let victim =
          List.fold_left (fun acc c -> if c.iend > acc.iend then c else acc) it !active
        in
        incr n_spilled;
        if victim != it then begin
          (* Steal the victim's register. *)
          (match Hashtbl.find_opt assignment victim.vreg with
          | Some (Preg r) ->
            Hashtbl.replace assignment it.vreg (Preg r);
            active := it :: List.filter (fun c -> c != victim) !active
          | _ -> assert false);
          let slot = !n_slots in
          incr n_slots;
          Hashtbl.replace assignment victim.vreg (Slot slot)
        end
        else begin
          let slot = !n_slots in
          incr n_slots;
          Hashtbl.replace assignment it.vreg (Slot slot)
        end)
    sorted;
  let rewrite op =
    match op with
    | Vreg v -> (
      match Hashtbl.find_opt assignment v with
      | Some o -> o
      | None -> Preg 0 (* defined but never used; instruction is dead *))
    | o -> o
  in
  let out = Array.map (map_operands rewrite) instrs in
  { instrs = out; dead; n_slots = !n_slots; n_spilled = !n_spilled; n_dead = !n_dead }
