(* The offline optimization passes of the paper's Fig. 5, gated by
   optimization level O1-O4 and run to a fixed point.

   Inlining (O1-4 in the paper) is performed during SSA construction, so it
   is always active, matching the paper's observation that O1 output is the
   inlined-but-otherwise-raw form. *)

module Ast = Adl.Ast
module Eval = Adl.Eval

(* The architecture context is shared with the abstract interpreter (which
   the absint-simplify pass and the lint-time validator run on); the type
   lives in Absint and is re-exported here so existing consumers keep
   their [Opt.context] spelling. *)
type context = Absint.ctx = {
  field_widths : (string * int) list; (* decode-pattern field widths *)
  bank_widths : (int * int) list; (* bank index -> element width *)
  slot_widths : (int * int) list;
  bank_counts : (int * int) list; (* bank index -> number of elements *)
  slot_indices : int list;
}

let no_context = Absint.no_ctx

(* --- utilities ------------------------------------------------------------ *)

(* Statement descriptions by id, as of the call.  An id no statement
   defines maps to [Pc_read], which no lookup below takes for a value. *)
let defs_of (action : Ir.action) : Ir.desc array =
  let n =
    List.fold_left
      (fun n b -> List.fold_left (fun n i -> max n (i.Ir.id + 1)) n b.Ir.insts)
      0 action.Ir.blocks
  in
  let t = Array.make n Ir.Pc_read in
  List.iter (fun b -> List.iter (fun i -> t.(i.Ir.id) <- i.Ir.desc) b.Ir.insts) action.Ir.blocks;
  t

let const_def (defs : Ir.desc array) id =
  if id >= 0 && id < Array.length defs then match defs.(id) with Ir.Const v -> Some v | _ -> None
  else None

(* Rewrite every use of [from] to [to_].  Malformed requests raise a
   descriptive error instead of silently corrupting the IR: [to_] must be
   a defined value-producing statement, and must differ from [from]. *)
let replace_uses (action : Ir.action) ~from ~to_ =
  if from = to_ then
    invalid_arg
      (Printf.sprintf "Opt.replace_uses: s_%d -> itself in action %s" from action.Ir.name);
  (match
     List.find_map
       (fun b -> List.find_opt (fun i -> i.Ir.id = to_) b.Ir.insts)
       action.Ir.blocks
   with
  | Some i when Ir.produces_value i.Ir.desc -> ()
  | Some _ ->
    invalid_arg
      (Printf.sprintf
         "Opt.replace_uses: replacement s_%d produces no value in action %s" to_ action.Ir.name)
  | None ->
    invalid_arg
      (Printf.sprintf "Opt.replace_uses: replacement s_%d is not defined in action %s" to_
         action.Ir.name));
  let ren = Ir.renaming () in
  Ir.alias ren action ~from ~to_;
  Ir.rename_action ren action

(* --- dead code elimination ------------------------------------------------ *)

(* Removes every removable statement whose value is unused, then what
   that leaves unused, and so on: the fixed point of repeated sweeps,
   reached in one pass with use counts and a worklist.  Statements that
   only use each other in a cycle stay, as they would under sweeps. *)
let dead_code_elim _ctx (action : Ir.action) =
  let top = ref 0 in
  let see id = if id >= !top then top := id + 1 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          see i.Ir.id;
          List.iter see (Ir.operands i.Ir.desc))
        b.Ir.insts;
      match b.Ir.term with Ir.Branch (c, _, _) -> see c | Ir.Jump _ | Ir.Ret -> ())
    action.Ir.blocks;
  let uses = Array.make !top 0 in
  let removable = Array.make !top [] in
  let use id = uses.(id) <- uses.(id) + 1 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          List.iter use (Ir.operands i.Ir.desc);
          if Ir.removable i.Ir.desc then removable.(i.Ir.id) <- i :: removable.(i.Ir.id))
        b.Ir.insts;
      match b.Ir.term with Ir.Branch (c, _, _) -> use c | Ir.Jump _ | Ir.Ret -> ())
    action.Ir.blocks;
  let work = ref [] in
  Array.iteri (fun id defs -> if defs <> [] && uses.(id) = 0 then work := id :: !work) removable;
  let removed = ref false in
  while !work <> [] do
    let id = List.hd !work in
    work := List.tl !work;
    removed := true;
    List.iter
      (fun i ->
        List.iter
          (fun o ->
            uses.(o) <- uses.(o) - 1;
            if uses.(o) = 0 && removable.(o) <> [] then work := o :: !work)
          (Ir.operands i.Ir.desc))
      removable.(id)
  done;
  if !removed then
    List.iter
      (fun b ->
        b.Ir.insts <-
          List.filter (fun i -> not (Ir.removable i.Ir.desc && uses.(i.Ir.id) = 0)) b.Ir.insts)
      action.Ir.blocks;
  !removed

(* --- unreachable block elimination ---------------------------------------- *)

let unreachable_block_elim _ctx (action : Ir.action) =
  let reachable = Hashtbl.create 8 in
  let rec visit bid =
    if not (Hashtbl.mem reachable bid) then begin
      Hashtbl.replace reachable bid ();
      let b = Ir.find_block action bid in
      List.iter visit (Ir.successors b)
    end
  in
  visit (Ir.entry_block action).Ir.bid;
  let before = List.length action.Ir.blocks in
  action.Ir.blocks <- List.filter (fun b -> Hashtbl.mem reachable b.Ir.bid) action.Ir.blocks;
  (* Prune phi inputs from removed predecessors. *)
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.Ir.desc with
          | Ir.Phi ins ->
            i.Ir.desc <- Ir.Phi (List.filter (fun (p, _) -> Hashtbl.mem reachable p) ins)
          | _ -> ())
        b.Ir.insts)
    action.Ir.blocks;
  List.length action.Ir.blocks <> before

(* --- control flow simplification ------------------------------------------- *)

let control_flow_simplify _ctx (action : Ir.action) =
  let defs = defs_of action in
  let changed = ref false in
  List.iter
    (fun b ->
      match b.Ir.term with
      | Ir.Branch (_, t, f) when t = f ->
        b.Ir.term <- Ir.Jump t;
        changed := true
      | Ir.Branch (c, t, f) -> (
        match const_def defs c with
        | Some v ->
          b.Ir.term <- Ir.Jump (if v <> 0L then t else f);
          changed := true
        | _ -> ())
      | Ir.Jump _ | Ir.Ret -> ())
    action.Ir.blocks;
  !changed

(* --- block merging ---------------------------------------------------------- *)

(* Merges a block into its jump's target when it is the target's only
   predecessor and the target is not the entry.  Merging [b] into [a]
   changes no other block's predecessor count and only [a]'s terminator,
   so one walk that retries each block until it stops merging finds the
   merges in the order rescans from the first block would. *)
let block_merge _ctx (action : Ir.action) =
  match action.Ir.blocks with
  | [] -> false
  | entry :: _ ->
    let by_bid = Hashtbl.create 16 in
    let npreds = Hashtbl.create 16 in
    List.iter
      (fun x ->
        Hashtbl.replace by_bid x.Ir.bid x;
        List.iter
          (fun t -> Hashtbl.replace npreds t (1 + Option.value ~default:0 (Hashtbl.find_opt npreds t)))
          (List.sort_uniq compare (Ir.successors x)))
      action.Ir.blocks;
    let has_phis =
      List.exists
        (fun b -> List.exists (fun i -> match i.Ir.desc with Ir.Phi _ -> true | _ -> false) b.Ir.insts)
        action.Ir.blocks
    in
    let find bid =
      match Hashtbl.find_opt by_bid bid with Some b -> b | None -> Ir.find_block action bid
    in
    let changed = ref false in
    let merge a b =
      if has_phis then begin
        (* Single-predecessor phis are aliases. *)
        List.iter
          (fun i ->
            match i.Ir.desc with
            | Ir.Phi [ (_, v) ] -> replace_uses action ~from:i.Ir.id ~to_:v
            | _ -> ())
          b.Ir.insts;
        (* Phis in b's successors referring to b must now refer to a. *)
        List.iter
          (fun blk ->
            List.iter
              (fun i ->
                match i.Ir.desc with
                | Ir.Phi ins ->
                  i.Ir.desc <-
                    Ir.Phi (List.map (fun (p, v) -> ((if p = b.Ir.bid then a.Ir.bid else p), v)) ins)
                | _ -> ())
              blk.Ir.insts)
          action.Ir.blocks
      end;
      let non_phi =
        List.filter (fun i -> match i.Ir.desc with Ir.Phi _ -> false | _ -> true) b.Ir.insts
      in
      a.Ir.insts <- a.Ir.insts @ non_phi;
      a.Ir.term <- b.Ir.term;
      Hashtbl.remove by_bid b.Ir.bid;
      action.Ir.blocks <- List.filter (fun blk -> blk.Ir.bid <> b.Ir.bid) action.Ir.blocks;
      changed := true
    in
    let rec absorb a =
      match a.Ir.term with
      | Ir.Jump tb when tb <> a.Ir.bid ->
        let b = find tb in
        if Hashtbl.find_opt npreds tb = Some 1 && tb <> entry.Ir.bid then begin
          merge a b;
          absorb a
        end
      | _ -> ()
    in
    List.iter (fun a -> if Hashtbl.mem by_bid a.Ir.bid then absorb a) action.Ir.blocks;
    !changed

(* --- jump threading (O2) ---------------------------------------------------- *)

let jump_threading _ctx (action : Ir.action) =
  let changed = ref false in
  let has_phis b = List.exists (fun i -> match i.Ir.desc with Ir.Phi _ -> true | _ -> false) b.Ir.insts in
  let entry = (Ir.entry_block action).Ir.bid in
  List.iter
    (fun b ->
      if b.Ir.bid <> entry && b.Ir.insts = [] then
        match b.Ir.term with
        | Ir.Jump target when target <> b.Ir.bid && not (has_phis (Ir.find_block action target)) ->
          (* Redirect all predecessors of b straight to target. *)
          List.iter
            (fun p ->
              let redirect x = if x = b.Ir.bid then target else x in
              match p.Ir.term with
              | Ir.Jump t ->
                if redirect t <> t then begin
                  p.Ir.term <- Ir.Jump (redirect t);
                  changed := true
                end
              | Ir.Branch (c, t, f) ->
                if redirect t <> t || redirect f <> f then begin
                  p.Ir.term <- Ir.Branch (c, redirect t, redirect f);
                  changed := true
                end
              | Ir.Ret -> ())
            action.Ir.blocks
        | _ -> ())
    action.Ir.blocks;
  !changed

(* --- dead variable elimination ---------------------------------------------- *)

let dead_variable_elim _ctx (action : Ir.action) =
  let read_vars = Hashtbl.create 8 in
  List.iter
    (fun b ->
      List.iter
        (fun i -> match i.Ir.desc with Ir.Var_read v -> Hashtbl.replace read_vars v () | _ -> ())
        b.Ir.insts)
    action.Ir.blocks;
  let changed = ref false in
  List.iter
    (fun b ->
      let keep i =
        match i.Ir.desc with
        | Ir.Var_write (v, _) when not (Hashtbl.mem read_vars v) ->
          changed := true;
          false
        | _ -> true
      in
      b.Ir.insts <- List.filter keep b.Ir.insts)
    action.Ir.blocks;
  !changed

(* --- constant folding (O3) --------------------------------------------------- *)

let const_fold _ctx (action : Ir.action) =
  let defs = defs_of action in
  let const_of = const_def defs in
  let changed = ref false in
  let ren = Ir.renaming () in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          let set v =
            i.Ir.desc <- Ir.Const v;
            defs.(i.Ir.id) <- Ir.Const v;
            changed := true
          in
          Ir.rename ren i;
          match i.Ir.desc with
          | Ir.Binary (op, signed, a, bb) -> (
            match (const_of a, const_of bb) with
            | Some va, Some vb -> set (Eval.binop op ~signed va vb)
            | _ -> ())
          | Ir.Unary (op, a) -> (
            match const_of a with Some va -> set (Eval.unop op va) | None -> ())
          | Ir.Normalize (w, signed, a) -> (
            match const_of a with
            | Some va -> set (Eval.normalize (Ast.Tint { bits = w; signed }) va)
            | None -> ())
          | Ir.Select (c, t, f) -> (
            match const_of c with
            | Some vc -> Ir.alias ren action ~from:i.Ir.id ~to_:(if vc <> 0L then t else f)
            | None -> ())
          | Ir.Intrinsic (name, args) -> (
            let vals = List.map const_of args in
            if List.for_all Option.is_some vals then
              match Eval.builtin name (List.map Option.get vals) with
              | Some v -> set v
              | None -> ())
          | _ -> ())
        b.Ir.insts)
    action.Ir.blocks;
  Ir.rename_action ren action;
  !changed

(* --- value propagation (O3) --------------------------------------------------- *)

(* Known upper bound on the number of significant (unsigned) bits of each
   value; used to remove provably redundant truncations and masks. *)
let width_analysis ctx (action : Ir.action) defs =
  let widths = Array.make (Array.length defs) 64 in
  let width_of id = if id >= 0 && id < Array.length widths then widths.(id) else 64 in
  (* Intrinsic result widths are shared with the abstract interpreter so
     both layers assume identical facts about builtins. *)
  let intrinsic_width = Absint.intrinsic_width in
  (* One forward pass per block iteration until stable (cheap: small IR). *)
  let stable = ref false in
  while not !stable do
    stable := true;
    List.iter
      (fun b ->
        List.iter
          (fun i ->
            let w =
              match i.Ir.desc with
              | Ir.Const c -> if c < 0L then 64 else 64 - Dbt_util.Bits.clz c
              | Ir.Struct f -> ( match List.assoc_opt f ctx.field_widths with Some w -> w | None -> 64)
              | Ir.Normalize (w, false, a) -> min w (width_of a)
              | Ir.Normalize (_, true, _) -> 64
              | Ir.Binary (Ast.And, _, a, bb) -> min (width_of a) (width_of bb)
              | Ir.Binary ((Ast.Or | Ast.Xor), _, a, bb) -> max (width_of a) (width_of bb)
              | Ir.Binary (Ast.Add, _, a, bb) -> min 64 (1 + max (width_of a) (width_of bb))
              | Ir.Binary (Ast.Shl, _, a, bb) -> (
                match const_def defs bb with
                | Some c when c >= 0L && c < 64L ->
                  min 64 (width_of a + Int64.to_int c)
                | _ -> 64)
              | Ir.Binary (Ast.Shr, false, a, bb) -> (
                match const_def defs bb with
                | Some c when c >= 0L && c < 64L -> max 0 (width_of a - Int64.to_int c)
                | _ -> width_of a)
              | Ir.Binary ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _, _) -> 1
              | Ir.Unary (Ast.Lnot, _) -> 1
              | Ir.Select (_, t, f) -> max (width_of t) (width_of f)
              | Ir.Bank_read (bank, _) -> (
                match List.assoc_opt bank ctx.bank_widths with Some w -> w | None -> 64)
              | Ir.Reg_read slot -> (
                match List.assoc_opt slot ctx.slot_widths with Some w -> w | None -> 64)
              | Ir.Mem_read (w, _) -> w
              | Ir.Intrinsic (name, _) -> intrinsic_width name
              | Ir.Phi ins -> List.fold_left (fun acc (_, v) -> max acc (width_of v)) 0 ins
              | _ -> 64
            in
            if w < width_of i.Ir.id then begin
              widths.(i.Ir.id) <- w;
              stable := false
            end)
          b.Ir.insts)
      action.Ir.blocks
  done;
  widths

let value_propagation ctx (action : Ir.action) =
  let defs = defs_of action in
  let widths = width_analysis ctx action defs in
  let width_of id = if id >= 0 && id < Array.length widths then widths.(id) else 64 in
  let const_of = const_def defs in
  let changed = ref false in
  let ren = Ir.renaming () in
  let alias from to_ =
    Ir.alias ren action ~from ~to_;
    changed := true
  in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          Ir.rename ren i;
          match i.Ir.desc with
          (* A truncation that cannot change the value. *)
          | Ir.Normalize (w, false, a) when width_of a <= w -> alias i.Ir.id a
          (* Masking with an all-covering constant. *)
          | Ir.Binary (Ast.And, _, a, bb) -> (
            match (const_of a, const_of bb) with
            | _, Some m when m = Dbt_util.Bits.mask (width_of a) && width_of a < 64 ->
              alias i.Ir.id a
            | _, Some (-1L) -> alias i.Ir.id a
            | Some (-1L), _ -> alias i.Ir.id bb
            | _ -> ())
          (* Arithmetic identities. *)
          | Ir.Binary ((Ast.Add | Ast.Or | Ast.Xor | Ast.Shl | Ast.Shr), _, a, bb)
            when const_of bb = Some 0L ->
            alias i.Ir.id a
          | Ir.Binary ((Ast.Add | Ast.Or | Ast.Xor), _, a, bb) when const_of a = Some 0L ->
            alias i.Ir.id bb
          | Ir.Binary (Ast.Sub, _, a, bb) when const_of bb = Some 0L -> alias i.Ir.id a
          | Ir.Binary (Ast.Mul, _, a, bb) when const_of bb = Some 1L -> alias i.Ir.id a
          | Ir.Binary (Ast.Mul, _, a, bb) when const_of a = Some 1L -> alias i.Ir.id bb
          | Ir.Select (_, t, f) when t = f -> alias i.Ir.id t
          | _ -> ())
        b.Ir.insts)
    action.Ir.blocks;
  Ir.rename_action ren action;
  !changed

(* --- load coalescing (O3) ------------------------------------------------------ *)

(* Within a block, forward variable stores to subsequent loads and collapse
   repeated loads. *)
let load_coalescing _ctx (action : Ir.action) =
  let changed = ref false in
  let ren = Ir.renaming () in
  List.iter
    (fun b ->
      let known : (int, Ir.id) Hashtbl.t = Hashtbl.create 8 in
      let kept =
        List.filter
          (fun i ->
            Ir.rename ren i;
            match i.Ir.desc with
            | Ir.Var_write (v, x) ->
              Hashtbl.replace known v x;
              true
            | Ir.Var_read v -> (
              match Hashtbl.find_opt known v with
              | Some x ->
                Ir.alias ren action ~from:i.Ir.id ~to_:x;
                changed := true;
                false
              | None ->
                Hashtbl.replace known v i.Ir.id;
                true)
            | _ -> true)
          b.Ir.insts
      in
      b.Ir.insts <- kept)
    action.Ir.blocks;
  Ir.rename_action ren action;
  !changed

(* --- dead write elimination (O3) ------------------------------------------------ *)

(* A variable store overwritten later in the same block with no intervening
   read of that variable is dead regardless of cross-block liveness. *)
let dead_write_elim _ctx (action : Ir.action) =
  let changed = ref false in
  List.iter
    (fun b ->
      (* Scan backwards: a write is dead if we have already seen a write to
         the same variable and no read in between. *)
      let writes_seen = Hashtbl.create 8 in
      let kept_rev =
        List.fold_left
          (fun acc i ->
            match i.Ir.desc with
            | Ir.Var_write (v, _) ->
              if Hashtbl.mem writes_seen v then begin
                changed := true;
                acc
              end
              else begin
                Hashtbl.replace writes_seen v ();
                i :: acc
              end
            | Ir.Var_read v ->
              Hashtbl.remove writes_seen v;
              i :: acc
            | _ -> i :: acc)
          [] (List.rev b.Ir.insts)
      in
      b.Ir.insts <- kept_rev)
    action.Ir.blocks;
  !changed

(* --- PHI analysis and elimination (O4) ------------------------------------------- *)

type reach = Bot | Val of Ir.id | Top

let meet a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Val x, Val y -> if x = y then a else Top
  | Top, _ | _, Top -> Top

let same_reach a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | Val x, Val y -> x = y
  | _ -> false

(* Promote variables to SSA values with phi nodes, then immediately lower
   phis back to variable copies on the incoming edges (the paper runs "PHI
   Analysis" and "PHI Elimination" as an O4 pair).  The net effect is that
   variables with a single reaching definition disappear entirely.

   The reaching-value analysis works on dense arrays indexed by block
   position (the entry block is position 0) and tracked variable, with
   the predecessor table built once per run.  Only variables both written
   and read somewhere are tracked: every other one reaches each block as
   Bot.  It is a monotone join over the finite lattice Bot < Val < Top,
   iterated from Bot, so it reaches the least fixed point whatever the
   visiting order. *)
let phi_passes _ctx (action : Ir.action) =
  let nvars = action.Ir.next_var in
  if nvars = 0 then false
  else begin
    let barr = Array.of_list action.Ir.blocks in
    let nb = Array.length barr in
    let written = Array.make nvars false and read = Array.make nvars false in
    Array.iter
      (fun b ->
        List.iter
          (fun i ->
            match i.Ir.desc with
            | Ir.Var_write (v, _) -> written.(v) <- true
            | Ir.Var_read v -> read.(v) <- true
            | _ -> ())
          b.Ir.insts)
      barr;
    (* [slot.(v)]: v's column in the analysis arrays, or -1 if untracked. *)
    let slot = Array.make nvars (-1) in
    let nt = ref 0 in
    for v = 0 to nvars - 1 do
      if written.(v) && read.(v) then begin
        slot.(v) <- !nt;
        incr nt
      end
    done;
    let nt = !nt in
    (* [in_.(k * nt + t)]: the value of tracked variable t reaching the
       start of block k. *)
    let in_ = Array.make (nb * nt) Bot in
    if nt > 0 then begin
      let pos = Hashtbl.create nb in
      Array.iteri (fun k b -> Hashtbl.replace pos b.Ir.bid k) barr;
      let preds = Array.make nb [] in
      Array.iteri
        (fun k b ->
          List.iter
            (fun s ->
              match Hashtbl.find_opt pos s with
              | Some j -> if not (List.mem k preds.(j)) then preds.(j) <- k :: preds.(j)
              | None -> ())
            (Ir.successors b))
        barr;
      (* [last.(k * nt + t)]: the last value block k writes to t, or Bot. *)
      let last = Array.make (nb * nt) Bot in
      Array.iteri
        (fun k b ->
          List.iter
            (fun i ->
              match i.Ir.desc with
              | Ir.Var_write (v, x) when slot.(v) >= 0 -> last.((k * nt) + slot.(v)) <- Val x
              | _ -> ())
            b.Ir.insts)
        barr;
      let out p t = match last.((p * nt) + t) with Bot -> in_.((p * nt) + t) | w -> w in
      let rec join_preds t acc = function
        | [] -> acc
        | p :: ps -> join_preds t (meet acc (out p t)) ps
      in
      let stable = ref false in
      while not !stable do
        stable := true;
        for k = 1 to nb - 1 do
          for t = 0 to nt - 1 do
            let m = join_preds t Bot preds.(k) in
            if not (same_reach m in_.((k * nt) + t)) then begin
              in_.((k * nt) + t) <- m;
              stable := false
            end
          done
        done
      done
    end;
    (* Materialization.  A reaching value may itself be a Var_read that
       this pass also eliminates, so first collect the full alias map
       (read id -> reaching value id), resolve it transitively, and only
       then rewrite operands and drop the aliased reads in one sweep.
       In block k, [current.(v)] is the id v holds at this point (-1 for
       none) once [seen.(v) = k]; before that, v holds what reaches k. *)
    let alias : (Ir.id, Ir.id) Hashtbl.t = Hashtbl.create 16 in
    let current = Array.make nvars (-1) and seen = Array.make nvars (-1) in
    Array.iteri
      (fun k b ->
        let holds v =
          if seen.(v) = k then current.(v)
          else if slot.(v) < 0 then -1
          else match in_.((k * nt) + slot.(v)) with Val x -> x | Bot | Top -> -1
        in
        let set v x =
          seen.(v) <- k;
          current.(v) <- x
        in
        List.iter
          (fun i ->
            match i.Ir.desc with
            | Ir.Var_write (v, x) -> set v x
            | Ir.Var_read v ->
              let x = holds v in
              if x >= 0 then Hashtbl.replace alias i.Ir.id x
              else set v i.Ir.id (* later reads share this one *)
            | _ -> ())
          b.Ir.insts)
      barr;
    if Hashtbl.length alias = 0 then false
    else begin
      let rec resolve fuel x =
        if fuel = 0 then x
        else
          match Hashtbl.find_opt alias x with
          | Some y when y <> x -> resolve (fuel - 1) y
          | _ -> x
      in
      (* Aliases that do not resolve to a surviving definition (cycles
         through undefined paths) keep their reads. *)
      let unresolved =
        Hashtbl.fold
          (fun r _ acc -> if Hashtbl.mem alias (resolve 64 r) then r :: acc else acc)
          alias []
      in
      List.iter (Hashtbl.remove alias) unresolved;
      if Hashtbl.length alias = 0 then false
      else begin
      let subst x = resolve 64 x in
      Array.iter
        (fun b ->
          b.Ir.insts <-
            List.filter
              (fun i ->
                if Hashtbl.mem alias i.Ir.id then false
                else begin
                  i.Ir.desc <- Ir.map_operands subst i.Ir.desc;
                  true
                end)
              b.Ir.insts;
          match b.Ir.term with
          | Ir.Branch (c, t, f) when subst c <> c -> b.Ir.term <- Ir.Branch (subst c, t, f)
          | _ -> ())
        barr;
      true
      end
    end
  end

(* --- abstract-interpretation simplification (O3) --------------------------------- *)

(* Analysis-driven simplification over the known-bits/interval domain of
   {!Absint}: strictly stronger than local value propagation (facts flow
   through decode-field seeds, selects, variable states and branch
   pruning).  The pass body lives in Absint. *)
let absint_simplify ctx (action : Ir.action) = Absint.simplify ctx action

(* --- pass manager ----------------------------------------------------------------- *)

type pass = { pname : string; level : int; run : context -> Ir.action -> bool }

let passes : pass list =
  [
    { pname = "Dead Code Elimination"; level = 1; run = dead_code_elim };
    { pname = "Unreachable Block Elimination"; level = 1; run = unreachable_block_elim };
    { pname = "Control Flow Simplification"; level = 1; run = control_flow_simplify };
    { pname = "Block Merging"; level = 1; run = block_merge };
    { pname = "Dead Variable Elimination"; level = 1; run = dead_variable_elim };
    { pname = "Jump Threading"; level = 2; run = jump_threading };
    { pname = "Constant Folding"; level = 3; run = const_fold };
    { pname = "Value Propagation"; level = 3; run = value_propagation };
    { pname = "Load Coalescing"; level = 3; run = load_coalescing };
    { pname = "Dead Write Elimination"; level = 3; run = dead_write_elim };
    { pname = "absint-simplify"; level = 3; run = absint_simplify };
    { pname = "PHI Analysis/Elimination"; level = 4; run = phi_passes };
  ]

(* Run a pass list to a fixed point.  With [verify], the SSA
   well-formedness checker runs after every pass application that
   reported a change, so a pass that breaks an invariant is attributed
   by name (raising [Verify.Invalid] with the pass as the phase).
   A pass that escapes with a bare exception is re-raised with the pass
   and action attached, and a pipeline that fails to reach a fixed point
   within the iteration budget is an error rather than a silent give-up. *)
let run_passes ?(ctx = no_context) ?(verify = false) (enabled : pass list) (action : Ir.action) =
  let run_one p =
    let changed =
      try p.run ctx action with
      | Verify.Invalid _ as e -> raise e
      | Invalid_argument msg | Failure msg ->
        invalid_arg
          (Printf.sprintf "pass %s failed on action %s: %s" p.pname action.Ir.name msg)
      | Not_found ->
        invalid_arg (Printf.sprintf "pass %s failed on action %s: Not_found" p.pname action.Ir.name)
    in
    if verify && changed then Verify.check_exn ~phase:p.pname action;
    changed
  in
  if verify then Verify.check_exn ~phase:"SSA construction" action;
  let rec go n =
    if n > 50 then
      invalid_arg
        (Printf.sprintf "Opt.run_passes: no fixed point after %d rounds on action %s" n
           action.Ir.name)
    else begin
      let changed = List.fold_left (fun acc p -> run_one p || acc) false enabled in
      if changed then go (n + 1)
    end
  in
  go 0

(* Optimize [action] in place at the given level (1-4), iterating the
   enabled passes to a fixed point as the paper describes. *)
let optimize ?(ctx = no_context) ?(verify = false) ~level (action : Ir.action) =
  run_passes ~ctx ~verify (List.filter (fun p -> p.level <= level) passes) action
