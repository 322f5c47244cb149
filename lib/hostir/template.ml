(* Template translation tier: mine each decode action through the
   Gen/Dag pipeline once per opcode form with decode fields evaluated
   symbolically, then install blocks by patching sentinel holes —
   see template.mli for the soundness model. *)

module Builtins = Adl.Builtins
module Eval = Adl.Eval
module Ir = Ssa.Ir
module Emitter = Ssa.Emitter

(* --- field expressions ------------------------------------------------------ *)

(* An install-time-evaluable computation over decode fields: exactly the
   Fixed arithmetic Gen folds at translate time, reified so one mined
   stream serves every field assignment. *)
type fexpr =
  | Ffield of string
  | Fconst of int64
  | Fbin of Adl.Ast.binop * bool * fexpr * fexpr
  | Funop of Adl.Ast.unop * fexpr
  | Fnorm of int * bool * fexpr
  | Fsel of fexpr * fexpr * fexpr
  | Fbuiltin of string * fexpr list

exception Patch_failure

let rec fe_eval ~field = function
  | Ffield f -> field f
  | Fconst c -> c
  | Fbin (op, signed, a, b) -> Eval.binop op ~signed (fe_eval ~field a) (fe_eval ~field b)
  | Funop (op, a) -> Eval.unop op (fe_eval ~field a)
  | Fnorm (bits, signed, a) ->
    Eval.normalize (Adl.Ast.Tint { bits; signed }) (fe_eval ~field a)
  | Fsel (c, x, y) -> if fe_eval ~field c <> 0L then fe_eval ~field x else fe_eval ~field y
  | Fbuiltin (name, args) -> (
    match Eval.builtin name (List.map (fe_eval ~field) args) with
    | Some v -> v
    | None -> raise Patch_failure)

(* Canonical key: memoizes hole allocation (same expression, same
   sentinel) and anchors the double-mine stream comparison. *)
let rec fe_key = function
  | Ffield f -> "$" ^ f
  | Fconst c -> Printf.sprintf "#%Ld" c
  | Fbin (op, s, a, b) ->
    Printf.sprintf "(%s%b %s %s)" (Ir.string_of_binop op) s (fe_key a) (fe_key b)
  | Funop (op, a) -> Printf.sprintf "(u%d %s)" (Hashtbl.hash op) (fe_key a)
  | Fnorm (bits, s, a) -> Printf.sprintf "(n%d%b %s)" bits s (fe_key a)
  | Fsel (c, x, y) -> Printf.sprintf "(sel %s %s %s)" (fe_key c) (fe_key x) (fe_key y)
  | Fbuiltin (n, args) ->
    Printf.sprintf "(%s %s)" n (String.concat " " (List.map fe_key args))

let rec fe_support acc = function
  | Ffield f -> if List.mem f acc then acc else f :: acc
  | Fconst _ -> acc
  | Fbin (_, _, a, b) -> fe_support (fe_support acc a) b
  | Funop (_, a) | Fnorm (_, _, a) -> fe_support acc a
  | Fsel (a, b, c) -> fe_support (fe_support (fe_support acc a) b) c
  | Fbuiltin (_, args) -> List.fold_left fe_support acc args

(* --- the three-way value domain --------------------------------------------- *)

(* Gen's [Fixed | Dyn] with the middle case: field-dependent but
   install-time evaluable. *)
type 'v tv = Fix of int64 | Fx of fexpr | Dy of 'v

exception Untemplatable of string

(* A field-dependent value is about to steer code *structure*: restart
   mining with its support pinned to witness values. *)
exception Need_pin of string list

let fx_of = function Fix c -> Fconst c | Fx e -> e | Dy _ -> invalid_arg "Template.fx_of"

(* Eagerly folded symbolic combinators (callers guarantee no Dy). *)
let sx_bin op signed a b =
  match (a, b) with
  | Fix x, Fix y -> Fix (Eval.binop op ~signed x y)
  | _ -> Fx (Fbin (op, signed, fx_of a, fx_of b))

let sx_un op = function Fix x -> Fix (Eval.unop op x) | v -> Fx (Funop (op, fx_of v))

let sx_norm ~bits ~signed = function
  | Fix x -> Fix (Eval.normalize (Adl.Ast.Tint { bits; signed }) x)
  | v -> Fx (Fnorm (bits, signed, fx_of v))

(* --- the symbolic evaluator -------------------------------------------------- *)

(* Everything the evaluator needs beyond the emitter; the probe run
   instantiates these with no-ops over [Emitter.null]. *)
type 'v mctx = {
  mem : 'v Emitter.t;
  mmat : 'v tv -> 'v;  (* materialize Fix/Fx (the latter via a hole) *)
  msym_load : bank:int -> fexpr -> 'v tv;  (* rf load at a hole offset *)
  msym_store : bank:int -> fexpr -> 'v tv -> unit;
  mclear : unit -> unit;  (* any rf store / barrier / block boundary *)
}

let teval_inst (c : 'v mctx) ~pinned ~witness ~get ~set ~getvar ~setvar (i : Ir.inst) =
  let open Emitter in
  let em = c.mem in
  let mat v = c.mmat v in
  match i.Ir.desc with
  | Ir.Const v -> set i.Ir.id (Fix v)
  | Ir.Struct f ->
    set i.Ir.id
      (match Hashtbl.find_opt pinned f with Some v -> Fix v | None -> Fx (Ffield f))
  | Ir.Binary (op, signed, a, b) -> (
    match (get a, get b) with
    | ((Fix _ | Fx _) as va), ((Fix _ | Fx _) as vb) -> set i.Ir.id (sx_bin op signed va vb)
    | va, vb -> set i.Ir.id (Dy (em.binary op ~signed (mat va) (mat vb))))
  | Ir.Unary (op, a) -> (
    match get a with
    | (Fix _ | Fx _) as v -> set i.Ir.id (sx_un op v)
    | Dy v -> set i.Ir.id (Dy (em.unary op v)))
  | Ir.Normalize (bits, signed, a) -> (
    match get a with
    | (Fix _ | Fx _) as v -> set i.Ir.id (sx_norm ~bits ~signed v)
    | Dy v -> set i.Ir.id (Dy (em.normalize ~bits ~signed v)))
  | Ir.Select (cnd, t, f) -> (
    match get cnd with
    | Fix x -> set i.Ir.id (get (if x <> 0L then t else f))
    | Fx e -> (
      match (get t, get f) with
      | ((Fix _ | Fx _) as vt), ((Fix _ | Fx _) as vf) ->
        set i.Ir.id (Fx (Fsel (e, fx_of vt, fx_of vf)))
      | vt, vf ->
        (* Cmov's condition operand is value-independent in the lowering,
           so a hole condition is patchable — no pin needed. *)
        set i.Ir.id (Dy (em.select (mat (Fx e)) (mat vt) (mat vf))))
    | Dy vc -> set i.Ir.id (Dy (em.select vc (mat (get t)) (mat (get f)))))
  | Ir.Intrinsic (name, args) -> (
    let vals = List.map get args in
    let all_fix = List.for_all (function Fix _ -> true | _ -> false) vals in
    let no_dy = List.for_all (function Dy _ -> false | _ -> true) vals in
    let pure =
      match Builtins.find name with
      | Some { Builtins.bi_kind = Builtins.Pure; _ } -> true
      | _ -> false
    in
    let emit_dynamic () =
      (* The sign_extend lowering bakes a constant width into [Ext]: a
         hole there would be unpatchable, so pin the width's support. *)
      (match (name, vals) with
      | "sign_extend", [ _; Fx e ] -> raise (Need_pin (fe_support [] e))
      | _ -> ());
      set i.Ir.id (Dy (em.intrinsic name (List.map mat vals)))
    in
    if pure && all_fix then
      match
        Eval.builtin name (List.map (function Fix c -> c | _ -> assert false) vals)
      with
      | Some v -> set i.Ir.id (Fix v)
      | None -> emit_dynamic ()
    else if pure && no_dy then
      (* At least one Fx argument: fold symbolically iff the builtin
         evaluates on the witness (evaluability is structural in
         name/arity, so it then evaluates for every field assignment). *)
      match
        Eval.builtin name (List.map (fun v -> fe_eval ~field:witness (fx_of v)) vals)
      with
      | Some _ -> set i.Ir.id (Fx (Fbuiltin (name, List.map fx_of vals)))
      | None | (exception _) -> emit_dynamic ()
    else emit_dynamic ())
  | Ir.Bank_read (bank, idx) -> (
    match get idx with
    | Fix ix -> set i.Ir.id (Dy (em.load_bankreg ~bank ~index:(Int64.to_int ix)))
    | Fx e -> set i.Ir.id (c.msym_load ~bank e)
    | Dy _ -> raise (Untemplatable "dynamic register-bank index"))
  | Ir.Bank_write (bank, idx, v) -> (
    match get idx with
    | Fix ix ->
      em.store_bankreg ~bank ~index:(Int64.to_int ix) (mat (get v));
      c.mclear ()
    | Fx e -> c.msym_store ~bank e (get v)
    | Dy _ -> raise (Untemplatable "dynamic register-bank index"))
  | Ir.Reg_read slot -> set i.Ir.id (Dy (em.load_reg ~slot))
  | Ir.Reg_write (slot, v) ->
    em.store_reg ~slot (mat (get v));
    c.mclear ()
  | Ir.Var_read v -> set i.Ir.id (getvar v)
  | Ir.Var_write (v, x) -> setvar v (get x)
  | Ir.Mem_read (bits, a) -> set i.Ir.id (Dy (em.mem_read ~bits (mat (get a))))
  | Ir.Mem_write (bits, a, v) ->
    em.mem_write ~bits ~addr:(mat (get a)) ~value:(mat (get v))
  | Ir.Pc_read -> set i.Ir.id (Dy (em.load_pc ()))
  | Ir.Pc_write v -> em.store_pc (mat (get v))
  | Ir.Coproc_read idx -> set i.Ir.id (Dy (em.coproc_read (mat (get idx))))
  | Ir.Coproc_write (idx, v) ->
    em.coproc_write (mat (get idx)) (mat (get v));
    c.mclear ()
  | Ir.Effect (name, args) ->
    em.effect name (List.map (fun a -> mat (get a)) args);
    c.mclear ()
  | Ir.Phi _ -> raise (Untemplatable "phi node reached the template miner")

(* --- strategy 1: fully fixed control flow (mirrors Gen.run_fixed) ------------ *)

let run_tfixed (c : 'v mctx) (action : Ir.action) ~pinned ~witness =
  let env : (Ir.id, 'v tv) Hashtbl.t = Hashtbl.create 64 in
  let vars : (int, 'v tv) Hashtbl.t = Hashtbl.create 8 in
  let get id = try Hashtbl.find env id with Not_found -> Fix 0L in
  let set id v = Hashtbl.replace env id v in
  let getvar v = try Hashtbl.find vars v with Not_found -> Fix 0L in
  let setvar v x = Hashtbl.replace vars v x in
  let fuel = ref 100_000 in
  let cur = ref (Some (Ir.entry_block action)) in
  while !cur <> None do
    let b = Option.get !cur in
    decr fuel;
    if !fuel <= 0 then raise (Untemplatable "fixed loop did not terminate during unrolling");
    List.iter (teval_inst c ~pinned ~witness ~get ~set ~getvar ~setvar) b.Ir.insts;
    match b.Ir.term with
    | Ir.Ret -> cur := None
    | Ir.Jump t -> cur := Some (Ir.find_block action t)
    | Ir.Branch (cnd, t, f) -> (
      match get cnd with
      | Fix v -> cur := Some (Ir.find_block action (if v <> 0L then t else f))
      | Fx e -> raise (Need_pin (fe_support [] e))
      | Dy _ -> raise Emitter.Dynamic_control_flow)
  done

(* --- strategy 2: dynamic control flow (mirrors Gen.run_general) -------------- *)

let run_tgeneral (c : 'v mctx) (action : Ir.action) ~pinned ~witness =
  let open Emitter in
  let em = c.mem in
  let defs = Hashtbl.create 64 in
  List.iter
    (fun b -> List.iter (fun i -> Hashtbl.replace defs i.Ir.id i.Ir.desc) b.Ir.insts)
    action.Ir.blocks;
  let var_writes = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.Ir.desc with
          | Ir.Var_write (v, x) ->
            Hashtbl.replace var_writes v
              (x :: (try Hashtbl.find var_writes v with Not_found -> []))
          | _ -> ())
        b.Ir.insts)
    action.Ir.blocks;
  (* Context-free constant analysis over the Fix/Fx half of the domain:
     where Gen folds a concrete field value, this folds the expression. *)
  let cf_memo : (Ir.id, unit tv option) Hashtbl.t = Hashtbl.create 64 in
  let rec cf_value depth id : unit tv option =
    if depth > 64 then None
    else
      match Hashtbl.find_opt cf_memo id with
      | Some r -> r
      | None ->
        Hashtbl.replace cf_memo id None (* cycle guard *);
        let r =
          match Hashtbl.find_opt defs id with
          | Some (Ir.Const c) -> Some (Fix c)
          | Some (Ir.Struct f) ->
            Some
              (match Hashtbl.find_opt pinned f with
              | Some v -> Fix v
              | None -> Fx (Ffield f))
          | Some (Ir.Binary (op, signed, a, b)) -> (
            match (cf_value (depth + 1) a, cf_value (depth + 1) b) with
            | Some x, Some y -> Some (sx_bin op signed x y)
            | _ -> None)
          | Some (Ir.Unary (op, a)) -> Option.map (sx_un op) (cf_value (depth + 1) a)
          | Some (Ir.Normalize (bits, signed, a)) ->
            Option.map (sx_norm ~bits ~signed) (cf_value (depth + 1) a)
          | Some (Ir.Select (cnd, t, f)) -> (
            match cf_value (depth + 1) cnd with
            | Some (Fix x) -> cf_value (depth + 1) (if x <> 0L then t else f)
            | Some (Fx e) -> (
              match (cf_value (depth + 1) t, cf_value (depth + 1) f) with
              | Some vt, Some vf -> Some (Fx (Fsel (e, fx_of vt, fx_of vf)))
              | _ -> None)
            | _ -> None)
          | Some (Ir.Var_read v) -> cf_var (depth + 1) v
          | _ -> None
        in
        Hashtbl.replace cf_memo id r;
        r
  and cf_var depth v =
    match Hashtbl.find_opt var_writes v with
    | Some (w :: ws) -> (
      match cf_value depth w with
      | Some cv when List.for_all (fun w' -> cf_value depth w' = Some cv) ws -> Some cv
      | _ -> None)
    | _ -> None
  in
  let def_block = Hashtbl.create 64 in
  List.iter
    (fun b -> List.iter (fun i -> Hashtbl.replace def_block i.Ir.id b.Ir.bid) b.Ir.insts)
    action.Ir.blocks;
  let cross = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let check id =
        match Hashtbl.find_opt def_block id with
        | Some d when d <> b.Ir.bid -> Hashtbl.replace cross id ()
        | _ -> ()
      in
      List.iter (fun i -> List.iter check (Ir.operands i.Ir.desc)) b.Ir.insts;
      match b.Ir.term with Ir.Branch (cnd, _, _) -> check cnd | _ -> ())
    action.Ir.blocks;
  let val_temps = Hashtbl.create 16 in
  let temp_of_val id =
    match Hashtbl.find_opt val_temps id with
    | Some t -> t
    | None ->
      let t = em.new_temp () in
      Hashtbl.replace val_temps id t;
      t
  in
  let var_temps = Hashtbl.create 8 in
  let temp_of_var v =
    match Hashtbl.find_opt var_temps v with
    | Some t -> t
    | None ->
      let t = em.new_temp () in
      Hashtbl.replace var_temps v t;
      t
  in
  let labels = Hashtbl.create 8 in
  List.iter (fun b -> Hashtbl.replace labels b.Ir.bid (em.create_block ())) action.Ir.blocks;
  let exit_label = em.create_block () in
  let label bid = Hashtbl.find labels bid in
  em.jump (label (Ir.entry_block action).Ir.bid);
  c.mclear ();
  List.iter
    (fun b ->
      em.set_block (label b.Ir.bid);
      c.mclear ();
      let env = Hashtbl.create 32 in
      let get id =
        match Hashtbl.find_opt env id with
        | Some v -> v
        | None ->
          if Hashtbl.mem def_block id then Dy (em.read_temp (temp_of_val id)) else Fix 0L
      in
      let set id v =
        Hashtbl.replace env id v;
        if Hashtbl.mem cross id then em.write_temp (temp_of_val id) (c.mmat v)
      in
      let getvar v =
        match cf_var 0 v with
        | Some (Fix cv) -> Fix cv
        | Some (Fx e) -> Fx e
        | Some (Dy ()) | None -> Dy (em.read_temp (temp_of_var v))
      in
      let setvar v x = em.write_temp (temp_of_var v) (c.mmat x) in
      List.iter (teval_inst c ~pinned ~witness ~get ~set ~getvar ~setvar) b.Ir.insts;
      (match b.Ir.term with
      | Ir.Ret -> em.jump exit_label
      | Ir.Jump t -> em.jump (label t)
      | Ir.Branch (cnd, t, f) -> (
        match get cnd with
        | Fix v -> em.jump (label (if v <> 0L then t else f))
        | Fx e -> raise (Need_pin (fe_support [] e))
        | Dy d -> em.branch d (label t) (label f)));
      c.mclear ())
    action.Ir.blocks;
  em.set_block exit_label;
  c.mclear ()

(* Probe with the null emitter (pins included) to pick the strategy. *)
let probe_ctx : unit mctx =
  {
    mem = Emitter.null;
    mmat = (fun _ -> ());
    msym_load = (fun ~bank:_ _ -> Dy ());
    msym_store = (fun ~bank:_ _ _ -> ());
    mclear = (fun () -> ());
  }

let has_tfixed action ~pinned ~witness =
  try
    run_tfixed probe_ctx action ~pinned ~witness;
    true
  with Emitter.Dynamic_control_flow -> false

(* --- fragments, mining, the table -------------------------------------------- *)

type frag = {
  f_name : string;
  f_pre : Hir.instr array;  (* vreg form, holes unpatched *)
  f_post : Hir.instr array;  (* allocated + dead-filtered, holes unpatched *)
  f_n_slots : int;
  f_vregs : int;
  f_labels : int;
  f_h64 : (int64, fexpr) Hashtbl.t;  (* sentinel constant -> expression *)
  f_hoff : (int, int * fexpr) Hashtbl.t;  (* sentinel rf offset -> bank, index *)
}


type variant = { v_pins : (string * int64) list; v_frag : frag }

type form = { mutable fo_variants : variant list; mutable fo_dead : string option }

type t = {
  t_config : mmu_on:bool -> Dag.config;
  t_bank_offset : bank:int -> index:int -> int;
  t_rf_bytes : int;
  t_forms : (string * bool * bool, form) Hashtbl.t;  (* name, ends_block, mmu *)
}

let create ~config ~rf_bytes ~insn_size =
  ignore insn_size;
  {
    t_config = config;
    t_bank_offset = (config ~mmu_on:false).Dag.bank_offset;
    t_rf_bytes = rf_bytes;
    t_forms = Hashtbl.create 64;
  }

let variant_cap = 64
let pin_cap = 16

(* Sentinel bases.  Both 64-bit bases are below 2^62, so
   [Int64.to_int] round-trips them exactly through the Inc_pc collapse;
   offset bases are far above any real register-file offset. *)
let magic64_base = 0x3E57_0000_0000_0000L
let magic64_base' = 0x3E58_0000_0000_0000L
let magic64_top = 0x3E59_0000_0000_0000L
let magicoff_base = 0x4000_0000
let magicoff_base' = 0x4800_0000

(* One symbolic pipeline run of [action]; returns the emitted stream and
   the hole tables.  Raises Need_pin / Untemplatable /
   Dag.Unsupported_lowering. *)
let mine_once t ~action ~inc_pc ~mmu_on ~pinned ~witness ~base64 ~baseoff =
  let dag = Dag.create (t.t_config ~mmu_on) in
  let em = Dag.emitter dag in
  let h64 : (int64, fexpr) Hashtbl.t = Hashtbl.create 8 in
  let h64m : (string, int64) Hashtbl.t = Hashtbl.create 8 in
  let hoff : (int, int * fexpr) Hashtbl.t = Hashtbl.create 8 in
  let hoffm : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let sym : (string, Dag.node) Hashtbl.t = Hashtbl.create 8 in
  let next64 = ref 0 and nextoff = ref 0 in
  let magic_of e =
    let k = fe_key e in
    match Hashtbl.find_opt h64m k with
    | Some m -> m
    | None ->
      let m = Int64.add base64 (Int64.of_int !next64) in
      incr next64;
      Hashtbl.replace h64m k m;
      Hashtbl.replace h64 m e;
      m
  in
  let offmagic_of ~bank e =
    let k = string_of_int bank ^ ":" ^ fe_key e in
    match Hashtbl.find_opt hoffm k with
    | Some m -> m
    | None ->
      let m = baseoff + !nextoff in
      incr nextoff;
      Hashtbl.replace hoffm k m;
      Hashtbl.replace hoff m (bank, e);
      m
  in
  let mmat = function
    | Fix c ->
      if c >= magic64_base && c < magic64_top then
        raise (Untemplatable "guest constant inside the sentinel range");
      em.Emitter.const c
    | Fx e -> em.Emitter.const (magic_of e)
    | Dy v -> v
  in
  let clear_sym () = Hashtbl.reset sym in
  let msym_load ~bank e =
    let k = string_of_int bank ^ ":" ^ fe_key e in
    match Hashtbl.find_opt sym k with
    | Some n -> Dy n
    | None ->
      let d = Dag.fresh_vreg dag in
      Dag.raw dag (Hir.Ldrf (d, offmagic_of ~bank e));
      let n = Dag.done_node dag d in
      Hashtbl.replace sym k n;
      Dy n
  in
  let msym_store ~bank e v =
    let ov = Dag.force dag (match v with Dy n -> n | other -> mmat other) in
    Dag.rf_barrier dag;
    clear_sym ();
    Dag.raw dag (Hir.Strf (offmagic_of ~bank e, ov))
  in
  let ctx = { mem = em; mmat; msym_load; msym_store; mclear = clear_sym } in
  if has_tfixed action ~pinned ~witness then run_tfixed ctx action ~pinned ~witness
  else run_tgeneral ctx action ~pinned ~witness;
  (match inc_pc with Some n -> em.Emitter.inc_pc n | None -> ());
  (Dag.finish dag, Dag.vreg_count dag, Dag.label_count dag, h64, hoff)

(* Canonicalize a mined stream for the double-mine comparison: replace
   every hole with a fixed placeholder and list the holes (position,
   kind, expression key) separately, so streams mined under different
   sentinel bases compare equal iff they are the same template. *)
let canon (stream : Hir.instr array) h64 hoff =
  let descr = ref [] in
  let arr =
    Array.mapi
      (fun k i ->
        let i =
          Hir.map_operands
            (fun o ->
              match o with
              | Hir.Imm m when Hashtbl.mem h64 m ->
                descr := (k, "i64", fe_key (Hashtbl.find h64 m)) :: !descr;
                Hir.Imm 0L
              | o -> o)
            i
        in
        match i with
        | Hir.Ldrf (d, off) when Hashtbl.mem hoff off ->
          let b, e = Hashtbl.find hoff off in
          descr := (k, Printf.sprintf "ld%d" b, fe_key e) :: !descr;
          Hir.Ldrf (d, -1)
        | Hir.Strf (off, v) when Hashtbl.mem hoff off ->
          let b, e = Hashtbl.find hoff off in
          descr := (k, Printf.sprintf "st%d" b, fe_key e) :: !descr;
          Hir.Strf (-1, v)
        | Hir.Inc_pc n when Hashtbl.mem h64 (Int64.of_int n) ->
          descr := (k, "ipc", fe_key (Hashtbl.find h64 (Int64.of_int n))) :: !descr;
          Hir.Inc_pc (-1)
        | i -> i)
      stream
  in
  (arr, List.rev !descr)

(* Mine one variant for this instance, pinning fields as structure
   demands; the instance's own field function is the witness. *)
let mine_variant t ~action ~name ~inc_pc ~mmu_on ~witness =
  let pinned : (string, int64) Hashtbl.t = Hashtbl.create 4 in
  Hashtbl.replace pinned "__el" (witness "__el");
  let rec attempt tries =
    if tries > pin_cap then raise (Untemplatable "pin budget exceeded")
    else
      match
        mine_once t ~action ~inc_pc ~mmu_on ~pinned ~witness ~base64:magic64_base
          ~baseoff:magicoff_base
      with
      | exception Need_pin fields ->
        let fresh = List.filter (fun f -> not (Hashtbl.mem pinned f)) fields in
        if fresh = [] then raise (Untemplatable "pin made no progress")
        else begin
          List.iter (fun f -> Hashtbl.replace pinned f (witness f)) fresh;
          attempt (tries + 1)
        end
      | pre, vregs, labels, h64, hoff ->
        (* Re-mine under the alternate sentinel bases: the canonical
           streams (and allocations) must agree, which rejects sentinel
           collisions and any emission or regalloc nondeterminism. *)
        let pre', _, _, h64', hoff' =
          match
            mine_once t ~action ~inc_pc ~mmu_on ~pinned ~witness ~base64:magic64_base'
              ~baseoff:magicoff_base'
          with
          | r -> r
          | exception (Need_pin _ | Untemplatable _) ->
            raise (Untemplatable "nondeterministic mining")
        in
        let ra = Regalloc.run pre in
        let ra' = Regalloc.run pre' in
        let live (r : Regalloc.result) =
          let keep = ref [] in
          Array.iteri
            (fun k i -> if not r.Regalloc.dead.(k) then keep := i :: !keep)
            r.Regalloc.instrs;
          Array.of_list (List.rev !keep)
        in
        let post = live ra and post' = live ra' in
        if
          canon pre h64 hoff <> canon pre' h64' hoff'
          || canon post h64 hoff <> canon post' h64' hoff'
          || ra.Regalloc.n_slots <> ra'.Regalloc.n_slots
        then raise (Untemplatable "sentinel collision or nondeterministic emission");
        let pins =
          List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) pinned [])
        in
        {
          v_pins = pins;
          v_frag =
            {
              f_name = name;
              f_pre = pre;
              f_post = post;
              f_n_slots = ra.Regalloc.n_slots;
              f_vregs = vregs;
              f_labels = labels;
              f_h64 = h64;
              f_hoff = hoff;
            };
        }
  in
  attempt 0

type lookup = Hit of frag | Mined of frag | Miss of string

let fragment t ~action ~name ~inc_pc ~mmu_on ~field =
  let key = (name, inc_pc = None, mmu_on) in
  let form =
    match Hashtbl.find_opt t.t_forms key with
    | Some f -> f
    | None ->
      let f = { fo_variants = []; fo_dead = None } in
      Hashtbl.replace t.t_forms key f;
      f
  in
  match form.fo_dead with
  | Some r -> Miss r
  | None -> (
    let matches v = List.for_all (fun (f, c) -> field f = c) v.v_pins in
    match List.find_opt matches form.fo_variants with
    | Some v -> Hit v.v_frag
    | None ->
      if List.length form.fo_variants >= variant_cap then Miss "variant budget exceeded"
      else begin
        match mine_variant t ~action ~name ~inc_pc ~mmu_on ~witness:field with
        | v ->
          form.fo_variants <- form.fo_variants @ [ v ];
          Mined v.v_frag
        | exception Untemplatable r ->
          form.fo_dead <- Some r;
          Miss r
        | exception Dag.Unsupported_lowering what ->
          let r = "unsupported lowering: " ^ what in
          form.fo_dead <- Some r;
          Miss r
        | exception Emitter.Dynamic_control_flow ->
          let r = "dynamic control flow escaped the probe" in
          form.fo_dead <- Some r;
          Miss r
      end)

(* --- install-time patching and stitching -------------------------------------- *)

let patch_frag t frag ~field =
  let val64 m = Option.map (fe_eval ~field) (Hashtbl.find_opt frag.f_h64 m) in
  let off m =
    match Hashtbl.find_opt frag.f_hoff m with
    | None -> None
    | Some (bank, e) ->
      let ix = Int64.to_int (fe_eval ~field e) in
      let o = t.t_bank_offset ~bank ~index:ix in
      if o < 0 || o > t.t_rf_bytes - 8 then raise Patch_failure;
      Some o
  in
  let sub i =
    let i =
      Hir.map_operands
        (fun o ->
          match o with
          | Hir.Imm m -> ( match val64 m with Some v -> Hir.Imm v | None -> o)
          | o -> o)
        i
    in
    match i with
    | Hir.Ldrf (d, m) -> ( match off m with Some o -> Hir.Ldrf (d, o) | None -> i)
    | Hir.Strf (m, v) -> ( match off m with Some o -> Hir.Strf (o, v) | None -> i)
    | Hir.Inc_pc n -> (
      match val64 (Int64.of_int n) with
      | Some v -> Hir.Inc_pc (Int64.to_int v)
      | None -> i)
    | i -> i
  in
  (Array.map sub frag.f_pre, Array.map sub frag.f_post)

let assemble t items =
  match
    let pre_acc = ref [] and post_acc = ref [] in
    let vbase = ref 0 and lbase = ref 0 and slots = ref 0 in
    List.iter
      (fun (frag, field) ->
        let pre, post = patch_frag t frag ~field in
        let vb = !vbase and lb = !lbase in
        let relv i =
          Hir.map_operands (function Hir.Vreg v -> Hir.Vreg (v + vb) | o -> o) i
        in
        let rell i = Hir.map_labels (fun l -> l + lb) i in
        Array.iter (fun i -> pre_acc := rell (relv i) :: !pre_acc) pre;
        Array.iter (fun i -> post_acc := rell i :: !post_acc) post;
        vbase := vb + frag.f_vregs;
        lbase := lb + frag.f_labels;
        if frag.f_n_slots > !slots then slots := frag.f_n_slots)
      items;
    pre_acc := Hir.Exit 0 :: !pre_acc;
    post_acc := Hir.Exit 0 :: !post_acc;
    let post = Array.of_list (List.rev !post_acc) in
    let ra =
      {
        Regalloc.instrs = post;
        dead = Array.make (Array.length post) false;
        n_slots = !slots;
        n_spilled = 0;
        n_dead = 0;
      }
    in
    (Array.of_list (List.rev !pre_acc), ra)
  with
  | r -> Some r
  | exception Patch_failure -> None
  | exception Division_by_zero -> None
