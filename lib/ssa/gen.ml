(* Generator functions: translation-time partial evaluation of the
   optimized SSA (paper Sec. 2.2.3 and Fig. 7).

   Fixed operations (constants, instruction-field reads, and anything
   computed from them) are evaluated *now*, at JIT translation time; dynamic
   operations (register/memory accesses and computation over them) are
   emitted through the backend Emitter.  An unpinned field is neither: it
   stays *symbolic*, an install-time-evaluable expression (the template
   miner's holes).

   Two strategies are used per instruction instance:
   - if all control flow inside the instruction is fixed (the common case),
     a single pass partially evaluates the behaviour along the one concrete
     path, unrolling fixed loops;
   - otherwise (e.g. conditional branches testing guest flags) the whole
     CFG is materialized into backend blocks, with temporaries carrying
     values across block boundaries.  Fixed *values* are still folded.

   The choice is made by a dry run against a null emitter, which raises
   [Emitter.Dynamic_control_flow] on the first dynamic branch. *)

module Builtins = Adl.Builtins
module Eval = Adl.Eval

(* --- field expressions ------------------------------------------------------ *)

(* An install-time-evaluable computation over decode fields: exactly the
   fixed arithmetic folded at translate time, reified so one emitted
   stream serves every field assignment. *)
type fexpr =
  | Ffield of string
  | Fconst of int64
  | Fbin of Adl.Ast.binop * bool * fexpr * fexpr
  | Funop of Adl.Ast.unop * fexpr
  | Fnorm of int * bool * fexpr
  | Fsel of fexpr * fexpr * fexpr
  | Fbuiltin of string * fexpr list

exception Unsupported of string

exception Need_pin of string list

let rec eval ~field = function
  | Ffield f -> field f
  | Fconst c -> c
  | Fbin (op, signed, a, b) -> Eval.binop op ~signed (eval ~field a) (eval ~field b)
  | Funop (op, a) -> Eval.unop op (eval ~field a)
  | Fnorm (bits, signed, a) -> Eval.normalize (Adl.Ast.Tint { bits; signed }) (eval ~field a)
  | Fsel (c, x, y) -> if eval ~field c <> 0L then eval ~field x else eval ~field y
  | Fbuiltin (name, args) -> (
    match Eval.builtin name (List.map (eval ~field) args) with
    | Some v -> v
    | None -> raise (Unsupported ("builtin " ^ name ^ " does not evaluate")))

let rec key = function
  | Ffield f -> "$" ^ f
  | Fconst c -> Printf.sprintf "#%Ld" c
  | Fbin (op, s, a, b) -> Printf.sprintf "(%s%b %s %s)" (Ir.string_of_binop op) s (key a) (key b)
  | Funop (op, a) -> Printf.sprintf "(u%d %s)" (Hashtbl.hash op) (key a)
  | Fnorm (bits, s, a) -> Printf.sprintf "(n%d%b %s)" bits s (key a)
  | Fsel (c, x, y) -> Printf.sprintf "(sel %s %s %s)" (key c) (key x) (key y)
  | Fbuiltin (n, args) -> Printf.sprintf "(%s %s)" n (String.concat " " (List.map key args))

let rec support acc = function
  | Ffield f -> if List.mem f acc then acc else f :: acc
  | Fconst _ -> acc
  | Fbin (_, _, a, b) -> support (support acc a) b
  | Funop (_, a) | Fnorm (_, _, a) -> support acc a
  | Fsel (a, b, c) -> support (support (support acc a) b) c
  | Fbuiltin (_, args) -> List.fold_left support acc args

(* --- the three-way value domain --------------------------------------------- *)

type 'v value = Fixed of int64 | Sym of fexpr | Dyn of 'v

let fexpr_of = function Fixed c -> Fconst c | Sym e -> e | Dyn _ -> invalid_arg "Gen.fexpr_of"

(* Eagerly folded combinators over the non-dynamic half (callers
   guarantee no Dyn). *)
let fold_bin op signed a b =
  match (a, b) with
  | Fixed x, Fixed y -> Fixed (Eval.binop op ~signed x y)
  | _ -> Sym (Fbin (op, signed, fexpr_of a, fexpr_of b))

let fold_un op = function Fixed x -> Fixed (Eval.unop op x) | v -> Sym (Funop (op, fexpr_of v))

let fold_norm ~bits ~signed = function
  | Fixed x -> Fixed (Eval.normalize (Adl.Ast.Tint { bits; signed }) x)
  | v -> Sym (Fnorm (bits, signed, fexpr_of v))

let raise_pin e = raise (Need_pin (support [] e))

type 'v ctx = {
  em : 'v Emitter.t;
  mat : 'v value -> 'v;
  sym_load : bank:int -> fexpr -> 'v;
  sym_store : bank:int -> fexpr -> 'v -> unit;
  clear : unit -> unit;
}

(* Evaluate one SSA statement given accessors for values and variables. *)
let eval_inst (c : 'v ctx) ~field ~pinned ~get ~set ~getvar ~setvar (i : Ir.inst) =
  let open Emitter in
  let em = c.em and mat = c.mat in
  let set = set i.Ir.id in
  match i.Ir.desc with
  | Ir.Const v -> set (Fixed v)
  | Ir.Struct f -> set (if pinned f then Fixed (field f) else Sym (Ffield f))
  | Ir.Binary (op, signed, a, b) -> (
    match (get a, get b) with
    | ((Fixed _ | Sym _) as va), ((Fixed _ | Sym _) as vb) -> set (fold_bin op signed va vb)
    | va, vb -> set (Dyn (em.binary op ~signed (mat va) (mat vb))))
  | Ir.Unary (op, a) -> (
    match get a with Dyn v -> set (Dyn (em.unary op v)) | v -> set (fold_un op v))
  | Ir.Normalize (bits, signed, a) -> (
    match get a with
    | Dyn v -> set (Dyn (em.normalize ~bits ~signed v))
    | v -> set (fold_norm ~bits ~signed v))
  | Ir.Select (cnd, t, f) -> (
    match get cnd with
    | Fixed x -> set (get (if x <> 0L then t else f))
    | Sym e -> (
      match (get t, get f) with
      | ((Fixed _ | Sym _) as vt), ((Fixed _ | Sym _) as vf) ->
        set (Sym (Fsel (e, fexpr_of vt, fexpr_of vf)))
      | vt, vf ->
        (* Cmov's condition operand is value-independent in the lowering,
           so a symbolic condition needs no pin. *)
        set (Dyn (em.select (mat (Sym e)) (mat vt) (mat vf))))
    | Dyn vc -> set (Dyn (em.select vc (mat (get t)) (mat (get f)))))
  | Ir.Intrinsic (name, args) -> (
    let vals = List.map get args in
    let pure =
      match Builtins.find name with
      | Some { bi_kind = Builtins.Pure; _ } -> true
      | _ -> false
    in
    let emit () =
      (* The sign_extend lowering bakes a constant width into [Ext]: a
         symbolic width there cannot be patched, so pin its support. *)
      (match (name, vals) with "sign_extend", [ _; Sym e ] -> raise_pin e | _ -> ());
      set (Dyn (em.intrinsic name (List.map mat vals)))
    in
    if pure && List.for_all (function Fixed _ -> true | _ -> false) vals then
      match Eval.builtin name (List.map (function Fixed c -> c | _ -> assert false) vals) with
      | Some v -> set (Fixed v)
      | None -> emit ()
    else if pure && List.for_all (function Dyn _ -> false | _ -> true) vals then
      (* At least one Sym argument: fold symbolically iff the builtin
         evaluates on the field values at hand (evaluability is
         structural in name/arity, so it then evaluates for every field
         assignment). *)
      match Eval.builtin name (List.map (fun v -> eval ~field (fexpr_of v)) vals) with
      | Some _ -> set (Sym (Fbuiltin (name, List.map fexpr_of vals)))
      | None | (exception _) -> emit ()
    else emit ())
  | Ir.Bank_read (bank, idx) -> (
    match get idx with
    | Fixed ix -> set (Dyn (em.load_bankreg ~bank ~index:(Int64.to_int ix)))
    | Sym e -> set (Dyn (c.sym_load ~bank e))
    | Dyn _ -> raise (Unsupported "dynamic register-bank index"))
  | Ir.Bank_write (bank, idx, v) -> (
    match get idx with
    | Fixed ix ->
      em.store_bankreg ~bank ~index:(Int64.to_int ix) (mat (get v));
      c.clear ()
    | Sym e -> c.sym_store ~bank e (mat (get v))
    | Dyn _ -> raise (Unsupported "dynamic register-bank index"))
  | Ir.Reg_read slot -> set (Dyn (em.load_reg ~slot))
  | Ir.Reg_write (slot, v) ->
    em.store_reg ~slot (mat (get v));
    c.clear ()
  | Ir.Var_read v -> set (getvar v)
  | Ir.Var_write (v, x) -> setvar v (get x)
  | Ir.Mem_read (bits, a) -> set (Dyn (em.mem_read ~bits (mat (get a))))
  | Ir.Mem_write (bits, a, v) -> em.mem_write ~bits ~addr:(mat (get a)) ~value:(mat (get v))
  | Ir.Pc_read -> set (Dyn (em.load_pc ()))
  | Ir.Pc_write v -> em.store_pc (mat (get v))
  | Ir.Coproc_read idx -> set (Dyn (em.coproc_read (mat (get idx))))
  | Ir.Coproc_write (idx, v) ->
    em.coproc_write (mat (get idx)) (mat (get v));
    c.clear ()
  | Ir.Effect (name, args) ->
    em.effect name (List.map (fun a -> mat (get a)) args);
    c.clear ()
  | Ir.Phi _ -> raise (Unsupported "phi node reached the generator")

(* --- strategy 1: fully fixed control flow ---------------------------------- *)

let run_fixed (c : 'v ctx) (action : Ir.action) ~field ~pinned =
  let env : (Ir.id, 'v value) Hashtbl.t = Hashtbl.create 64 in
  let vars : (int, 'v value) Hashtbl.t = Hashtbl.create 8 in
  let get id = try Hashtbl.find env id with Not_found -> Fixed 0L in
  let set id v = Hashtbl.replace env id v in
  let getvar v = try Hashtbl.find vars v with Not_found -> Fixed 0L in
  let setvar v x = Hashtbl.replace vars v x in
  let fuel = ref 100_000 in
  let cur = ref (Some (Ir.entry_block action)) in
  while !cur <> None do
    let b = Option.get !cur in
    decr fuel;
    if !fuel <= 0 then raise (Unsupported "fixed loop did not terminate during unrolling");
    List.iter (eval_inst c ~field ~pinned ~get ~set ~getvar ~setvar) b.Ir.insts;
    match b.Ir.term with
    | Ir.Ret -> cur := None
    | Ir.Jump t -> cur := Some (Ir.find_block action t)
    | Ir.Branch (cnd, t, f) -> (
      match get cnd with
      | Fixed v -> cur := Some (Ir.find_block action (if v <> 0L then t else f))
      | Sym e -> raise_pin e
      | Dyn _ -> raise Emitter.Dynamic_control_flow)
  done

(* --- strategy 2: dynamic control flow --------------------------------------- *)

let run_general (c : 'v ctx) (action : Ir.action) ~field ~pinned =
  let open Emitter in
  let em = c.em in
  (* Context-free constants: values (and variables) whose contents are
     known at translation time regardless of the runtime path - constants,
     instruction fields, pure computation over them, and variables whose
     every write stores the same such constant.  Essential at low offline
     optimization levels, where register-bank indices still flow through
     helper-parameter variables.  The analysis never yields [Dyn]. *)
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
            Hashtbl.replace var_writes v (x :: (try Hashtbl.find var_writes v with Not_found -> []))
          | _ -> ())
        b.Ir.insts)
    action.Ir.blocks;
  let cf_memo : (Ir.id, unit value option) Hashtbl.t = Hashtbl.create 64 in
  let rec cf_value depth id : unit value option =
    if depth > 64 then None
    else
      match Hashtbl.find_opt cf_memo id with
      | Some r -> r
      | None ->
        Hashtbl.replace cf_memo id None (* cycle guard *);
        let r =
          match Hashtbl.find_opt defs id with
          | Some (Ir.Const c) -> Some (Fixed c)
          | Some (Ir.Struct f) -> Some (if pinned f then Fixed (field f) else Sym (Ffield f))
          | Some (Ir.Binary (op, signed, a, b)) -> (
            match (cf_value (depth + 1) a, cf_value (depth + 1) b) with
            | Some x, Some y -> Some (fold_bin op signed x y)
            | _ -> None)
          | Some (Ir.Unary (op, a)) -> Option.map (fold_un op) (cf_value (depth + 1) a)
          | Some (Ir.Normalize (bits, signed, a)) ->
            Option.map (fold_norm ~bits ~signed) (cf_value (depth + 1) a)
          | Some (Ir.Select (cnd, t, f)) -> (
            match cf_value (depth + 1) cnd with
            | Some (Fixed x) -> cf_value (depth + 1) (if x <> 0L then t else f)
            | Some (Sym e) -> (
              match (cf_value (depth + 1) t, cf_value (depth + 1) f) with
              | Some vt, Some vf -> Some (Sym (Fsel (e, fexpr_of vt, fexpr_of vf)))
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
  (* Which block defines each value, to route cross-block uses through
     temporaries. *)
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
  let temps tbl =
    fun k ->
      match Hashtbl.find_opt tbl k with
      | Some t -> t
      | None ->
        let t = em.new_temp () in
        Hashtbl.replace tbl k t;
        t
  in
  let temp_of_val = temps (Hashtbl.create 16) and temp_of_var = temps (Hashtbl.create 8) in
  let labels = Hashtbl.create 8 in
  List.iter (fun b -> Hashtbl.replace labels b.Ir.bid (em.create_block ())) action.Ir.blocks;
  let exit_label = em.create_block () in
  let label bid = Hashtbl.find labels bid in
  em.jump (label (Ir.entry_block action).Ir.bid);
  List.iter
    (fun b ->
      em.set_block (label b.Ir.bid);
      c.clear ();
      let env = Hashtbl.create 32 in
      let get id =
        match Hashtbl.find_opt env id with
        | Some v -> v
        | None ->
          if Hashtbl.mem def_block id then Dyn (em.read_temp (temp_of_val id)) else Fixed 0L
      in
      let set id v =
        Hashtbl.replace env id v;
        if Hashtbl.mem cross id then em.write_temp (temp_of_val id) (c.mat v)
      in
      let getvar v =
        match cf_var 0 v with
        | Some (Fixed cv) -> Fixed cv
        | Some (Sym e) -> Sym e
        | Some (Dyn ()) | None -> Dyn (em.read_temp (temp_of_var v))
      in
      let setvar v x = em.write_temp (temp_of_var v) (c.mat x) in
      List.iter (eval_inst c ~field ~pinned ~get ~set ~getvar ~setvar) b.Ir.insts;
      match b.Ir.term with
      | Ir.Ret -> em.jump exit_label
      | Ir.Jump t -> em.jump (label t)
      | Ir.Branch (cnd, t, f) -> (
        match get cnd with
        | Fixed v -> em.jump (label (if v <> 0L then t else f))
        | Sym e -> raise_pin e
        | Dyn d -> em.branch d (label t) (label f)))
    action.Ir.blocks;
  em.set_block exit_label;
  c.clear ()

(* --- entry points -------------------------------------------------------------- *)

let probe : unit ctx =
  {
    em = Emitter.null;
    mat = ignore;
    sym_load = (fun ~bank:_ _ -> ());
    sym_store = (fun ~bank:_ _ () -> ());
    clear = ignore;
  }

(* Dry run against the null emitter: learns whether this instance's
   control flow is fixed, and fully resolves fixed loops. *)
let fixed_control_flow action ~field ~pinned =
  try
    run_fixed probe action ~field ~pinned;
    true
  with Emitter.Dynamic_control_flow -> false

let run c action ~field ~pinned ~inc_pc =
  if fixed_control_flow action ~field ~pinned then run_fixed c action ~field ~pinned
  else run_general c action ~field ~pinned;
  match inc_pc with Some n -> c.em.Emitter.inc_pc n | None -> ()

let all_pinned _ = true

let has_fixed_control_flow action ~field = fixed_control_flow action ~field ~pinned:all_pinned

let translate (em : 'v Emitter.t) action ~field ~inc_pc =
  let symbolic _ = invalid_arg "Gen.translate: symbolic value with every field pinned" in
  let mat = function Fixed c -> em.Emitter.const c | Dyn v -> v | Sym e -> symbolic e in
  let sym_load ~bank:_ = symbolic and sym_store ~bank:_ e _ = symbolic e in
  run { em; mat; sym_load; sym_store; clear = ignore } action ~field ~pinned:all_pinned ~inc_pc

(* Translate each decoded instruction into its own freshly created backend
   (the translation validator's reference oracle: one unoptimized emission
   per instruction, no cross-instruction DAG memoization or collapse).
   [fresh] supplies a new emitter and a finalizer returning the segment. *)
let translate_isolated ~fresh items =
  List.map
    (fun (action, field, inc_pc) ->
      let em, finish = fresh () in
      translate em action ~field ~inc_pc;
      finish ())
    items
