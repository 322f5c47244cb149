(* The domain-specific SSA form of the offline stage (paper Fig. 4/6).

   Statements are identified by integer ids; a statement that produces a
   value is referred to by its id.  Local variables of the behaviour
   language are *not* SSA values: they are accessed through Var_read /
   Var_write and only promoted to values by optimization (load coalescing
   locally; PHI analysis at O4), mirroring the paper's pipeline. *)

type id = int

type desc =
  | Const of int64
  | Struct of string (* read of a decoded-instruction field: always fixed *)
  | Binary of Adl.Ast.binop * bool (* signed *) * id * id
  | Unary of Adl.Ast.unop * id
  | Normalize of int * bool * id (* truncate/extend to width, signedness *)
  | Select of id * id * id
  | Bank_read of int * id
  | Bank_write of int * id * id
  | Reg_read of int
  | Reg_write of int * id
  | Var_read of int
  | Var_write of int * id
  | Mem_read of int * id (* width in bits *)
  | Mem_write of int * id * id (* width, addr, value *)
  | Pc_read
  | Pc_write of id
  | Coproc_read of id
  | Coproc_write of id * id
  | Intrinsic of string * id list (* pure builtins only *)
  | Effect of string * id list (* take_exception, tlb_flush, halt, ... *)
  | Phi of (int * id) list (* (predecessor block, value) *)

type term =
  | Jump of int
  | Branch of id * int * int (* condition, then-block, else-block *)
  | Ret

type inst = { id : id; mutable desc : desc }

type block = {
  bid : int;
  mutable insts : inst list; (* in execution order *)
  mutable term : term;
}

type action = {
  name : string;
  mutable blocks : block list; (* entry block first *)
  mutable next_id : int;
  mutable next_var : int;
  var_names : (int, string) Hashtbl.t;
}

let create_action name =
  { name; blocks = []; next_id = 0; next_var = 0; var_names = Hashtbl.create 8 }

let fresh_id action =
  let id = action.next_id in
  action.next_id <- id + 1;
  id

let fresh_var action name =
  let v = action.next_var in
  action.next_var <- v + 1;
  Hashtbl.replace action.var_names v name;
  v

let entry_block action = match action.blocks with [] -> invalid_arg "empty action" | b :: _ -> b

let find_block action bid =
  match List.find_opt (fun b -> b.bid = bid) action.blocks with
  | Some b -> b
  | None ->
    invalid_arg
      (Printf.sprintf "Ir.find_block: action %s has no block b_%d (blocks: %s)" action.name bid
         (String.concat " " (List.map (fun b -> Printf.sprintf "b_%d" b.bid) action.blocks)))

(* Does the statement produce a value? *)
let produces_value = function
  | Const _ | Struct _ | Binary _ | Unary _ | Normalize _ | Select _ | Bank_read _ | Reg_read _
  | Var_read _ | Mem_read _ | Pc_read | Coproc_read _ | Intrinsic _ | Phi _ ->
    true
  | Bank_write _ | Reg_write _ | Var_write _ | Mem_write _ | Pc_write _ | Coproc_write _
  | Effect _ ->
    false

(* Can the statement be removed if its value is unused?  Memory reads can
   fault or touch MMIO, so they are never removable. *)
let removable = function
  | Const _ | Struct _ | Binary _ | Unary _ | Normalize _ | Select _ | Bank_read _ | Reg_read _
  | Var_read _ | Pc_read | Intrinsic _ | Phi _ ->
    true
  | Coproc_read _ -> false (* system register reads may have side effects *)
  | Mem_read _ -> false
  | Bank_write _ | Reg_write _ | Var_write _ | Mem_write _ | Pc_write _ | Coproc_write _
  | Effect _ ->
    false

let operands = function
  | Const _ | Struct _ | Reg_read _ | Var_read _ | Pc_read -> []
  | Binary (_, _, a, b) -> [ a; b ]
  | Unary (_, a) | Normalize (_, _, a) -> [ a ]
  | Select (c, t, f) -> [ c; t; f ]
  | Bank_read (_, i) -> [ i ]
  | Bank_write (_, i, v) -> [ i; v ]
  | Reg_write (_, v) | Var_write (_, v) | Pc_write v -> [ v ]
  | Mem_read (_, a) -> [ a ]
  | Mem_write (_, a, v) -> [ a; v ]
  | Coproc_read i -> [ i ]
  | Coproc_write (i, v) -> [ i; v ]
  | Intrinsic (_, args) | Effect (_, args) -> args
  | Phi ins -> List.map snd ins

let map_operands f desc =
  match desc with
  | Const _ | Struct _ | Reg_read _ | Var_read _ | Pc_read -> desc
  | Binary (op, s, a, b) -> Binary (op, s, f a, f b)
  | Unary (op, a) -> Unary (op, f a)
  | Normalize (w, s, a) -> Normalize (w, s, f a)
  | Select (c, t, e) -> Select (f c, f t, f e)
  | Bank_read (b, i) -> Bank_read (b, f i)
  | Bank_write (b, i, v) -> Bank_write (b, f i, f v)
  | Reg_write (r, v) -> Reg_write (r, f v)
  | Var_write (v, x) -> Var_write (v, f x)
  | Pc_write v -> Pc_write (f v)
  | Mem_read (w, a) -> Mem_read (w, f a)
  | Mem_write (w, a, v) -> Mem_write (w, f a, f v)
  | Coproc_read i -> Coproc_read (f i)
  | Coproc_write (i, v) -> Coproc_write (f i, f v)
  | Intrinsic (n, args) -> Intrinsic (n, List.map f args)
  | Effect (n, args) -> Effect (n, List.map f args)
  | Phi ins -> Phi (List.map (fun (b, v) -> (b, f v)) ins)

let term_targets = function Jump b -> [ b ] | Branch (_, t, f) -> [ t; f ] | Ret -> []

let successors b = term_targets b.term

let predecessors action bid =
  List.filter (fun b -> List.mem bid (successors b)) action.blocks

(* --- renaming ----------------------------------------------------------- *)

(* Aliases a pass records while it walks an action ([from] now stands for
   [to_]).  The pass renames each statement just before it looks at it,
   and [rename_action] renames every use once at the end: the result of
   rewriting the whole action at each alias, in one walk. *)
type renaming = (id, id) Hashtbl.t

let renaming () : renaming = Hashtbl.create 8

let rec resolve (r : renaming) x =
  match Hashtbl.find_opt r x with Some y -> resolve r y | None -> x

let alias (r : renaming) action ~from ~to_ =
  if from = to_ then
    invalid_arg (Printf.sprintf "Ir.alias: s_%d -> itself in action %s" from action.name);
  Hashtbl.replace r from to_

let rename (r : renaming) i =
  if Hashtbl.length r > 0 then i.desc <- map_operands (resolve r) i.desc

let rename_action (r : renaming) action =
  if Hashtbl.length r > 0 then
    List.iter
      (fun b ->
        List.iter (rename r) b.insts;
        match b.term with
        | Branch (c, t, f) when Hashtbl.mem r c -> b.term <- Branch (resolve r c, t, f)
        | _ -> ())
      action.blocks

(* Statement count, the metric used for the Sec. 3.6.1 experiment. *)
let size action = List.fold_left (fun acc b -> acc + List.length b.insts + 1) 0 action.blocks

(* Well-formedness check: every operand must reference a defined value and
   every terminator a present block.  Runs after offline optimization. *)
let validate (action : action) =
  let defined = Hashtbl.create 64 in
  List.iter
    (fun b -> List.iter (fun i -> Hashtbl.replace defined i.id ()) b.insts)
    action.blocks;
  let block_ids = List.map (fun b -> b.bid) action.blocks in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          List.iter
            (fun o ->
              if not (Hashtbl.mem defined o) then
                invalid_arg
                  (Printf.sprintf "IR validation: %s uses undefined s_%d in block b_%d of %s"
                     (match produces_value i.desc with true -> Printf.sprintf "s_%d" i.id | false -> "stmt")
                     o b.bid action.name))
            (operands i.desc))
        b.insts;
      match b.term with
      | Jump t -> if not (List.mem t block_ids) then invalid_arg "IR validation: bad jump target"
      | Branch (c, t, f) ->
        if not (Hashtbl.mem defined c) then invalid_arg "IR validation: undefined branch condition";
        if not (List.mem t block_ids && List.mem f block_ids) then
          invalid_arg "IR validation: bad branch target"
      | Ret -> ())
    action.blocks

(* --- printing (paper Fig. 4 style) --------------------------------------- *)

let string_of_binop : Adl.Ast.binop -> string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | And -> "&" | Or -> "|" | Xor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Land -> "&&" | Lor -> "||"

let string_of_desc action d =
  let v i = Printf.sprintf "s_%d" i in
  let vs l = String.concat " " (List.map v l) in
  let var x = try Hashtbl.find action.var_names x with Not_found -> Printf.sprintf "v%d" x in
  match d with
  | Const c -> Printf.sprintf "const %Ld" c
  | Struct f -> Printf.sprintf "struct inst %s" f
  | Binary (op, signed, a, b) ->
    Printf.sprintf "binary %s%s %s %s" (string_of_binop op) (if signed then "s" else "") (v a) (v b)
  | Unary (op, a) ->
    let o = match op with Adl.Ast.Neg -> "-" | Not -> "~" | Lnot -> "!" in
    Printf.sprintf "unary %s %s" o (v a)
  | Normalize (w, signed, a) -> Printf.sprintf "%s %d %s" (if signed then "sext" else "trunc") w (v a)
  | Select (c, t, f) -> Printf.sprintf "select %s %s %s" (v c) (v t) (v f)
  | Bank_read (b, i) -> Printf.sprintf "bankregread %d %s" b (v i)
  | Bank_write (b, i, x) -> Printf.sprintf "bankregwrite %d %s %s" b (v i) (v x)
  | Reg_read r -> Printf.sprintf "regread %d" r
  | Reg_write (r, x) -> Printf.sprintf "regwrite %d %s" r (v x)
  | Var_read x -> Printf.sprintf "read %s" (var x)
  | Var_write (x, y) -> Printf.sprintf "write %s %s" (var x) (v y)
  | Mem_read (w, a) -> Printf.sprintf "memread %d %s" w (v a)
  | Mem_write (w, a, x) -> Printf.sprintf "memwrite %d %s %s" w (v a) (v x)
  | Pc_read -> "pcread"
  | Pc_write x -> Printf.sprintf "pcwrite %s" (v x)
  | Coproc_read i -> Printf.sprintf "coprocread %s" (v i)
  | Coproc_write (i, x) -> Printf.sprintf "coprocwrite %s %s" (v i) (v x)
  | Intrinsic (n, args) -> Printf.sprintf "call %s %s" n (vs args)
  | Effect (n, args) -> Printf.sprintf "effect %s %s" n (vs args)
  | Phi ins ->
    Printf.sprintf "phi %s"
      (String.concat " " (List.map (fun (b, x) -> Printf.sprintf "[b_%d: %s]" b (v x)) ins))

let to_string (action : action) =
  let buf = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string buf) "action void %s [\n" action.name;
  Hashtbl.iter (fun _ n -> Printf.ksprintf (Buffer.add_string buf) "  %s\n" n) action.var_names;
  Buffer.add_string buf "] {\n";
  List.iter
    (fun b ->
      Printf.ksprintf (Buffer.add_string buf) "  block b_%d {\n" b.bid;
      List.iter
        (fun i ->
          if produces_value i.desc then
            Printf.ksprintf (Buffer.add_string buf) "    s_%d = %s\n" i.id
              (string_of_desc action i.desc)
          else
            Printf.ksprintf (Buffer.add_string buf) "    s_%d: %s\n" i.id
              (string_of_desc action i.desc))
        b.insts;
      (match b.term with
      | Jump t -> Printf.ksprintf (Buffer.add_string buf) "    jump b_%d\n" t
      | Branch (c, t, f) ->
        Printf.ksprintf (Buffer.add_string buf) "    branch s_%d b_%d b_%d\n" c t f
      | Ret -> Buffer.add_string buf "    return\n");
      Buffer.add_string buf "  }\n")
    action.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
