(* Bounded symbolic execution of HostIR over a bitvector term domain.

   This is the engine behind translation validation (Equiv): a HostIR
   program in label form (Jmp/Br carry label ids, Label markers present)
   is executed over symbolic 64-bit terms instead of concrete values.
   Every path through the program up to configurable bounds is explored;
   each path yields an [exit_state] capturing the exit slot, the symbolic
   PC, the guest register file image, the host pregs, and the ordered
   trace of memory stores and helper calls.  Two programs are equivalent
   (up to the bounds) when their exit states match path-by-path.

   Terms are built exclusively through smart constructors that constant
   fold with exactly the semantics of the concrete executor (Exec) and
   normalize aggressively:

     - associative/commutative chains (add, and, or, xor, mul) are
       flattened, constants folded, operands sorted structurally, and
       rebuilt left-associated with the folded constant outermost;
     - mask identities ([x land 0xFF] -> zext8) and nested
       sign/zero-extension collapses track effective widths;
     - shift amounts are canonicalized mod 64, subtraction of a constant
       becomes addition of its negation (add-chain canonicalization);
     - comparisons fold on reflexivity and order their operands.

   Because both the optimized and the reference program are normalized by
   the same rules, syntactic equality of the resulting terms is the
   equivalence check -- there is no solver.  The normalization must
   therefore subsume every identity the region pipeline (Pipeline)
   exploits: identity-ALU canonicalization, copy propagation, rf
   forwarding and absint-simplify's folds; see DESIGN.md "Translation
   validation" for the argument and the known incompletenesses. *)

open Hir
module Bits = Dbt_util.Bits

(* ------------------------------------------------------------------ *)
(* Terms                                                              *)
(* ------------------------------------------------------------------ *)

type atom =
  | A_rf of int (* initial register-file qword at byte offset *)
  | A_preg of int (* initial host GPR *)
  | A_pc (* initial guest PC *)
  | A_slot of int (* initial translation-frame slot *)

(* How a helper call affects symbolic state; the shared classification
   lives in Effects (one source of truth with Promote and Absint). *)
type helper_kind = Effects.helper_kind =
  | C_pure (* deterministic value of its arguments; not traced *)
  | C_read (* reads environment, writes nothing (coproc_read) *)
  | C_as_switch (* address-space switch: writes the AS tag preg *)
  | C_event (* externally visible event; rf/pc untouched *)
  | C_clobber (* may rewrite rf and pc (exceptions, coproc writes) *)

type term =
  | Const of int64
  | Atom of atom
  | TAlu of aluop * term * term
  | TMulhi of bool * term * term
  | TDivrem of bool * bool * term * term (* signed, want_rem *)
  | TCmp of cond * term * term (* 0/1 *)
  | TIte of term * term * term
  | TExt of bool * int * term (* signed, bits *)
  | TNeg of term
  | TNot of term
  | TBit1 of bit1op * term
  | TBit2 of bit2op * term * term
  | TFp2 of fp2op * term * term
  | TFp1 of fp1op * term
  | TFcmp of int * term * term
  | TFlagsAdd of int * term * term * term
  | TFlagsLogic of int * term
  | TLoad of int * term * int
    (* width, address, trace position of the most recent event that could
       have written this address (0 = initial memory) *)
  | TCallRet of int (* result of traced call, by per-path call ordinal *)
  | THelperVal of int * term list (* pure helper applied to arguments *)
  | TRfAfter of int * int (* rf qword after clobber-call ordinal, offset *)
  | TPcAfter of int (* pc after clobber-call ordinal *)
  | TAsTag of int (* AS tag after as-switch-call ordinal *)
  | TPollFired of int (* did poll site #n fire on this path? *)

(* ------------------------------------------------------------------ *)
(* Smart constructors / normalization                                 *)
(* ------------------------------------------------------------------ *)

let ac_ident = function
  | Aadd | Aor | Axor -> 0L
  | Aand -> -1L
  | Amul -> 1L
  | _ -> assert false

let ac_absorb = function
  | Aand -> Some 0L
  | Aor -> Some (-1L)
  | Amul -> Some 0L
  | _ -> None

(* Flatten nested applications of the same AC operator into a leaf list. *)
let rec ac_leaves op t acc =
  match t with
  | TAlu (o, a, b) when o = op -> ac_leaves op a (ac_leaves op b acc)
  | _ -> t :: acc

let rec t_ext signed bits t =
  if bits >= 64 then t
  else
    match t with
    | Const c -> Const (Exec.exec_ext signed bits c)
    | TExt (_, w2, y) when bits <= w2 -> t_ext signed bits y
    | TExt (s2, w2, _) when bits > w2 && ((not s2) || signed) ->
      (* a wider extension of an already-extended value is the identity:
         after zext to w2 < bits both zext and sext leave the high bits
         zero; after sext to w2 a wider sext re-replicates the sign *)
      t
    | TCmp _ when (not signed) || bits > 1 -> t (* comparisons are 0/1 *)
    | _ -> TExt (signed, bits, t)

and t_alu op a b =
  match op with
  | Aadd | Aand | Aor | Axor | Amul -> (
    let leaves = ac_leaves op a (ac_leaves op b []) in
    let cval =
      List.fold_left
        (fun acc t -> match t with Const c -> Exec.exec_alu op acc c | _ -> acc)
        (ac_ident op) leaves
    in
    match ac_absorb op with
    | Some z when cval = z -> Const z
    | _ -> (
      let rest = List.filter (function Const _ -> false | _ -> true) leaves in
      let rest = List.sort compare rest in
      let rest =
        match op with
        | Aand | Aor ->
          (* idempotent: keep one of each run of equal leaves *)
          let rec dedup = function
            | x :: y :: tl when x = y -> dedup (y :: tl)
            | x :: tl -> x :: dedup tl
            | [] -> []
          in
          dedup rest
        | Axor ->
          (* involutive: equal pairs cancel *)
          let rec cancel = function
            | x :: y :: tl when x = y -> cancel tl
            | x :: tl -> x :: cancel tl
            | [] -> []
          in
          cancel rest
        | _ -> rest
      in
      match rest with
      | [] -> Const cval
      | hd :: tl -> (
        let core = List.fold_left (fun acc t -> TAlu (op, acc, t)) hd tl in
        if cval = ac_ident op then core
        else
          match (op, cval) with
          | Aand, 0xFFL -> t_ext false 8 core
          | Aand, 0xFFFFL -> t_ext false 16 core
          | Aand, 0xFFFF_FFFFL -> t_ext false 32 core
          | _ -> TAlu (op, core, Const cval))))
  | Asub -> (
    match (a, b) with
    | Const x, Const y -> Const (Int64.sub x y)
    | _, Const c -> t_alu Aadd a (Const (Int64.neg c))
    | _ when a = b -> Const 0L
    | _ -> TAlu (Asub, a, b))
  | Ashl | Ashr | Asar -> (
    match (a, b) with
    | Const x, Const y -> Const (Exec.exec_alu op x y)
    | _, Const c ->
      let c = Int64.logand c 63L in
      if c = 0L then a else TAlu (op, a, Const c)
    | _ -> TAlu (op, a, b))

let cond_refl = function
  | Ceq | Cule | Cuge | Csle | Csge -> 1L
  | Cne | Cult | Cugt | Cslt | Csgt -> 0L

let t_setcc c a b =
  match (a, b) with
  | Const x, Const y -> Const (if Exec.cond_holds c x y then 1L else 0L)
  | _ when a = b -> Const (cond_refl c)
  | _ -> (
    match c with
    | Ceq | Cne ->
      (* commutative: constant to the right, else structural order *)
      let a, b =
        match (a, b) with
        | Const _, _ -> (b, a)
        | _, Const _ -> (a, b)
        | _ -> if compare a b <= 0 then (a, b) else (b, a)
      in
      TCmp (c, a, b)
    | _ -> TCmp (c, a, b))

let t_cmov c a b =
  match c with
  | Const v -> if v <> 0L then a else b
  | _ -> if a = b then a else TIte (c, a, b)

let t_neg = function
  | Const c -> Const (Int64.neg c)
  | TNeg x -> x
  | t -> TNeg t

let t_not = function
  | Const c -> Const (Int64.lognot c)
  | TNot x -> x
  | t -> TNot t

let t_mulhi s a b =
  match (a, b) with Const x, Const y -> Const (Exec.exec_mulhi s x y) | _ -> TMulhi (s, a, b)

let t_divrem s r a b =
  match (a, b) with
  | Const x, Const y -> Const (Exec.exec_divrem s r x y)
  | _, Const 0L -> if r then a else Const 0L (* Exec: division by zero -> rem = a, div = 0 *)
  | _ -> TDivrem (s, r, a, b)

let t_bit1 op = function Const v -> Const (Exec.exec_bit1 op v) | t -> TBit1 (op, t)

let t_bit2 op a b =
  match (a, b) with Const x, Const y -> Const (Exec.exec_bit2 op x y) | _ -> TBit2 (op, a, b)

let t_fp2 op a b =
  match (a, b) with Const x, Const y -> Const (Exec.exec_fp2 op x y) | _ -> TFp2 (op, a, b)

let t_fp1 op = function Const v -> Const (Exec.exec_fp1 op v) | t -> TFp1 (op, t)

let t_fcmp w a b =
  match (a, b) with Const x, Const y -> Const (Exec.fcmp_nzcv w x y) | _ -> TFcmp (w, a, b)

let t_flags_add w a b cin =
  match (a, b, cin) with
  | Const x, Const y, Const ci ->
    Const (Exec.flags_add_nzcv ~width:w x y ci)
  | _ -> TFlagsAdd (w, a, b, cin)

let t_flags_logic w = function
  | Const r -> Const (Exec.flags_logic_nzcv ~width:w r)
  | t -> TFlagsLogic (w, t)

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let alu_name = function
  | Aadd -> "add"
  | Asub -> "sub"
  | Aand -> "and"
  | Aor -> "or"
  | Axor -> "xor"
  | Ashl -> "shl"
  | Ashr -> "shr"
  | Asar -> "sar"
  | Amul -> "mul"

let cond_name = function
  | Ceq -> "eq"
  | Cne -> "ne"
  | Cult -> "ult"
  | Cule -> "ule"
  | Cugt -> "ugt"
  | Cuge -> "uge"
  | Cslt -> "slt"
  | Csle -> "sle"
  | Csgt -> "sgt"
  | Csge -> "sge"

let rec to_string t =
  match t with
  | Const c -> Printf.sprintf "0x%Lx" c
  | Atom (A_rf off) -> Printf.sprintf "rf[0x%x]" off
  | Atom (A_preg r) -> Printf.sprintf "r%d" r
  | Atom A_pc -> "pc0"
  | Atom (A_slot s) -> Printf.sprintf "slot%d" s
  | TAlu (op, a, b) -> Printf.sprintf "(%s %s %s)" (alu_name op) (to_string a) (to_string b)
  | TMulhi (s, a, b) ->
    Printf.sprintf "(%s %s %s)" (if s then "smulh" else "umulh") (to_string a) (to_string b)
  | TDivrem (s, r, a, b) ->
    Printf.sprintf "(%s%s %s %s)"
      (if s then "s" else "u")
      (if r then "rem" else "div")
      (to_string a) (to_string b)
  | TCmp (c, a, b) -> Printf.sprintf "(%s %s %s)" (cond_name c) (to_string a) (to_string b)
  | TIte (c, a, b) -> Printf.sprintf "(ite %s %s %s)" (to_string c) (to_string a) (to_string b)
  | TExt (s, w, x) -> Printf.sprintf "(%sext%d %s)" (if s then "s" else "z") w (to_string x)
  | TNeg x -> Printf.sprintf "(neg %s)" (to_string x)
  | TNot x -> Printf.sprintf "(not %s)" (to_string x)
  | TBit1 (_, x) -> Printf.sprintf "(bit1 %s)" (to_string x)
  | TBit2 (_, a, b) -> Printf.sprintf "(bit2 %s %s)" (to_string a) (to_string b)
  | TFp2 (_, a, b) -> Printf.sprintf "(fp2 %s %s)" (to_string a) (to_string b)
  | TFp1 (_, x) -> Printf.sprintf "(fp1 %s)" (to_string x)
  | TFcmp (w, a, b) -> Printf.sprintf "(fcmp%d %s %s)" w (to_string a) (to_string b)
  | TFlagsAdd (w, a, b, c) ->
    Printf.sprintf "(flags_add%d %s %s %s)" w (to_string a) (to_string b) (to_string c)
  | TFlagsLogic (w, s) -> Printf.sprintf "(flags_logic%d %s)" w (to_string s)
  | TLoad (w, a, p) -> Printf.sprintf "(ld%d %s @%d)" w (to_string a) p
  | TCallRet i -> Printf.sprintf "call#%d" i
  | THelperVal (h, args) ->
    Printf.sprintf "(helper%d%s)" h
      (String.concat "" (List.map (fun a -> " " ^ to_string a) args))
  | TRfAfter (i, off) -> Printf.sprintf "rf[0x%x]@call#%d" off i
  | TPcAfter i -> Printf.sprintf "pc@call#%d" i
  | TAsTag i -> Printf.sprintf "astag@call#%d" i
  | TPollFired i -> Printf.sprintf "poll#%d" i

(* ------------------------------------------------------------------ *)
(* Concrete evaluation (for the soundness test harness)               *)
(* ------------------------------------------------------------------ *)

type env = {
  e_pc : int64;
  e_preg : int -> int64;
  e_rf : int -> int64;
  e_slot : int -> int64;
}

exception Unevaluable of string

let rec eval env t =
  match t with
  | Const c -> c
  | Atom A_pc -> env.e_pc
  | Atom (A_preg r) -> env.e_preg r
  | Atom (A_rf off) -> env.e_rf off
  | Atom (A_slot s) -> env.e_slot s
  | TAlu (op, a, b) -> Exec.exec_alu op (eval env a) (eval env b)
  | TMulhi (s, a, b) -> Exec.exec_mulhi s (eval env a) (eval env b)
  | TDivrem (s, r, a, b) -> Exec.exec_divrem s r (eval env a) (eval env b)
  | TCmp (c, a, b) -> if Exec.cond_holds c (eval env a) (eval env b) then 1L else 0L
  | TIte (c, a, b) -> if eval env c <> 0L then eval env a else eval env b
  | TExt (s, w, x) -> Exec.exec_ext s w (eval env x)
  | TNeg x -> Int64.neg (eval env x)
  | TNot x -> Int64.lognot (eval env x)
  | TBit1 (op, x) -> Exec.exec_bit1 op (eval env x)
  | TBit2 (op, a, b) -> Exec.exec_bit2 op (eval env a) (eval env b)
  | TFp2 (op, a, b) -> Exec.exec_fp2 op (eval env a) (eval env b)
  | TFp1 (op, x) -> Exec.exec_fp1 op (eval env x)
  | TFcmp (w, a, b) -> Exec.fcmp_nzcv w (eval env a) (eval env b)
  | TFlagsAdd (w, a, b, c) -> Exec.flags_add_nzcv ~width:w (eval env a) (eval env b) (eval env c)
  | TFlagsLogic (w, s) -> Exec.flags_logic_nzcv ~width:w (eval env s)
  | TPollFired _ -> 0L (* the harness runs with poll budgets that never fire *)
  | TLoad _ | TCallRet _ | THelperVal _ | TRfAfter _ | TPcAfter _ | TAsTag _ ->
    raise (Unevaluable (to_string t))

(* ------------------------------------------------------------------ *)
(* Substitution (path-condition rewriting)                            *)
(* ------------------------------------------------------------------ *)

(* Replace term [x] with constant [c] everywhere in [t], re-normalizing
   through the smart constructors.  Used when a branch pins a term to a
   constant (e.g. a dispatch compare pinning the symbolic PC): downstream
   computation then folds identically on both programs. *)
let rec subst x c t =
  if t = x then Const c
  else
    match t with
    | Const _ | Atom _ | TCallRet _ | TRfAfter _ | TPcAfter _ | TAsTag _ | TPollFired _ -> t
    | TAlu (op, a, b) -> t_alu op (subst x c a) (subst x c b)
    | TMulhi (s, a, b) -> t_mulhi s (subst x c a) (subst x c b)
    | TDivrem (s, r, a, b) -> t_divrem s r (subst x c a) (subst x c b)
    | TCmp (cc, a, b) -> t_setcc cc (subst x c a) (subst x c b)
    | TIte (cc, a, b) -> t_cmov (subst x c cc) (subst x c a) (subst x c b)
    | TExt (s, w, y) -> t_ext s w (subst x c y)
    | TNeg y -> t_neg (subst x c y)
    | TNot y -> t_not (subst x c y)
    | TBit1 (op, y) -> t_bit1 op (subst x c y)
    | TBit2 (op, a, b) -> t_bit2 op (subst x c a) (subst x c b)
    | TFp2 (op, a, b) -> t_fp2 op (subst x c a) (subst x c b)
    | TFp1 (op, y) -> t_fp1 op (subst x c y)
    | TFcmp (w, a, b) -> t_fcmp w (subst x c a) (subst x c b)
    | TFlagsAdd (w, a, b, ci) -> t_flags_add w (subst x c a) (subst x c b) (subst x c ci)
    | TFlagsLogic (w, s) -> t_flags_logic w (subst x c s)
    | TLoad (w, a, p) -> TLoad (w, subst x c a, p)
    | THelperVal (h, args) -> THelperVal (h, List.map (subst x c) args)

let apply_rw rw t = List.fold_left (fun t (x, c) -> subst x c t) t rw

(* ------------------------------------------------------------------ *)
(* Symbolic state                                                     *)
(* ------------------------------------------------------------------ *)

module Imap = Map.Make (Int)

type event =
  | E_store of { s_width : int; s_addr : term; s_value : term; s_pc : term }
  | E_call of {
      c_helper : int;
      c_kind : helper_kind;
      c_args : term list;
      c_pc : term;
      c_rf : (int * term) list; (* canonicalized rf snapshot at the call *)
      c_epoch : int;
    }

type exit_state = {
  x_slot : int;
  x_poll : bool; (* exit taken through a fired Poll rather than Exit *)
  x_pc : term;
  x_epoch : int; (* clobber-call ordinal the rf is relative to; -1 initial *)
  x_rf : (int * term) list; (* ascending offset; default-valued entries dropped *)
  x_pregs : (int * term) list;
  x_trace : event list; (* program order *)
  x_lits : (term * bool) list; (* sorted path condition: the path's identity *)
}

(* Exploration bounds.  Every step is O(max_term_nodes) in the worst
   case, so the step and term budgets multiply; these keep a
   pathological program (loop-carried term growth, e.g. chained xor/bit2
   over loads) under a second while leaving real tier-0 blocks and early
   region iterations far inside the bounds. *)
let max_paths = 256
let max_steps_per_path = 20_000
let max_total_steps = 100_000

(* k-bounded unrolling: a path that crosses the same backedge more than
   this many times is abandoned (complete=false). *)
let max_loop_iters = 4

(* Abandon a path when a term stored into its state exceeds this tree
   size.  Terms are DAGs in memory, but normalization and the structural
   equality the equivalence check rests on walk them as trees; repeated
   self-combination (x' = f(x, x) chains, loop iterations) makes that
   walk exponential without this cap. *)
let max_term_nodes = 4_096

(* Per-step tracing for debugging validator stalls (SYMEXEC_TRACE=1). *)
let trace_steps = lazy (Sys.getenv_opt "SYMEXEC_TRACE" <> None)

(* Path abandoned because a state term outgrew [max_term_nodes]. *)
exception Blowup

(* Walk up to [budget] tree nodes of [t]; raise {!Blowup} if the walk
   doesn't finish.  O(budget) even on exponentially-shared DAGs. *)
let check_size budget t =
  let rec go budget t =
    if budget <= 0 then raise Blowup
    else
      match t with
      | Const _ | Atom _ | TCallRet _ | TRfAfter _ | TPcAfter _ | TAsTag _ | TPollFired _ ->
        budget - 1
      | TNeg s | TNot s | TBit1 (_, s) | TFp1 (_, s) | TFlagsLogic (_, s) | TExt (_, _, s)
      | TLoad (_, s, _) ->
        go (budget - 1) s
      | TAlu (_, a, b)
      | TMulhi (_, a, b)
      | TDivrem (_, _, a, b)
      | TCmp (_, a, b)
      | TBit2 (_, a, b)
      | TFp2 (_, a, b)
      | TFcmp (_, a, b) ->
        go (go (budget - 1) a) b
      | TIte (a, b, c) | TFlagsAdd (_, a, b, c) -> go (go (go (budget - 1) a) b) c
      | THelperVal (_, args) -> List.fold_left go (budget - 1) args
  in
  ignore (go budget t)

type outcome = { exits : exit_state list; complete : bool; o_paths : int; o_steps : int }

type path = {
  p_idx : int;
  p_vregs : term Imap.t;
  p_pregs : term Imap.t;
  p_slots : term Imap.t;
  p_rf : term Imap.t;
  p_epoch : int;
  p_pc : term;
  p_trace : event list; (* reversed *)
  p_ntrace : int;
  p_calls : int; (* traced-call ordinal counter *)
  p_polls : int; (* poll-site ordinal counter *)
  p_lits : (term * bool) list;
  p_rw : (term * int64) list; (* rewrites implied by the path condition *)
  p_steps : int;
  p_back : int Imap.t; (* backedge-target index -> times taken (k-bounding) *)
}

let rw_event x c = function
  | E_store s ->
    E_store
      { s with s_addr = subst x c s.s_addr; s_value = subst x c s.s_value; s_pc = subst x c s.s_pc }
  | E_call cl ->
    E_call
      {
        cl with
        c_args = List.map (subst x c) cl.c_args;
        c_pc = subst x c cl.c_pc;
        c_rf = List.map (fun (o, t) -> (o, subst x c t)) cl.c_rf;
      }

let add_rewrite p x c =
  match x with
  | Const _ -> p
  | _ ->
    let sb = subst x c in
    {
      p with
      p_vregs = Imap.map sb p.p_vregs;
      p_pregs = Imap.map sb p.p_pregs;
      p_slots = Imap.map sb p.p_slots;
      p_rf = Imap.map sb p.p_rf;
      p_pc = sb p.p_pc;
      p_trace = List.map (rw_event x c) p.p_trace;
      p_rw = p.p_rw @ [ (x, c) ];
    }

(* Record a path literal [t <> 0 = b]; equality literals additionally
   rewrite the term to its pinned constant throughout the state so that
   later computation normalizes identically on both programs being
   compared. *)
let with_lit p t b =
  let p = { p with p_lits = (t, b) :: p.p_lits } in
  match (t, b) with
  | TCmp (Ceq, x, Const c), true | TCmp (Cne, x, Const c), false -> add_rewrite p x c
  | TCmp (Ceq, Const c, x), true | TCmp (Cne, Const c, x), false -> add_rewrite p x c
  | (TCmp _ | TPollFired _), _ -> p
  | x, false -> add_rewrite p x 0L
  | _ -> p

(* A branch condition as a canonical literal term and its polarity:
   [c <> 0] holds iff [(t <> 0) = pos].  Comparisons with zero are
   stripped and [ne] becomes a flipped [eq], so a branch on [x], on
   [x != 0] and an inverted branch on [x == 0] all record the same
   literal and reach the same path key. *)
let rec canon_cond t pos =
  match t with
  | TCmp (Cne, x, Const 0L) -> canon_cond x pos
  | TCmp (Ceq, x, Const 0L) -> canon_cond x (not pos)
  | TCmp (Cne, a, b) -> (TCmp (Ceq, a, b), not pos)
  | _ -> (t, pos)

(* Take a branch on [c] in direction [taken]. *)
let with_cond p c taken =
  let t, pos = canon_cond c true in
  with_lit p t (taken = pos)

(* The direction of a branch on [c] if the path already decided it. *)
let known_cond p c =
  let t, pos = canon_cond c true in
  Option.map (fun (_, b) -> b = pos) (List.find_opt (fun (t', _) -> t' = t) p.p_lits)

(* ------------------------------------------------------------------ *)
(* Memory log                                                         *)
(* ------------------------------------------------------------------ *)

(* Decompose an address into (symbolic base, constant byte displacement);
   normalization guarantees a folded Const sits rightmost in add chains. *)
let addr_base t =
  match t with
  | Const c -> (None, c)
  | TAlu (Aadd, x, Const c) -> (Some x, c)
  | _ -> (Some t, 0L)

let ranges_disjoint o1 w1 o2 w2 =
  let e1 = Int64.add o1 (Int64.of_int (w1 / 8)) in
  let e2 = Int64.add o2 (Int64.of_int (w2 / 8)) in
  Int64.compare e1 o2 <= 0 || Int64.compare e2 o1 <= 0

let provably_disjoint a1 w1 a2 w2 =
  match (addr_base a1, addr_base a2) with
  | (None, o1), (None, o2) -> ranges_disjoint o1 w1 o2 w2
  | (Some b1, o1), (Some b2, o2) when b1 = b2 -> ranges_disjoint o1 w1 o2 w2
  | _ -> false

(* Resolve a load against the store log: forward an exact-match store,
   skip provably-disjoint stores and non-clobbering calls, and otherwise
   produce an opaque [TLoad] pinned to the blocking event's position. *)
let mem_load p w addr =
  let rec scan evs pos =
    match evs with
    | [] -> TLoad (w, addr, 0)
    | E_store s :: rest ->
      if s.s_width = w && s.s_addr = addr then s.s_value
      else if provably_disjoint addr w s.s_addr s.s_width then scan rest (pos - 1)
      else TLoad (w, addr, pos)
    | E_call c :: rest -> if c.c_kind = C_clobber then TLoad (w, addr, pos) else scan rest (pos - 1)
  in
  scan p.p_trace p.p_ntrace

(* ------------------------------------------------------------------ *)
(* State reads / writes                                               *)
(* ------------------------------------------------------------------ *)

let rf_default p off =
  apply_rw p.p_rw (if p.p_epoch < 0 then Atom (A_rf off) else TRfAfter (p.p_epoch, off))

let rf_rd p off = match Imap.find_opt off p.p_rf with Some t -> t | None -> rf_default p off

let rd p (o : operand) =
  match o with
  | Imm v -> Const v
  | Vreg v -> (
    match Imap.find_opt v p.p_vregs with
    | Some t -> t
    (* Uninitialized generator variables read as 0 (Gen's Fixed 0L default);
       the concrete executor's vreg file is likewise zero-initialized. *)
    | None -> Const 0L)
  | Preg r -> (
    match Imap.find_opt r p.p_pregs with Some t -> t | None -> apply_rw p.p_rw (Atom (A_preg r)))
  | Slot s -> (
    match Imap.find_opt s p.p_slots with Some t -> t | None -> apply_rw p.p_rw (Atom (A_slot s)))

let wr p (o : operand) t =
  match o with
  | Vreg v -> { p with p_vregs = Imap.add v t p.p_vregs }
  | Preg r -> { p with p_pregs = Imap.add r t p.p_pregs }
  | Slot s -> { p with p_slots = Imap.add s t p.p_slots }
  | Imm _ -> invalid_arg "Symexec: write to immediate"

let canon_rf p =
  Imap.fold (fun off t acc -> if t = rf_default p off then acc else (off, t) :: acc) p.p_rf []
  |> List.rev

let canon_pregs p =
  Imap.fold
    (fun r t acc -> if t = apply_rw p.p_rw (Atom (A_preg r)) then acc else (r, t) :: acc)
    p.p_pregs []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* The executor                                                       *)
(* ------------------------------------------------------------------ *)

(* Recognize the address-space guard from Dag.guarded_address: a Cne
   compare whose operand is [addr >> 47].  The validator follows only
   the matched-tag fast path (the slow path calls
   the as-switch helper and re-runs the same masked access, so validating
   it adds nothing but paths). *)
let is_as_guard t =
  let shift47 = function TAlu ((Ashr | Asar), _, Const 47L) -> true | _ -> false in
  match t with TCmp (Cne, a, b) -> shift47 a || shift47 b | _ -> false

let run ?(classify = fun _ -> C_clobber) ~init_pc (prog : instr array) : outcome =
  let n = Array.length prog in
  let labels = Hashtbl.create 16 in
  Array.iteri
    (fun i ins ->
      match ins with
      | Label l -> if not (Hashtbl.mem labels l) then Hashtbl.add labels l i
      | _ -> ())
    prog;
  let wb = Array.fold_left (fun acc ins -> match ins with Wbmap m -> m | _ -> acc) [||] prog in
  let exits = ref [] in
  let complete = ref true in
  let steps = ref 0 in
  let paths_started = ref 1 in
  let pending = ref [] in
  let apply_wb p =
    Array.fold_left (fun p (o, off) -> { p with p_rf = Imap.add off (rd p o) p.p_rf }) p wb
  in
  let finish p slot ~poll =
    let p = apply_wb p in
    exits :=
      {
        x_slot = slot;
        x_poll = poll;
        x_pc = p.p_pc;
        x_epoch = p.p_epoch;
        x_rf = canon_rf p;
        x_pregs = canon_pregs p;
        x_trace = List.rev p.p_trace;
        x_lits = List.sort compare p.p_lits;
      }
      :: !exits
  in
  let rec drive p =
    if p.p_steps > max_steps_per_path || !steps > max_total_steps then
      complete := false
    else if p.p_idx >= n || p.p_idx < 0 then complete := false (* fell off the program *)
    else begin
      incr steps;
      if Lazy.force trace_steps then
        Printf.eprintf "symexec: step %d idx %d: %s\n%!" !steps p.p_idx
          (Hir.to_string prog.(p.p_idx));
      let p = { p with p_steps = p.p_steps + 1 } in
      let next = p.p_idx + 1 in
      let guard t =
        check_size max_term_nodes t;
        t
      in
      let assign d t = drive { (wr p d (guard (apply_rw p.p_rw t))) with p_idx = next } in
      (* Control transfer to instruction [i]; backward edges are
         k-bounded so loop-carried terms stay tractable. *)
      let jump p i =
        if i <= p.p_idx then begin
          let c = match Imap.find_opt i p.p_back with Some c -> c | None -> 0 in
          if c + 1 > max_loop_iters then complete := false
          else drive { p with p_idx = i; p_back = Imap.add i (c + 1) p.p_back }
        end
        else drive { p with p_idx = i }
      in
      match prog.(p.p_idx) with
      | Label _ | Wbmap _ -> drive { p with p_idx = next }
      | Mov (d, s) -> assign d (rd p s)
      | Alu (op, d, a, b) -> assign d (t_alu op (rd p a) (rd p b))
      | Mulhi (s, d, a, b) -> assign d (t_mulhi s (rd p a) (rd p b))
      | Divrem (s, r, d, a, b) -> assign d (t_divrem s r (rd p a) (rd p b))
      | Setcc (c, d, a, b) -> assign d (t_setcc c (rd p a) (rd p b))
      | Cmov (d, c, a, b) -> assign d (t_cmov (rd p c) (rd p a) (rd p b))
      | Ext (s, w, d, src) -> assign d (t_ext s w (rd p src))
      | Neg (d, s) -> assign d (t_neg (rd p s))
      | Not (d, s) -> assign d (t_not (rd p s))
      | Bit1 (op, d, s) -> assign d (t_bit1 op (rd p s))
      | Bit2 (op, d, a, b) -> assign d (t_bit2 op (rd p a) (rd p b))
      | Fp2 (op, d, a, b) -> assign d (t_fp2 op (rd p a) (rd p b))
      | Fp1 (op, d, s) -> assign d (t_fp1 op (rd p s))
      | Fcmp_flags (w, d, a, b) -> assign d (t_fcmp w (rd p a) (rd p b))
      | Flags_add (w, d, a, b, c) -> assign d (t_flags_add w (rd p a) (rd p b) (rd p c))
      | Flags_logic (w, d, s) -> assign d (t_flags_logic w (rd p s))
      | Ldrf (d, off) -> assign d (rf_rd p off)
      | Strf (off, s) -> drive { p with p_rf = Imap.add off (guard (rd p s)) p.p_rf; p_idx = next }
      | Load_pc d -> assign d p.p_pc
      | Store_pc s -> drive { p with p_pc = guard (rd p s); p_idx = next }
      | Inc_pc k ->
        let pc = guard (apply_rw p.p_rw (t_alu Aadd p.p_pc (Const (Int64.of_int k)))) in
        drive { p with p_pc = pc; p_idx = next }
      | Mem_ld (w, d, a) -> assign d (mem_load p w (rd p a))
      | Mem_st (w, a, v) ->
        let addr = rd p a in
        let value = if w >= 64 then rd p v else t_ext false w (rd p v) in
        let ev = E_store { s_width = w; s_addr = addr; s_value = value; s_pc = p.p_pc } in
        drive { p with p_trace = ev :: p.p_trace; p_ntrace = p.p_ntrace + 1; p_idx = next }
      | Call (h, args, ret) -> (
        let kind = classify h in
        let argts = Array.to_list (Array.map (rd p) args) in
        match kind with
        | C_pure -> (
          let v = THelperVal (h, argts) in
          match ret with Some d -> assign d v | None -> drive { p with p_idx = next })
        | _ -> (
          let ord = p.p_calls in
          (* A barrier helper reads the raw register file, which the
             promoter flushed before the call.  Any other traced helper
             (the address-space switch) cannot observe it, and promoted
             registers may still be dirty across it: snapshot the
             architectural file, the raw one with the writeback map
             applied as at an exit, so the guest state at the call is
             still compared in full. *)
          let arch = if Effects.barrier kind then p else apply_wb p in
          let ev =
            E_call
              {
                c_helper = h;
                c_kind = kind;
                c_args = argts;
                c_pc = p.p_pc;
                c_rf = canon_rf arch;
                c_epoch = p.p_epoch;
              }
          in
          let p =
            { p with p_trace = ev :: p.p_trace; p_ntrace = p.p_ntrace + 1; p_calls = ord + 1 }
          in
          let p =
            match kind with
            | C_clobber -> { p with p_rf = Imap.empty; p_epoch = ord; p_pc = TPcAfter ord }
            | C_as_switch -> { p with p_pregs = Imap.add Dag.as_tag_preg (TAsTag ord) p.p_pregs }
            | _ -> p
          in
          let next = p.p_idx + 1 in
          match ret with
          | Some d -> drive { (wr p d (TCallRet ord)) with p_idx = next }
          | None -> drive { p with p_idx = next }))
      | Jmp l -> (
        match Hashtbl.find_opt labels l with
        | Some i -> jump p i
        | None -> complete := false)
      | Br (c, t, f) -> (
        let goto p b =
          match Hashtbl.find_opt labels (if b then t else f) with
          | Some i -> jump p i
          | None -> complete := false
        in
        let cv = rd p c in
        match cv with
        | Const v -> goto p (v <> 0L)
        | _ -> (
          match known_cond p cv with
          | Some b -> goto p b
          | None ->
            if is_as_guard cv then goto (with_cond p cv false) false
            else begin
              if !paths_started < max_paths then begin
                incr paths_started;
                pending := with_cond { p with p_idx = p.p_idx } cv false :: !pending
                (* the stashed path re-executes the Br, now resolved by its lit *)
              end
              else complete := false;
              goto (with_cond p cv true) true
            end))
      | Exit slot -> finish p slot ~poll:false
      | Poll slot ->
        let k = p.p_polls in
        let t = TPollFired k in
        finish (with_lit p t true) slot ~poll:true;
        drive (with_lit { p with p_polls = k + 1; p_idx = next } t false)
    end
  in
  let initial =
    {
      p_idx = 0;
      p_vregs = Imap.empty;
      p_pregs = Imap.empty;
      p_slots = Imap.empty;
      p_rf = Imap.empty;
      p_epoch = -1;
      p_pc = init_pc;
      p_trace = [];
      p_ntrace = 0;
      p_calls = 0;
      p_polls = 0;
      p_lits = [];
      p_rw = [];
      p_steps = 0;
      p_back = Imap.empty;
    }
  in
  pending := [ initial ];
  let rec drain () =
    match !pending with
    | [] -> ()
    | p :: rest ->
      pending := rest;
      (try drive p with Blowup -> complete := false);
      drain ()
  in
  drain ();
  { exits = List.rev !exits; complete = !complete; o_paths = !paths_started; o_steps = !steps }
