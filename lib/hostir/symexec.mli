(** Bounded symbolic execution of HostIR over a bitvector term domain.

    Programs in label form are executed over symbolic 64-bit terms; every
    path up to the configured bounds yields an {!exit_state}.  Terms are
    normalized by smart constructors whose constant folding is exactly
    the concrete executor ({!Exec}) semantics, so syntactic equality of
    normalized terms is the equivalence check used by {!Equiv}. *)

(** A leaf of the initial symbolic state. *)
type atom =
  | A_rf of int  (** initial register-file qword at byte offset *)
  | A_preg of int  (** initial host GPR *)
  | A_pc  (** initial guest PC *)
  | A_slot of int  (** initial translation-frame slot *)

(** How a helper call affects symbolic state; the shared classification
    table lives in {!Effects} (one source of truth with {!Promote} and
    {!Absint}). *)
type helper_kind = Effects.helper_kind =
  | C_pure  (** deterministic value of its arguments; not traced *)
  | C_read  (** reads environment, writes no guest state (coproc_read) *)
  | C_as_switch  (** address-space switch: writes the AS tag preg *)
  | C_event  (** externally visible event; rf/pc untouched *)
  | C_clobber  (** may rewrite rf and pc (exceptions, coproc writes) *)

type term =
  | Const of int64
  | Atom of atom
  | TAlu of Hir.aluop * term * term
  | TMulhi of bool * term * term
  | TDivrem of bool * bool * term * term
  | TCmp of Hir.cond * term * term
  | TIte of term * term * term
  | TExt of bool * int * term
  | TNeg of term
  | TNot of term
  | TBit1 of Hir.bit1op * term
  | TBit2 of Hir.bit2op * term * term
  | TFp2 of Hir.fp2op * term * term
  | TFp1 of Hir.fp1op * term
  | TFcmp of int * term * term
  | TFlagsAdd of int * term * term * term
  | TFlagsLogic of int * term
  | TLoad of int * term * int
  | TCallRet of int
  | THelperVal of int * term list
  | TRfAfter of int * int
  | TPcAfter of int
  | TAsTag of int
  | TPollFired of int

val to_string : term -> string

(** An event in a path's ordered memory/call trace. *)
type event =
  | E_store of { s_width : int; s_addr : term; s_value : term; s_pc : term }
  | E_call of {
      c_helper : int;
      c_kind : helper_kind;
      c_args : term list;
      c_pc : term;
      c_rf : (int * term) list;
      c_epoch : int;
    }

type exit_state = {
  x_slot : int;
  x_poll : bool;  (** exit taken through a fired Poll rather than Exit *)
  x_pc : term;
  x_epoch : int;  (** clobber-call ordinal the rf is relative to; -1 initial *)
  x_rf : (int * term) list;  (** ascending offset; default entries dropped *)
  x_pregs : (int * term) list;
  x_trace : event list;  (** program order *)
  x_lits : (term * bool) list;  (** sorted path condition *)
}

type outcome = {
  exits : exit_state list;
  complete : bool;  (** false when any bound was hit or a path fell off *)
  o_paths : int;
  o_steps : int;
}

(** Execute [prog] (label form: [Jmp]/[Br] carry label ids) from a fresh
    symbolic state with the given initial PC term.  [classify] assigns
    helper kinds (default: everything clobbers).  Only the matched-tag
    fast path of Dag.guarded_address AS guards is followed; exploration
    is bounded (256 paths, 20,000 steps per path, 100,000 in all, 4
    crossings of one backedge, 4,096-node terms). *)
val run :
  ?classify:(int -> helper_kind) ->
  init_pc:term ->
  Hir.instr array ->
  outcome

(** {2 Concrete evaluation (test harness)} *)

type env = {
  e_pc : int64;
  e_preg : int -> int64;
  e_rf : int -> int64;
  e_slot : int -> int64;
}

exception Unevaluable of string

(** Evaluate a term under concrete initial state; raises {!Unevaluable}
    on terms denoting memory or helper results. *)
val eval : env -> term -> int64
