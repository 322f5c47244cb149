(** Generator functions: translation-time partial evaluation of optimized
    SSA (paper Sec. 2.2.3 and Fig. 7).

    Fixed operations (constants, pinned instruction fields, and
    computation and control flow over them) are evaluated at translation
    time; dynamic operations are emitted through a backend
    {!Emitter.t}.  An unpinned field stays symbolic: computation over it
    folds into an {!fexpr} that the template miner turns into a patchable
    hole.  Instructions with fixed internal control flow translate along
    a single concrete path (fixed loops are unrolled); those with dynamic
    control flow (e.g. conditional branches over guest flags) are
    materialized into backend blocks with translation-time constants
    still folded.  This is the only such evaluator: {!translate} pins
    every field, [Hostir.Template]'s miner pins only what it must. *)

(** An install-time-evaluable computation over decode fields. *)
type fexpr =
  | Ffield of string
  | Fconst of int64
  | Fbin of Adl.Ast.binop * bool * fexpr * fexpr
  | Funop of Adl.Ast.unop * fexpr
  | Fnorm of int * bool * fexpr
  | Fsel of fexpr * fexpr * fexpr
  | Fbuiltin of string * fexpr list

(** Evaluate under a field assignment; raises {!Unsupported} when a
    builtin does not evaluate (and whatever {!Adl.Eval} raises). *)
val eval : field:(string -> int64) -> fexpr -> int64

(** A canonical string: equal keys iff structurally equal expressions. *)
val key : fexpr -> string

(** [support acc e] adds the fields [e] reads to [acc]. *)
val support : string list -> fexpr -> string list

(** Translation-time constant, symbolic field computation, or a backend
    value. *)
type 'v value = Fixed of int64 | Sym of fexpr | Dyn of 'v

(** Everything the evaluator needs beyond the emitter. *)
type 'v ctx = {
  em : 'v Emitter.t;
  mat : 'v value -> 'v;  (** a value as an operand *)
  sym_load : bank:int -> fexpr -> 'v;  (** register-bank read at a symbolic index *)
  sym_store : bank:int -> fexpr -> 'v -> unit;  (** register-bank write at a symbolic index *)
  clear : unit -> unit;  (** called after every register-file write and at block boundaries *)
}

(** Raised when a construct cannot be lowered (e.g. a dynamic
    register-bank index, or a fixed loop exceeding the unrolling fuel). *)
exception Unsupported of string

(** Raised when a symbolic value would steer the structure of the
    emitted code (a branch direction, a [sign_extend] width); carries the
    fields it reads, to be pinned before retrying. *)
exception Need_pin of string list

(** Translate one instruction through [ctx].  [pinned f] says whether
    field [f] is fixed at its value [field f]; [field] also decides
    whether a builtin over symbolic arguments folds.  [inc_pc] is
    [Some size] when the decode entry does not end the block, in which
    case a PC increment is appended (paper Fig. 7:
    [if (!insn.end_of_block) emitter.inc_pc(4)]). *)
val run :
  'v ctx ->
  Ir.action ->
  field:(string -> int64) ->
  pinned:(string -> bool) ->
  inc_pc:int option ->
  unit

(** Probe (against the null emitter) whether this instruction instance's
    internal control flow is entirely fixed, every field pinned. *)
val has_fixed_control_flow : Ir.action -> field:(string -> int64) -> bool

(** {!run} with every field pinned: [field] resolves instruction fields
    (including engine pseudo-fields such as [__el]). *)
val translate : 'v Emitter.t -> Ir.action -> field:(string -> int64) -> inc_pc:int option -> unit

(** Translate each decoded instruction into its own freshly created
    backend — the reference oracle for translation validation: one
    unoptimized emission per instruction, with no cross-instruction
    memoization.  [fresh] supplies a new emitter plus a finalizer that
    extracts whatever the backend produced. *)
val translate_isolated :
  fresh:(unit -> 'v Emitter.t * (unit -> 'seg)) ->
  (Ir.action * (string -> int64) * int option) list ->
  'seg list
