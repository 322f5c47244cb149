(** Forward abstract interpretation over SSA actions.

    Values live in the shared known-bits x interval domain
    {!Dbt_util.Absval}.  Decode-instruction fields are seeded from the
    architecture context (a field of width [w] starts as [[0, 2^w-1]]
    with the high bits known-zero), so proofs hold for every decoding of
    the instruction class.  Loop heads widen, keeping loop analysis
    convergent while preserving width facts.

    Consumers: the O3 [absint-simplify] pass body ({!simplify}), the
    per-action translation validator ({!validate}) and the out-of-range
    access checker ({!check_ranges}); all three are wired into
    [captive_run lint]. *)

(** Architecture facts consumed by the analysis.  {!Opt.context} is a
    re-export of this type, constructed by [Offline.opt_context]. *)
type ctx = {
  field_widths : (string * int) list;  (** decode-pattern field widths *)
  bank_widths : (int * int) list;  (** bank index -> element width *)
  slot_widths : (int * int) list;
  bank_counts : (int * int) list;  (** bank index -> number of elements *)
  slot_indices : int list;  (** declared register slot indices *)
}

val no_ctx : ctx

(** {1 Transfer functions} (exposed for the property tests) *)

(** ADL operators on the shared domain; constant operands fold through
    {!Adl.Eval}. *)
val binary : Adl.Ast.binop -> signed:bool -> Dbt_util.Absval.t -> Dbt_util.Absval.t -> Dbt_util.Absval.t

val unary : Adl.Ast.unop -> Dbt_util.Absval.t -> Dbt_util.Absval.t

(** Abstract result of a builtin call (exact when pure with singleton
    arguments, else bounded by {!intrinsic_width}). *)
val intrinsic : string -> Dbt_util.Absval.t list -> Dbt_util.Absval.t

(** Upper bound on the significant result bits of a builtin; shared with
    the optimizer's width analysis. *)
val intrinsic_width : string -> int

(** {1 Whole-action analysis} *)

type verdict = Always | Never | Unknown

(** The fixpoint result: per-statement abstract values, block
    reachability and branch verdicts. *)
type summary

(** Run the forward fixpoint over the action's CFG.
    @raise Invalid_argument if no fixpoint is reached (a bug). *)
val analyze : ?ctx:ctx -> Ir.action -> summary

(** Abstract value of a statement id (bottom if never reached). *)
val value : summary -> Ir.id -> Dbt_util.Absval.t

val block_reachable : summary -> int -> bool

(** Verdict for the branch terminating the given block. *)
val branch_verdict : summary -> int -> verdict

(** {1 Findings} *)

type finding = {
  f_action : string;
  f_stmt : Ir.id option;
  f_block : int option;
  f_msg : string;
}

val string_of_finding : finding -> string

(** Translation validation of [optimized] against its unoptimized
    [reference] (statement ids are stable across the pass pipeline).
    Returns the findings plus the number of statements compared.
    Optional summaries avoid re-analysis when the caller already has
    them. *)
val validate :
  ?ctx:ctx ->
  ?ref_summary:summary ->
  ?opt_summary:summary ->
  reference:Ir.action ->
  optimized:Ir.action ->
  unit ->
  finding list * int

(** Prove every bank index within the declared element count and every
    slot access against a declared slot.  Returns findings plus the
    number of accesses checked.  Accesses in unreachable blocks are
    vacuously in range; banks/slots absent from an empty context are
    skipped. *)
val check_ranges : ?ctx:ctx -> ?summary:summary -> Ir.action -> finding list * int

(** {1 The absint-simplify pass body} *)

type simplify_stats = {
  mutable branches_folded : int;
  mutable stmts_folded : int;
  mutable masks_dropped : int;
}

(** Cumulative counters for {!simplify} activity (reported by the lint
    driver's JSON output). *)
val simplify_stats : simplify_stats

val reset_simplify_stats : unit -> unit

(** One application of the analysis-driven simplification: fold
    fully-known statements to constants, drop provably redundant masks
    and extensions, and fold decided branches.  {!Opt} registers it as
    the O3 pass [absint-simplify]. *)
val simplify : ctx -> Ir.action -> bool
