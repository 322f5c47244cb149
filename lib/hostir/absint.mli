(** Forward abstract interpretation over label-form HostIR streams.

    A dataflow framework over the {!Cfg} CFG with the shared
    known-bits x interval value domain ({!Dbt_util.Absval}), mapping
    every storage location the executor models (vregs, host GPRs, spill
    slots, register-file qwords, the PC register) to an abstract value.  Every transfer function
    over-approximates the concrete executor ({!Exec}) exactly; helper
    calls are interpreted through the shared {!Effects} classification.

    Consumers: {!check_translation} (the static obligation checker run
    by the engine over every translation when [config.check] is set),
    {!fold} (the head of the O4 absint-simplify region stage), and
    {!Verify.check_wb} (which delegates its promoted-register discipline
    fixpoint to {!check_wb}). *)

(** {1 Abstract state and transfer} *)

module Imap : Map.S with type key = int

type state = {
  s_vregs : Dbt_util.Absval.t Imap.t;
  s_pregs : Dbt_util.Absval.t Imap.t;
  s_slots : Dbt_util.Absval.t Imap.t;
  s_rf : Dbt_util.Absval.t Imap.t;  (** register-file qwords, by byte offset *)
  s_pc : Dbt_util.Absval.t;
}
(** Absent entries are implicitly [top]. *)

val state_top : state
val state_join : state -> state -> state
val state_widen : state -> state -> state
val state_equal : state -> state -> bool
val read : state -> Hir.operand -> Dbt_util.Absval.t
val write : state -> Hir.operand -> Dbt_util.Absval.t -> state
val rf_read : state -> int -> Dbt_util.Absval.t

val rf_write : state -> int -> Dbt_util.Absval.t -> state
(** Strong update of one register-file qword, invalidating any
    overlapping tracked entries. *)

val transfer : classify:(int -> Effects.helper_kind) -> state -> Hir.instr -> state
(** One-instruction abstract step, exactly over-approximating {!Exec}. *)

(** {1 CFG fixpoint} *)

type facts = {
  f_instrs : Hir.instr array;
  f_cfg : Cfg.t;
  f_entry : state option array;  (** block entry states; [None] = unreachable *)
  f_classify : int -> Effects.helper_kind;
}

val analyze :
  ?classify:(int -> Effects.helper_kind) -> ?entry:state -> Hir.instr array -> facts
(** {!Cfg.forward} fixpoint from block 0, widening at {!Cfg.loop_heads}.
    [classify] defaults to treating every helper as a clobber; [entry]
    defaults to the all-top state. *)

val iter_facts : facts -> (int -> state -> Hir.instr -> unit) -> unit
(** Walk every reachable instruction with the abstract state immediately
    before it. *)

(** {1 Obligation checking} *)

val rf_bytes : int
(** Size of the guest register file in bytes (8 KiB). *)

type obligation =
  | Ob_rf_oob  (** [Ldrf]/[Strf]/[Wbmap] offset outside the register file *)
  | Ob_rf_align  (** register-file offset not 8-byte aligned *)
  | Ob_frame_oob  (** spill-slot index outside the allocated frame *)
  | Ob_dirty_call  (** helper call reachable with a dirty promoted vreg *)
  | Ob_wb_coverage  (** escape reachable with an uncovered dirty vreg *)
  | Ob_stale_use  (** use/writeback of a possibly-overtaken promoted vreg *)
  | Ob_wb_shape  (** malformed writeback map *)

val obligation_name : obligation -> string

type finding = {
  f_index : int option;  (** instruction index in the stream, if any *)
  f_class : obligation;
  f_msg : string;
}

val finding_to_string : finding -> string

val check_rf_bounds : Hir.instr array -> finding list
(** Every register-file access in-bounds and 8-byte aligned. *)

val check_frame : n_slots:int -> Hir.instr array -> finding list
(** Every spill-slot operand inside the allocated frame
    (post-allocation streams). *)

val check_wb :
  ?classify:(int -> Effects.helper_kind) ->
  promoted:(int * int) list ->
  Hir.instr array ->
  finding list
(** Promoted-register discipline and writeback coverage: the forward
    may-analysis over dirty/stale promoted vregs on the region CFG
    (the engine of {!Verify.check_wb}).  Helpers that are not an
    {!Effects.barrier} ([C_pure], [C_as_switch]) are transparent; by
    default every helper is a barrier.  A constant
    move into a promoted vreg right after a barrier that leaves the
    register file alone, whose slot the {!analyze} facts pin to the same
    constant, is a reload (what {!fold} folds a reload into). *)

val check_translation :
  ?classify:(int -> Effects.helper_kind) ->
  ?promoted:(int * int) list ->
  ?n_slots:int ->
  Hir.instr array ->
  finding list
(** The full obligation suite for one translation: register-file
    bounds, frame bounds (when [n_slots] is given), and writeback
    discipline (when [promoted] is non-empty). *)

(** {1 absint-simplify's passes}

    The O4 absint-simplify stage runs on the flattened promoted region
    stream before register allocation: {!fold}, then {!dead_code}, then
    the control-flow tail {!Pipeline} declares, with {!copy_prop} and a
    second {!dead_code} among it. *)

val fold :
  ?classify:(int -> Effects.helper_kind) ->
  Hir.instr array ->
  Hir.instr array * int * int * int
(** The fact-driven folds, from one {!analyze}: a [Br] whose condition
    the facts decide becomes a [Jmp], a pure result they pin to one
    value a constant move, and an [And] mask or extension they prove
    redundant a move.  Returns the stream and the numbers of branches,
    constants and masks folded. *)

val dead_code : Hir.instr array -> Hir.instr array
(** Delete pure definitions of vregs dead at the definition, by
    faint-variable liveness over the CFG (a dead definition's sources
    are not uses), so a dead chain goes in one sweep.  Vregs a
    writeback map names are live everywhere. *)

val copy_prop : classify:(int -> Effects.helper_kind) -> Hir.instr array -> Hir.instr array
(** CFG-wide copy propagation: every use of [d] where the vreg copy
    [d := s] is available on all paths reads [s] instead.  A copy into
    a writeback-map vreg is never tracked and a [Wbmap]'s operands are
    never rewritten, and a barrier call forgets every copy. *)
