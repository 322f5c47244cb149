(** Forward abstract interpretation over label-form HostIR streams.

    A dataflow framework over the {!Region} CFG with the shared
    known-bits x interval value domain ({!Dbt_util.Absval}), mapping
    every storage location the executor models (vregs, host GPRs, spill
    slots, register-file qwords, the PC register) to an abstract value.  Every transfer function
    over-approximates the concrete executor ({!Exec}) exactly; helper
    calls are interpreted through the shared {!Effects} classification.

    Consumers: {!check_translation} (the static obligation checker run
    by the engine over every translation when
    [config.analyze_translations] is set), {!simplify} (the O4
    absint-simplify region pass), and {!Verify.check_wb} (which
    delegates its promoted-register discipline fixpoint to
    {!check_wb}). *)

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
  f_cfg : Region.cfg;
  f_entry : state option array;  (** block entry states; [None] = unreachable *)
  f_classify : int -> Effects.helper_kind;
}

val analyze :
  ?classify:(int -> Effects.helper_kind) -> ?entry:state -> Hir.instr array -> facts
(** Worklist fixpoint over the {!Region} CFG, widening at loop heads.
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
    (the engine of {!Verify.check_wb}).  Helpers classified [C_pure]
    are transparent; by default every helper is a barrier. *)

val check_translation :
  ?classify:(int -> Effects.helper_kind) ->
  ?promoted:(int * int) list ->
  ?n_slots:int ->
  Hir.instr array ->
  finding list
(** The full obligation suite for one translation: register-file
    bounds, frame bounds (when [n_slots] is given), and writeback
    discipline (when [promoted] is non-empty). *)

(** {1 The absint-simplify pass} *)

type simplify_stats = {
  mutable branches_folded : int;  (** [Br] with a decided condition -> [Jmp] *)
  mutable consts_folded : int;  (** pure results proved constant -> [Mov Imm] *)
  mutable masks_dropped : int;  (** redundant [And] masks / extensions elided *)
  mutable divs_reduced : int;  (** unsigned div/rem by [2^k] strength-reduced *)
  mutable dead_deleted : int;  (** cross-block dead vreg definitions removed *)
}

val empty_simplify_stats : unit -> simplify_stats

val simplify :
  ?classify:(int -> Effects.helper_kind) ->
  Hir.instr array ->
  Hir.instr array * simplify_stats
(** The O4 absint-simplify region pass, run on the flattened promoted
    stream before register allocation: fold branches with known
    conditions, rewrite fully-known pure results to constants, drop
    masks and extensions the facts prove redundant, strength-reduce
    unsigned division by powers of two, delete cross-block dead vreg
    definitions, and prune unreachable blocks (preserving the
    writeback map). *)
