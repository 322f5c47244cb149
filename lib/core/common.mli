(** Glue shared by the DBT engines: the guest [sys_ctx] over executor
    state, and the helper tables generated code calls into.  Helper
    indices and their effect classification are owned by
    {!Hostir.Effects} and re-exported here. *)

val sys_ctx : Guest.Ops.ops -> Hostir.Exec.ctx -> Guest.Ops.sys_ctx
val access_of : Hvm.Machine.access -> Guest.Ops.access

(** {1 Fixed helper indices} *)

val h_coproc_read : int
val h_coproc_write : int
val h_take_exception : int
val h_eret : int
val h_tlb_flush : int
val h_tlb_flush_page : int
val h_halt : int
val h_wfi : int
val h_barrier : int
val h_as_switch : int
val h_softmmu_fill_read : int
val h_softmmu_fill_write : int
val first_softfloat : int

val effect_helper_index : string -> int
(** Helper index for a named ADL effect; raises [Invalid_argument] for
    effects without a helper. *)

val softfloat_names : string list
val softfloat_index : string -> int option

val softfloat_helper : string -> Hostir.Exec.helper
(** Softfloat helper evaluating the intrinsic through the ADL evaluator,
    bit-identical to translation-time folding. *)

val helper_kind : int -> Hostir.Symexec.helper_kind
(** Effect classification by helper index (see {!Hostir.Effects}). *)
