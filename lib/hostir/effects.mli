(** Shared helper-effect classification.

    The single source of truth for how each helper index affects guest
    state, consumed by {!Symexec} (call tracing), {!Promote} (call
    barriers) and {!Absint} (transfer functions).  The helper table
    layout is fixed across engines and owned here; lib/core re-exports
    the indices. *)

type helper_kind =
  | C_pure  (** deterministic value of its arguments; not traced *)
  | C_read  (** reads environment, writes no guest state (coproc_read) *)
  | C_as_switch  (** address-space switch: writes the AS tag preg *)
  | C_event  (** externally visible event; rf/pc untouched *)
  | C_clobber  (** may rewrite rf and pc (exceptions, coproc writes) *)

val kind_to_string : helper_kind -> string

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
(** Indices >= this are pure softfloat intrinsics. *)

val classify : int -> helper_kind
(** Classification by helper index. *)

(** Effect summary: what a call may touch beyond its explicit operands. *)
type summary = {
  s_kind : helper_kind;
  s_writes_rf : bool;
  s_writes_pc : bool;
  s_writes_as_tag : bool;
  s_observes_rf : bool;  (** environment may read the register file *)
  s_escapes : bool;
      (** may leave the executor without the ordinary exit path (e.g.
          h_halt raises before any writeback flush) *)
}

val summarize : int -> summary

val barrier : helper_kind -> bool
(** The one writeback-barrier test: [true] when a helper of this kind
    may observe the register file or escape the translation, so dirty
    promoted registers must be flushed before it and reloaded after.
    [false] for [C_pure] and [C_as_switch]. *)

val symbol_name : int -> string
(** Stable symbol name for a helper index — the identity a table index
    stands for, independent of any per-boot table address.  Used by
    {!Reloc} certificates and findings. *)
