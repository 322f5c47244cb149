(* One source of truth for how helper calls affect guest state.

   The helper table layout is fixed across both guest engines (lib/core
   re-exports these indices), so the classification can live here where
   all three consumers reach it: Symexec's call tracing, Promote's call
   barriers, and Absint's transfer functions.  Engine-specific helpers
   occupy indices >= [first_free]. *)

type helper_kind =
  | C_pure (* deterministic value of its arguments; not traced *)
  | C_read (* reads environment, writes no guest state (coproc_read) *)
  | C_as_switch (* address-space switch: writes the AS tag preg *)
  | C_event (* externally visible event; rf/pc untouched *)
  | C_clobber (* may rewrite rf and pc (exceptions, coproc writes) *)

let kind_to_string = function
  | C_pure -> "pure"
  | C_read -> "read"
  | C_as_switch -> "as-switch"
  | C_event -> "event"
  | C_clobber -> "clobber"

(* Fixed helper indices shared by both engines. *)
let h_coproc_read = 0
let h_coproc_write = 1
let h_take_exception = 2
let h_eret = 3
let h_tlb_flush = 4
let h_tlb_flush_page = 5
let h_halt = 6
let h_wfi = 7
let h_barrier = 8
let h_as_switch = 9
let h_softmmu_fill_read = 10
let h_softmmu_fill_write = 11
let first_softfloat = 12

(* Softfloat helpers are pure intrinsic evaluation; coproc_read reads
   environment only; the address-space switch writes the AS tag preg;
   halt/wfi/barrier and softmmu fills are externally visible events that
   leave guest rf/pc alone; everything else (coproc_write, exceptions,
   eret, TLB flushes) may rewrite both. *)
let classify h =
  if h = h_coproc_read then C_read
  else if h = h_as_switch then C_as_switch
  else if h >= first_softfloat then C_pure
  else if
    h = h_halt || h = h_wfi || h = h_barrier || h = h_softmmu_fill_read
    || h = h_softmmu_fill_write
  then C_event
  else C_clobber

(* Effect summary consumed by the analyzer: what a call may touch beyond
   its explicit operands.  [s_escapes] records helpers that can leave the
   executor without running the ordinary exit path (h_halt raises
   Powered_off out of Exec.run before any writeback flush), so promoted
   state must be clean across them exactly as across clobbers.  The
   address-space switch neither observes the register file nor escapes:
   it reloads the page-table root, sets the AS tag preg and returns. *)
type summary = {
  s_kind : helper_kind;
  s_writes_rf : bool;
  s_writes_pc : bool;
  s_writes_as_tag : bool;
  s_observes_rf : bool; (* environment may read the register file *)
  s_escapes : bool;
}

let summary_of_kind k =
  let opaque = match k with C_pure | C_as_switch -> false | C_read | C_event | C_clobber -> true in
  {
    s_kind = k;
    s_writes_rf = k = C_clobber;
    s_writes_pc = k = C_clobber;
    s_writes_as_tag = k = C_as_switch;
    s_observes_rf = opaque;
    s_escapes = opaque;
  }

let summarize h = summary_of_kind (classify h)

(* The one writeback-barrier test.  A call is transparent to
   promoted-register discipline when it can neither observe the
   register file nor escape the translation: pure softfloat helpers and
   the address-space switch.  Everything else needs dirty promoted
   values flushed before it and every promoted value reloaded after.
   A predicate on the kind, so callers' [~classify] overrides apply. *)
let barrier k =
  let s = summary_of_kind k in
  s.s_observes_rf || s.s_escapes

(* Stable symbol name for a helper index.  Encoded translations reference
   helpers by table index; the names below are the stable identities those
   indices stand for, so relocation certificates and findings can name a
   helper without depending on any per-boot table address. *)
let symbol_name h =
  match h with
  | _ when h = h_coproc_read -> "coproc_read"
  | _ when h = h_coproc_write -> "coproc_write"
  | _ when h = h_take_exception -> "take_exception"
  | _ when h = h_eret -> "eret"
  | _ when h = h_tlb_flush -> "tlb_flush"
  | _ when h = h_tlb_flush_page -> "tlb_flush_page"
  | _ when h = h_halt -> "halt"
  | _ when h = h_wfi -> "wfi"
  | _ when h = h_barrier -> "barrier"
  | _ when h = h_as_switch -> "as_switch"
  | _ when h = h_softmmu_fill_read -> "softmmu_fill_read"
  | _ when h = h_softmmu_fill_write -> "softmmu_fill_write"
  | _ when h >= first_softfloat -> Printf.sprintf "softfloat+%d" (h - first_softfloat)
  | _ -> Printf.sprintf "helper#%d" h
