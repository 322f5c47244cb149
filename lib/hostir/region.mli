(* Region-level optimisation passes for tier-1 (hot region) translations.

   A region is translated as one Dag: the head member's body occupies the
   entry chunk and every other member sits behind a pre-created label,
   with a per-member PC-compare dispatch chunk at each member's end.  The
   passes below run over the flattened instruction stream before register
   allocation; [optimize] chains them in the canonical order.  All passes
   are pure functions of the instruction stream. *)

module Iset = Cfg.Iset

(* Rewrite jumps into a dispatch chunk with a direct jump to the member
   entry whenever the guest PC at the jump is statically known.
   [dispatch_labels] are the labels of the PC-compare dispatch chunks;
   [member_entry] maps each member's guest VA to its entry label. *)
val straighten :
  dispatch_labels:Iset.t -> member_entry:(int64 * int) list -> Hir.instr array -> Hir.instr array

(* Drop instructions unreachable from the region entry (index 0),
   keeping a writeback map ([Wbmap]) wherever it sits. *)
val prune_unreachable : Hir.instr array -> Hir.instr array

(* Redirect every [Jmp] and both [Br] arms past chunks holding only
   labels and a [Jmp], prune what that leaves unreachable
   ([prune_unreachable]), and delete each [Jmp] whose target is reached
   by falling through nothing but labels. *)
val thread_jumps : Hir.instr array -> Hir.instr array

(* Rewrite an adjacent [op v_s <- ...; mov d <- v_s] into
   [op d <- ...] when vreg [v_s] has exactly one definition and one
   use, a [Wbmap] mention counting as a use.  Helper calls are left
   alone. *)
val retarget_copies : Hir.instr array -> Hir.instr array

(* Defer guest-PC increments to the next observation point. *)
val coalesce_inc_pc : Hir.instr array -> Hir.instr array

(* Delete the PC reload on the member/dispatch seam, comparing the
   just-computed branch target directly. *)
val forward_store_pc : Hir.instr array -> Hir.instr array

(* Remove register-file stores overwritten before any possible read. *)
val eliminate_dead_stores : Hir.instr array -> Hir.instr array

(* The full pipeline: straighten -> thread_jumps -> coalesce_inc_pc ->
   forward_store_pc -> eliminate_dead_stores. *)
val optimize :
  dispatch_labels:Iset.t -> member_entry:(int64 * int) list -> Hir.instr array -> Hir.instr array
