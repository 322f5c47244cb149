(* Region-level optimisation passes for tier-1 (hot region) translations.

   A region is translated as one Dag: the head member's body occupies the
   entry chunk and every other member sits behind a pre-created label,
   with a per-member PC-compare dispatch chunk at each member's end.  The
   passes below run over the flattened instruction stream before register
   allocation; [optimize] chains them in the canonical order.  All passes
   are pure functions of the instruction stream. *)

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

(* Defer guest-PC increments to the next observation point, carrying a
   pending increment across a [Br] or [Jmp] into later blocks that edge
   alone reaches (never into the region entry, block 0). *)
val coalesce_inc_pc : Hir.instr array -> Hir.instr array

(* Delete the PC reload on the member/dispatch seam, comparing the
   just-computed branch target directly. *)
val forward_store_pc : Hir.instr array -> Hir.instr array

(* Remove register-file stores overwritten before any possible read. *)
val eliminate_dead_stores : Hir.instr array -> Hir.instr array

(* What [optimize] rewrote: [Store_pc]s of a known PC-derived value
   made relative ([Inc_pc]), dispatch-bound edges sent straight to a
   member entry, and register-file stores deleted as dead. *)
type stats = {
  pc_writes_relativized : int;
  dispatch_straightened : int;
  dead_stores : int;
}

(* The full pipeline: straighten -> thread_jumps -> coalesce_inc_pc ->
   forward_store_pc -> eliminate_dead_stores.  [straighten] solves the
   guest PC forward over the region CFG — every member entry at its own
   VA, helper calls transparent unless they may write the PC, vregs
   holding [Load_pc] plus or minus an immediate tracked — and rewrites
   [Store_pc v] with [v] and the PC known into [Inc_pc] of their
   difference (never an absolute VA: the code cache is physically
   indexed, so a region may run under another VA mapping of its page),
   and a [Jmp] or fall-through into a dispatch chunk into a jump to the
   member entry when the known PC is one of that chunk's own compare
   targets.  [dispatch] maps each dispatch chunk's label to its compare
   targets; [member_entry] maps each member's guest VA to its entry
   label. *)
val optimize :
  dispatch:(int * int64 list) list ->
  member_entry:(int64 * int) list ->
  Hir.instr array ->
  Hir.instr array * stats
