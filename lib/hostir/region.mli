(* Region-level optimisation passes for tier-1 (hot region) translations.

   A region is translated as one Dag: the head member's body occupies the
   entry chunk and every other member sits behind a pre-created label,
   with a per-member PC-compare dispatch chunk at each member's end.  The
   passes below run over the flattened instruction stream before register
   allocation, in the order {!Pipeline} declares.  All passes are pure
   functions of the instruction stream. *)

(* Drop instructions unreachable from the region entry (index 0),
   keeping a writeback map ([Wbmap]) wherever it sits. *)
val prune_unreachable : Hir.instr array -> Hir.instr array

(* Redirect every [Jmp] and both [Br] arms past chunks holding only
   labels and a [Jmp], prune what that leaves unreachable
   ([prune_unreachable]), and delete each [Jmp] whose target is reached
   by falling through nothing but labels. *)
val thread_jumps : Hir.instr array -> Hir.instr array

(* Replace each [Jmp] to a block holding only labels and a [Br] with
   that [Br], unless the jump falls through to its target. *)
val jump_to_branch : Hir.instr array -> Hir.instr array

(* Turn [setne v <- c, $0; ...; br v, A, B] into [...; br c, A, B] and
   [sete v <- c, $0; ...; br v, A, B] into [...; br c, B, A], when vreg
   [v] has one definition and one use, the branch is in the same block
   and nothing in between writes [c]. *)
val invert_branches : Hir.instr array -> Hir.instr array

(* Rewrite an adjacent [op v_s <- ...; mov d <- v_s] into
   [op d <- ...], and an adjacent [add v_s <- a, $k1; add d <- v_s, $k2]
   into [add d <- a, $(k1+k2)], when vreg [v_s] has exactly one
   definition and one use, a [Wbmap] mention counting as a use.  Helper
   calls keep their result register. *)
val retarget_copies : Hir.instr array -> Hir.instr array

(* Defer guest-PC increments to the next observation point, carrying a
   pending increment across a [Br] or [Jmp] into later blocks that edge
   alone reaches (never into the region entry, block 0). *)
val coalesce_inc_pc : Hir.instr array -> Hir.instr array

(* Resolve the guest PC forward over the region CFG — every member
   entry at its own VA, helper calls transparent unless they may write
   the PC, vregs holding [Load_pc] plus or minus an immediate tracked —
   and rewrite [Store_pc v] with [v] and the PC known into [Inc_pc] of
   their difference (never an absolute VA: the code cache is physically
   indexed, so a region may run under another VA mapping of its page),
   and a [Jmp] or fall-through into a dispatch chunk into a jump to the
   member entry when the known PC is one of that chunk's own compare
   targets, or to the chunk's [Exit] when it is any other VA.
   [dispatch] lists each dispatch chunk as (its label, its compare
   targets, the label of its [Exit]); [member_entry] maps each member's
   guest VA to its entry label.  Returns the stream, the number of PC
   stores made relative and the number of edges sent to a member
   entry. *)
val straighten :
  dispatch:(int * int64 list * int) list ->
  member_entry:(int64 * int) list ->
  Hir.instr array ->
  Hir.instr array * int * int
