(** Region-scoped guest-register promotion and two helpers of its
    cleanup, run on the flattened instruction stream of a tier-1 region
    after the {!Region} shaping passes and before register allocation,
    in the order {!Pipeline} declares. *)

(** [promote_regs ~max_regs ~classify instrs] caches the hottest
    register-file byte offsets (at most [max_regs]) in dedicated vregs
    for the region's whole lifetime, with barrier helper calls
    ({!Effects.barrier} of [classify]) as full write-back/reload points
    and a {!Hir.Wbmap} giving the executor a precise-state writeback map
    for faults, [Poll] exits and [Exit]s.  Returns the new stream, the
    promotion list as [(vreg, register-file byte offset)] pairs and the
    number of writeback-map entries (the offsets ever stored). *)
val promote_regs :
  max_regs:int ->
  classify:(int -> Effects.helper_kind) ->
  Hir.instr array ->
  Hir.instr array * (int * int) list * int

(** An identity ALU operation ([add d, s, $0], [and d, s, $-1], ...)
    as the plain move it is; any other instruction unchanged. *)
val canonicalize : Hir.instr -> Hir.instr

(** Register-file forwarding: the last value stored to or loaded from an
    offset serves later loads of it in the same block. *)
val rf_forward : Hir.instr array -> Hir.instr array
