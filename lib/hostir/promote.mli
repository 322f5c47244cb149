(** Region-scoped guest-register promotion and alias-aware memory
    redundancy elimination.

    Runs after the {!Region} passes and before register allocation, on
    the flattened instruction stream of a tier-1 region:

    - the hottest register-file byte offsets are cached in dedicated
      vregs for the region's whole lifetime, with helper calls as full
      write-back/reload barriers and a {!Hir.Wbmap} giving the executor
      a precise-state writeback map for faults, [Poll] exits and
      [Exit]s;
    - copy propagation cleans up the rewrite residue so promoted loads
      become genuinely free after dead-code marking;
    - store-to-load forwarding and redundant-load elimination remove
      guest memory accesses whose value is already in a host register,
      with conservative alias killing. *)

type stats = {
  promoted : int;  (** register-file offsets promoted to vregs *)
  wb_entries : int;  (** dirty promoted offsets in the writeback map *)
  loads_rewritten : int;  (** interior [Ldrf]s turned into moves *)
  stores_rewritten : int;  (** interior [Strf]s turned into moves *)
  copies_propagated : int;  (** source operands substituted by copy-prop *)
  rf_loads_forwarded : int;  (** [Ldrf]s satisfied by an earlier rf access *)
  loads_elided : int;  (** [Mem_ld]s satisfied by a previous load *)
  stores_forwarded : int;  (** [Mem_ld]s satisfied by a previous store *)
}


(** [run ?max_regs ?classify instrs] rewrites a region stream; returns
    the new stream, the promotion list as [(vreg, register-file byte
    offset)] pairs, and the pass statistics.  [max_regs] (default 4)
    bounds the number of promoted offsets so register pressure stays
    below the host's allocatable set.  [classify] (default: every
    helper is a clobber) lets calls to helpers that cannot observe the
    register file ({!Effects.C_pure}) skip the write-back/reload
    barrier. *)
val run :
  ?max_regs:int ->
  ?classify:(int -> Effects.helper_kind) ->
  Hir.instr array ->
  Hir.instr array * (int * int) list * stats
