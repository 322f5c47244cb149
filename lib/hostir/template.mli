(** Template translation tier (tier minus one).

    The full SSA/DAG/regalloc pipeline is pure overhead for code that
    executes a handful of times before dying or being promoted (paper
    Sec. 3.4 concedes a 2.6x translation-latency deficit vs QEMU).  This
    module runs each decode action through the existing generator +
    invocation-DAG pipeline *once per opcode form*, with decode fields
    evaluated symbolically: any value derived from an instruction field
    becomes a {e hole} — a sentinel constant in the emitted HostIR that
    install time patches with the concrete field computation.  The
    result is a register-allocated per-instruction {!frag}ment that a
    block translation can stitch with siblings at memcpy-like cost: no
    SSA walk, no DAG, no liveness, no linear scan per block.

    Soundness model: the symbolic evaluator mirrors {!Ssa.Gen}'s partial
    evaluator exactly, but folds field-dependent computation into
    {!type:fexpr} trees instead of concrete constants.  Whenever a
    field-dependent value would influence the {e structure} of the
    emitted code (a branch direction, a register-bank index that feeds
    the DAG's offset memoization, a [sign_extend] width that the
    lowering bakes into an [Ext]), mining restarts with that field
    pinned to the instance's witness value; the pin becomes part of the
    template key, so each structural shape gets its own variant.  Every
    template is mined twice with disjoint sentinel bases and the
    hole-canonicalized streams compared, which rejects both sentinel
    collisions with genuine guest constants and any nondeterminism.
    Forms that exceed the variant or pin budget, or need dynamic
    register-bank indices, are marked dead and fall back to the cold
    pipeline. *)

type t

(** A mined per-instruction code fragment: pre- and post-regalloc
    streams with holes, plus the hole tables needed to patch them. *)
type frag

(** [create ~config ~rf_bytes ~insn_size] makes an empty template table.
    [config] supplies the DAG configuration per MMU regime (the regime
    is part of the template key because it changes the emitted guard
    code). *)
val create : config:(mmu_on:bool -> Dag.config) -> rf_bytes:int -> insn_size:int -> t

type lookup =
  | Hit of frag  (** a cached variant matched this instance *)
  | Mined of frag  (** no variant matched; one was mined on this call *)
  | Miss of string  (** untemplatable form (reason), caller goes cold *)

(** Find (or mine) the template fragment covering one decoded
    instruction instance.  [field] doubles as the witness for any pins
    mining discovers, so the returned fragment always matches the
    instance. *)
val fragment :
  t ->
  action:Ssa.Ir.action ->
  name:string ->
  inc_pc:int option ->
  mmu_on:bool ->
  field:(string -> int64) ->
  lookup

(** Patch and stitch fragments into one block body: holes are evaluated
    per instance, labels and virtual registers relocated, and a trailing
    [Exit 0] appended.  Returns the patched pre-regalloc stream (the
    validator's input) and a fabricated {!Regalloc.result} over the
    patched post-regalloc stream (the encoder's input; [dead] already
    filtered, [n_slots] is the max over fragments since spill slots are
    fragment-local scratch).  [None] when any hole fails to evaluate or
    patches out of range — the caller falls back to the cold pipeline. *)
val assemble :
  t -> (frag * (string -> int64)) list -> (Hir.instr array * Regalloc.result) option
