(** The offline generation stage (paper Sec. 2.2).

    [build source] parses an ADL description, type-checks it, lowers every
    instruction behaviour into domain-specific SSA, optimizes it at the
    requested level (the Fig. 5 pass list, run to a fixed point), validates
    the result, and compiles the decoder decision tree.  The resulting
    {!model} is the "architecture-specific module" the online runtime
    loads; its actions are consumed by {!Gen.translate} at JIT time. *)

type model = {
  arch : Adl.Ast.arch;
  decoder : Adl.Decode.t;
  actions : (string, Ir.action) Hashtbl.t;
  opt_level : int;
}

(** Optimization context (field/bank/slot widths) for one execute action;
    exposed for tests and tools that optimize actions directly. *)
val opt_context : Adl.Ast.arch -> string -> Opt.context

(** Build a model from ADL source text.
    @param opt_level offline optimization level 1-4 (default 4).
    @param verify run the {!Verify} SSA well-formedness checker after
    every optimization pass (default false).
    @raise Adl.Ast.Adl_error on parse or type errors.
    @raise Verify.Invalid if [verify] and a pass breaks an invariant. *)
val build : ?opt_level:int -> ?verify:bool -> string -> model

(** [per_level source] is a function from optimization level to the
    model of [source] built at that level.  Levels 0-4 are built once, on
    first use, and the same model is returned from then on (nothing
    mutates a model after {!build}); any other level is built afresh on
    each call.
    @raise Invalid_argument if a level 0-4 model is first needed on a
    domain other than the main one ([Lazy] is not domain-safe). *)
val per_level : string -> int -> model

(** Look up one instruction's optimized SSA action.
    @raise Invalid_argument if the action does not exist. *)
val action : model -> string -> Ir.action

(** Total SSA statement count across all actions: the proxy for generated
    lines of code in the Sec. 3.6.1 experiment. *)
val total_size : model -> int

(** Decode one 32-bit instruction word through the generated decision
    tree. *)
val decode : model -> int64 -> Adl.Decode.decoded option
