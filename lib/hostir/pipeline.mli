(** The tier-1 region pipeline: every pass a region translation runs
    between the Dag's flattened stream and register allocation,
    declared once, in order, as one list of named entries.  A pass that
    runs more than once is listed more than once.

    Only the engine's region front end (lib/core/translate.ml) runs the
    whole pipeline; the unit tests run single stages on synthetic
    streams.  The translation validator ({!Equiv}) never runs it: it
    checks the pipeline's output against an independent
    per-instruction reference emission. *)

(** The stage an entry belongs to.  The engine runs [Shape] once per
    region, then [Promote] and [Simplify] once per promotion width it
    tries, checking the writeback discipline ({!Verify.check_wb}) on
    the output of each of those two; [Simplify] is timed as analysis. *)
type stage =
  | Shape  (** static PC dispatch, jump threading, PC-increment sinking *)
  | Promote  (** register promotion and its cleanup *)
  | Simplify  (** absint-simplify: fact-driven folds and the control-flow tail *)

type env = {
  dispatch : (int * int64 list * int) list;
      (** each dispatch chunk: its label, compare targets and exit label *)
  member_entry : (int64 * int) list;  (** each member's guest VA and entry label *)
  classify : int -> Effects.helper_kind;  (** helper classification *)
  max_regs : int;  (** the most register-file offsets to promote *)
}

val default_env : env
(** No dispatch chunks or members, every helper a clobber, 4 promoted
    registers at most. *)

type state = {
  instrs : Hir.instr array;
  promoted : (int * int) list;
      (** [(vreg, register-file byte offset)] pairs, set by promotion *)
  counts : (string * int) list;
      (** what the passes rewrote, summed by name; each name is a
          counter of the engine's counter table *)
}

val start : Hir.instr array -> state
(** A stream with nothing promoted and nothing counted. *)

val run : stage -> env -> state -> state
(** Run the entries of one stage, in declaration order. *)
