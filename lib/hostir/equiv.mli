(** Translation validation: symbolic equivalence of an optimized HostIR
    program against a reference emission rebuilt from the same decode.

    Both programs are executed by {!Symexec} from a common initial state;
    exit states are matched by path condition and compared on exit slot,
    PC, register-file image (promoted registers equated through the Wbmap
    writeback), host pregs, and the ordered store/call trace.  Every
    divergence is a named {!finding} carrying both term trees. *)

(** One decoded guest instruction, as the engine translated it. *)
type item = {
  it_action : Ssa.Ir.action;
  it_field : string -> int64;
  it_inc_pc : int option;
}

(** What the engine knew about one region member at translation time. *)
type member_ref = {
  mb_va : int64;
  mb_items : item list;
  mb_undef : bool;  (** decode failed/empty: member body is a bare Exit 0 *)
  mb_targets : int64 list;  (** dispatch targets, in the engine's heat order *)
}

type finding = { f_name : string; f_detail : string }

type outcome = {
  ok : bool;
  complete : bool;  (** both runs explored every path within the limits *)
  findings : finding list;
  o_paths : int;
  o_steps : int;
}

(** Reference emission for a tier-0 block: per-instruction unoptimized
    segments concatenated (vregs/labels relocated) plus the trailing
    [Exit 0] the engine appends. *)
val block_reference : config:Dag.config -> item list -> Hir.instr array

(** Reference emission for a tier-1 region: member bodies behind entry
    labels with the engine's Poll prologue and PC-compare dispatch
    skeleton re-created verbatim — but with none of the region passes or
    promotion applied. *)
val region_reference : config:Dag.config -> member_ref list -> Hir.instr array

(** Compare two label-form programs from a common initial state. *)
val check :
  ?classify:(int -> Symexec.helper_kind) ->
  init_pc:Symexec.term ->
  opt:Hir.instr array ->
  reference:Hir.instr array ->
  unit ->
  outcome

(** [check] against {!block_reference} of [items]. *)
val check_block :
  ?classify:(int -> Symexec.helper_kind) ->
  config:Dag.config ->
  init_pc:Symexec.term ->
  opt:Hir.instr array ->
  item list ->
  outcome

(** [check] against {!region_reference} of [members]. *)
val check_region :
  ?classify:(int -> Symexec.helper_kind) ->
  config:Dag.config ->
  init_pc:Symexec.term ->
  opt:Hir.instr array ->
  member_ref list ->
  outcome
