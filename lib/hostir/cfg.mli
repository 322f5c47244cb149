(** The control-flow graph of a label-form HostIR stream and the one
    dataflow solver every HostIR pass runs on it.

    Blocks start at index 0, at every label and after every terminator
    ([Jmp], [Br], [Exit]).  Each pass brings its own lattice, transfer
    function and loop notion: {!loop_heads} (DFS, for widening) or
    {!back_edges} (layout, for live-range extension and loop
    weights). *)

module Iset : Set.S with type elt = int

val label_index : Hir.instr array -> (int, int) Hashtbl.t
(** Label -> index of its [Label] instruction (the last one, if a label
    is defined twice). *)

type t = {
  instrs : Hir.instr array;
  labels : (int, int) Hashtbl.t;  (** {!label_index} of [instrs] *)
  starts : int array;  (** block start indices, ascending; [starts.(0) = 0] *)
  block_of : int array;  (** enclosing block of each instruction index *)
  succs : int list array;  (** in terminator order ([Br]: taken, then not-taken), duplicates kept *)
  preds : int list array;
}

val build : Hir.instr array -> t
(** Always at least one block (an empty stream has one empty block).  A
    jump to an undefined label has no edge. *)

val nb : t -> int
val block_end : t -> int -> int  (** one past a block's last instruction *)

val block_of_label : t -> int -> int option
val is_terminator : Hir.instr -> bool  (** [Jmp], [Br] or [Exit] *)

val loop_heads : t -> bool array
(** Targets of DFS back edges from block 0: every cycle reachable from
    the entry contains one. *)

val back_edges : t -> (int * int) list
(** Layout back edges [(b, s)]: [s] is a successor of [b] with
    [s <= b] (self-loops included), in block then successor order, one
    per successor entry. *)

val reachable : t -> bool array
(** Blocks reachable from block 0. *)

val forward :
  t ->
  seeds:(int * 'a) list ->
  merge:(head:bool -> 'a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  transfer:(int -> 'a -> 'a) ->
  'a option array
(** Forward FIFO worklist fixpoint.  Each seed [(b, x)] sets (or merges
    into) [b]'s entry state and queues it, in list order.  [transfer b x]
    is [b]'s exit state from entry state [x]; it flows to each successor
    [s], which takes it as is when first reached and otherwise as
    [merge ~head old x] with [head = (loop_heads t).(s)], and is requeued
    when its state changes.  Returns entry states; [None] = never
    reached. *)

val backward :
  t ->
  bottom:'a ->
  exit:'a ->
  join:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  transfer:(int -> 'a -> 'a) ->
  'a array * 'a array
(** Backward worklist fixpoint from [bottom] everywhere; a block's exit
    state is [exit] when it has no successors, else the [join] of its
    successors' entry states.  [transfer b out] is [b]'s entry state;
    when it changes, [b]'s predecessors are requeued.  Returns (entry,
    exit) states per block. *)

val live_step : pinned:Iset.t -> Iset.t -> Hir.instr -> Iset.t
(** Backward liveness across one instruction: kill its vreg destination
    (unless pinned), add its vreg sources. *)

val live_vregs : t -> pinned:Iset.t -> Iset.t array * Iset.t array
(** Vreg liveness at block entries and exits.  [pinned] vregs are live
    everywhere (pass [Iset.empty] for plain liveness). *)
