(* Region-level optimisation passes for tier-1 (hot region) translations.

   A region is translated as one Dag: the head member's body occupies the
   entry chunk and every other member sits behind a pre-created label, with
   a per-member PC-compare dispatch chunk at each member's end.  The passes
   below run over the flattened instruction stream before register
   allocation; [Pipeline] declares where each one runs:

   - [straighten] solves the guest PC forward over the region CFG and,
     where it is known, makes a [Store_pc] of a PC-derived value a
     relative [Inc_pc] (the Dag ends every conditional guest branch that
     way) and sends an edge into a dispatch chunk straight to the member
     entry its compare would pick, or to the chunk's own exit when the
     compare would pick none, so intra-region branches — direct ones
     collapsed to [Inc_pc] by the Dag (Fig. 9(d)) and conditional ones
     alike — and loop exits cost a host jump with no dispatch at all;

   - [thread_jumps] redirects jumps past label+jump chunks, drops the
     dispatch chunks orphaned by [straighten] ([prune_unreachable]) and
     deletes jumps to a label reached by falling through, making each
     member's hand-off to its own dispatch chunk fall through;

   - [coalesce_inc_pc] defers guest-PC increments to the next observation
     point, across branches into arms only they reach, eliminating the
     per-instruction PC sync inside a member;

   - the peepholes [jump_to_branch], [invert_branches] and
     [retarget_copies], which absint-simplify's tail runs.

   All passes are pure functions of the instruction stream, so regions
   stay deterministic and observation-free for the sanitizer's guard. *)

open Hir
module Iset = Cfg.Iset

(* ------------------------------------------------------------------ *)
(* Static guest-PC dataflow.                                           *)

module Imap = Map.Make (Int)

(* What is known at a program point: the guest PC, if it is a known
   value, and the vregs holding known PC-derived values (a [Load_pc],
   copies of one, and immediate adds and subtracts of those).  Both are
   relative to the member entry VA the region was formed at: a region
   head entered through another VA mapping of its page shifts every one
   of them by the same amount, so only their differences are ever
   emitted. *)
type pcfacts = { pc : int64 option; vals : int64 Imap.t }

let join_facts a b =
  {
    pc = (if a.pc = b.pc then a.pc else None);
    vals = Imap.merge (fun _ x y -> if x = y then x else None) a.vals b.vals;
  }

let equal_facts a b = a.pc = b.pc && Imap.equal Int64.equal a.vals b.vals

let value facts = function Vreg v -> Imap.find_opt v facts.vals | _ -> None

(* Forward transfer of one instruction.  A helper call keeps the PC
   unless the helper may write it (a clobber: exceptions, coprocessor
   writes).  A [Store_pc] of anything but a tracked vreg makes the PC
   unknown — an immediate too: it is a VA of one mapping, while the
   facts hold for whichever mapping the region was entered through. *)
let pc_step facts ins =
  let vals = match dest ins with Some (Vreg d) -> Imap.remove d facts.vals | _ -> facts.vals in
  let def d x = { facts with vals = (match x with Some a -> Imap.add d a vals | None -> vals) } in
  match ins with
  | Load_pc (Vreg d) -> def d facts.pc
  | Mov (Vreg d, s) -> def d (value facts s)
  | Alu (Aadd, Vreg d, a, Imm k) | Alu (Aadd, Vreg d, Imm k, a) ->
    def d (Option.map (Int64.add k) (value facts a))
  | Alu (Asub, Vreg d, a, Imm k) -> def d (Option.map (fun x -> Int64.sub x k) (value facts a))
  | Inc_pc k -> { vals; pc = Option.map (Int64.add (Int64.of_int k)) facts.pc }
  | Store_pc s -> { vals; pc = value facts s }
  | Call (h, _, _) when (Effects.summarize h).Effects.s_writes_pc -> { vals; pc = None }
  | _ -> { facts with vals }

(* [straighten ~dispatch ~member_entry instrs] resolves the guest PC
   statically with one forward dataflow over the region CFG and makes
   two rewrites where it is known:

   - [Store_pc v] with [v] a known PC-derived value becomes
     [Inc_pc (v - pc)] — the Dag ends every conditional guest branch by
     storing [Load_pc + k] on each arm;

   - an edge into a dispatch chunk ([dispatch] maps its label to its
     compare targets, hottest first, and the label of its [Exit]) — a
     [Jmp], directly or through label+jump chunks, or a fall-through —
     goes straight to the member entry when the PC there is one of that
     chunk's targets, and straight to the chunk's [Exit] when it is
     any other VA.  Only the chunk's own targets qualify as members:
     for any other VA, another member's included, the chunk exits to
     the engine dispatcher, and the validator's reference does too.

   Every member entry starts from its own VA and no vreg facts,
   whatever flows in: all inbound edges (fall-in from the region
   prologue, dispatch hits, straightened jumps) establish that PC, and
   each member entry begins with a [Poll], so safepoints are kept.
   Returns the rewritten stream, the number of PC writes made relative
   and the number of edges sent to a member entry. *)
let straighten ~(dispatch : (int * int64 list * int) list) ~(member_entry : (int64 * int) list)
    (instrs : instr array) : instr array * int * int =
  let n = Array.length instrs in
  let cfg = Cfg.build instrs in
  let chunk_of = Hashtbl.create 8 in
  List.iter (fun (l, ts, x) -> Hashtbl.replace chunk_of l (ts, x)) dispatch;
  (* The compare targets and exit label of the dispatch chunk [l] leads
     to, through label+jump chunks. *)
  let rec chunk_targets seen l =
    match Hashtbl.find_opt chunk_of l with
    | Some c -> Some c
    | None when Iset.mem l seen -> None
    | None -> (
      match Hashtbl.find_opt cfg.Cfg.labels l with
      | Some i when i + 1 < n -> (
        match instrs.(i + 1) with Jmp l' -> chunk_targets (Iset.add l seen) l' | _ -> None)
      | _ -> None)
  in
  let entry_va = Hashtbl.create 8 and entry_of_va = Hashtbl.create 8 in
  List.iter
    (fun (va, l) ->
      Hashtbl.replace entry_of_va va l;
      Option.iter (fun b -> Hashtbl.replace entry_va b va) (Cfg.block_of_label cfg l))
    member_entry;
  let at_entry va = { pc = Some va; vals = Imap.empty } in
  let block_in b facts = match Hashtbl.find_opt entry_va b with Some va -> at_entry va | None -> facts in
  let run b facts =
    let f = ref (block_in b facts) in
    for i = cfg.Cfg.starts.(b) to Cfg.block_end cfg b - 1 do
      f := pc_step !f instrs.(i)
    done;
    !f
  in
  let seeds = Hashtbl.fold (fun b va acc -> (b, at_entry va) :: acc) entry_va [] in
  let entry =
    Cfg.forward cfg ~seeds ~merge:(fun ~head:_ -> join_facts) ~equal:equal_facts ~transfer:run
  in
  (* Where a dispatch-bound edge to [l] goes at [facts]: a member entry
     ([`Member]) or the chunk's exit ([`Exit]). *)
  let redirect facts l =
    match (facts.pc, chunk_targets Iset.empty l) with
    | Some va, Some (ts, _) when List.mem va ts ->
      Option.map (fun l -> `Member l) (Hashtbl.find_opt entry_of_va va)
    | Some _, Some (_, x) -> Some (`Exit x)
    | _ -> None
  in
  let relativized = ref 0 and straightened = ref 0 in
  let target = function
    | `Member l ->
      incr straightened;
      l
    | `Exit x -> x
  in
  let out = ref [] in
  let emit ins = out := ins :: !out in
  for b = 0 to Cfg.nb cfg - 1 do
    let first = cfg.Cfg.starts.(b) and last = Cfg.block_end cfg b - 1 in
    match entry.(b) with
    | None -> for i = first to last do emit instrs.(i) done
    | Some facts ->
      let f = ref (block_in b facts) in
      for i = first to last do
        let ins = instrs.(i) in
        (match ins with
        | Store_pc s -> (
          match (value !f s, !f.pc) with
          | Some a, Some p ->
            incr relativized;
            emit (Inc_pc (Int64.to_int (Int64.sub a p)))
          | _ -> emit ins)
        | Jmp l -> (
          match redirect !f l with Some r -> emit (Jmp (target r)) | None -> emit ins)
        | _ -> emit ins);
        f := pc_step !f ins
      done;
      (* A fall-through into a dispatch chunk becomes a jump. *)
      if last + 1 < n && not (Cfg.is_terminator instrs.(last)) then (
        match instrs.(last + 1) with
        | Label l -> Option.iter (fun r -> emit (Jmp (target r))) (redirect !f l)
        | _ -> ())
  done;
  (Array.of_list (List.rev !out), !relativized, !straightened)

(* ------------------------------------------------------------------ *)
(* Straight-line peepholes.                                            *)

(* Drop label-delimited chunks that are unreachable from the region
   entry — typically a member's PC-compare dispatch chunk after
   [straighten] redirected its only inbound jump straight to a member
   entry, or a block whose branch absint-simplify folded away.  Dead
   chunks cost nothing at run time but inflate the translation charge
   and the code-cache footprint.  A promoted stream's writeback map is
   kept: by construction it sits after the last exit, where no path
   reaches it, but its operands keep the promoted registers live and
   the executor applies it at fault points. *)
let prune_unreachable (instrs : instr array) : instr array =
  let cfg = Cfg.build instrs in
  let reachable = Cfg.reachable cfg in
  let keep i = function Wbmap _ -> true | _ -> reachable.(cfg.Cfg.block_of.(i)) in
  if Array.for_all Fun.id reachable then instrs
  else Array.of_list (List.filteri keep (Array.to_list instrs))

(* Jump threading.  Every [Jmp] and both [Br] arms are redirected past
   chunks that hold only labels and a [Jmp] (the seams left behind when
   a dispatch chunk is straightened away or absint-simplify folds a
   branch and deletes the dead chunk body), the chunks that leaves
   unreachable are pruned, and each [Jmp] whose target is reached by
   falling through nothing but labels is deleted.  A cycle of such
   chunks (a self-loop [Label l; Jmp l]) resolves to a label on the
   cycle.  Labels stay as placeholders; one a jump no longer names
   becomes an unreferenced marker. *)
(* The first instruction from [i] on that is not a label. *)
let rec past_labels (instrs : instr array) i =
  if i >= Array.length instrs then None
  else match instrs.(i) with Label _ -> past_labels instrs (i + 1) | ins -> Some ins

(* Whether nothing but labels, one of them [l], lie from [i] on: a jump
   to [l] just before [i] falls through. *)
let rec falls_to (instrs : instr array) l i =
  i < Array.length instrs
  && match instrs.(i) with Label l' -> l' = l || falls_to instrs l (i + 1) | _ -> false

let thread_jumps (instrs : instr array) : instr array =
  let label_idx = Cfg.label_index instrs in
  let rec final seen l =
    match Hashtbl.find_opt label_idx l with
    | Some i when not (Iset.mem l seen) -> (
      match past_labels instrs i with Some (Jmp l') -> final (Iset.add l seen) l' | _ -> l)
    | _ -> l
  in
  let threaded =
    prune_unreachable
      (Array.map
         (function
           | Jmp l -> Jmp (final Iset.empty l)
           | Br (c, t, f) -> Br (c, final Iset.empty t, final Iset.empty f)
           | ins -> ins)
         instrs)
  in
  let keep = ref [] in
  Array.iteri
    (fun i ins ->
      match ins with Jmp l when falls_to threaded l (i + 1) -> () | _ -> keep := ins :: !keep)
    threaded;
  Array.of_list (List.rev !keep)

(* A [Jmp] to a block that is nothing but labels and a [Br] takes the
   [Br] itself: the condition is read at the same value, and the jump's
   executed host instruction is gone.  A jump to the next instruction
   is left for [thread_jumps] to delete. *)
let jump_to_branch (instrs : instr array) : instr array =
  let label_idx = Cfg.label_index instrs in
  Array.mapi
    (fun i ins ->
      match ins with
      | Jmp l when not (falls_to instrs l (i + 1)) -> (
        match Option.bind (Hashtbl.find_opt label_idx l) (past_labels instrs) with
        | Some (Br _ as br) -> br
        | _ -> ins)
      | _ -> ins)
    instrs

(* [temp instrs v]: vreg [v] has exactly one definition and one use in
   [instrs], a writeback map's mention counting as a use. *)
let temp (instrs : instr array) : int -> bool =
  let defs = Hashtbl.create 64 and uses = Hashtbl.create 64 in
  let bump tbl = function
    | Vreg v -> Hashtbl.replace tbl v (1 + Option.value (Hashtbl.find_opt tbl v) ~default:0)
    | _ -> ()
  in
  Array.iter
    (fun ins ->
      Option.iter (bump defs) (dest ins);
      List.iter (bump uses) (sources ins))
    instrs;
  fun v -> Hashtbl.find_opt defs v = Some 1 && Hashtbl.find_opt uses v = Some 1

(* A zero test feeding only a branch is the branch: [setne v <- c, $0;
   br v, A, B] becomes [br c, A, B], and [sete v <- c, $0; br v, A, B]
   inverts instead of negating, to [br c, B, A].  The branch must be
   the test's one use, later in the same block, with nothing in between
   writing [c]; the test itself goes ([v] has no other definition). *)
let invert_branches (instrs : instr array) : instr array =
  let n = Array.length instrs in
  let temp = temp instrs in
  let out = Array.copy instrs and gone = Array.make n false in
  let rec find_br v c j =
    if j >= n then None
    else
      match instrs.(j) with
      | Br (Vreg v', t, f) when v' = v -> Some (j, t, f)
      | Label _ | Jmp _ | Br _ | Exit _ -> None
      | ins when dest ins = Some c -> None
      | _ -> find_br v c (j + 1)
  in
  Array.iteri
    (fun i ins ->
      match ins with
      | Setcc (((Ceq | Cne) as cc), Vreg v, (Vreg _ as c), Imm 0L)
      | Setcc (((Ceq | Cne) as cc), Vreg v, Imm 0L, (Vreg _ as c))
        when temp v -> (
        match find_br v c (i + 1) with
        | Some (j, t, f) ->
          gone.(i) <- true;
          out.(j) <- (if cc = Ceq then Br (c, f, t) else Br (c, t, f))
        | None -> ())
      | _ -> ())
    instrs;
  if Array.exists Fun.id gone then
    Array.of_list (List.filteri (fun i _ -> not gone.(i)) (Array.to_list out))
  else instrs

(* Copy retargeting and add-chain folding, in one sweep over adjacent
   pairs whose first instruction defines a temporary [v_s] with exactly
   one definition and one use (a writeback map's mention counts as a
   use), that use being in the second:

   - [op v_s <- ...; mov d <- v_s] becomes [op d <- ...].  The op reads
     its sources before writing its destination, so [op] may read [d]
     itself ([add v1 <- v0, 1; mov v0 <- v1] becomes [add v0 <- v0, 1]);
     nothing sits between the two, so no instruction observes [d]'s new
     value one step early, and a faulting op writes neither.  Helper
     calls keep their result register: a call's effects are opaque.

   - [add v_s <- a, $k1; add d <- v_s, $k2] becomes [add d <- a,
     $(k1+k2)] (a move when the sum is 0): the Dag lowers a guest
     subtract-immediate as exactly such a pair.

   A merged instruction is the first of the next pair, so a chain folds
   in one sweep. *)
let retarget_copies (instrs : instr array) : instr array =
  let temp = temp instrs in
  let add_imm = function
    | Alu (Aadd, d, (Vreg _ | Preg _ as a), Imm k) | Alu (Aadd, d, Imm k, (Vreg _ | Preg _ as a)) ->
      Some (d, a, k)
    | _ -> None
  in
  let merge prev ins =
    match (prev, ins) with
    | Call _, _ -> None
    | _, Mov (d, Vreg s) when dest prev = Some (Vreg s) && temp s ->
      Some (map_operands (fun o -> if o = Vreg s then d else o) prev)
    | _ -> (
      match (add_imm prev, add_imm ins) with
      | Some (Vreg s, a, k1), Some (d, Vreg s', k2) when s = s' && temp s ->
        let k = Int64.add k1 k2 in
        Some (if k = 0L then Mov (d, a) else Alu (Aadd, d, a, Imm k))
      | _ -> None)
  in
  let out =
    Array.fold_left
      (fun out ins ->
        match out with
        | prev :: rest -> (
          match merge prev ins with Some m -> m :: rest | None -> ins :: out)
        | [] -> [ ins ])
      [] instrs
  in
  Array.of_list (List.rev out)

(* Defer guest-PC increments to the points that observe the PC: a run of
   [Inc_pc] collapses into one write before anything that can read or
   publish it — a [Load_pc], a helper call, a (possibly faulting) memory
   access, a [Poll], an [Exit] or a [Jmp] — and before a label that more
   than a fall-through reaches (so every join sees a synced PC).  A [Br]
   whose arms both lead to blocks it alone reaches hands the pending
   increment to both arms instead of writing it; the region entry
   (block 0) never takes one, the engine enters it too.  A [Store_pc]
   overwrites the PC wholesale, discarding whatever increment is still
   pending.  The PC is a guest register like any other, so this is
   dead-write elimination for the one register the block-at-a-time
   translator must keep synced after every instruction. *)
let coalesce_inc_pc (instrs : instr array) : instr array =
  let cfg = Cfg.build instrs in
  let only_from p b = b > p && cfg.Cfg.preds.(b) = [ p ] in
  (* The blocks a [Br] or [Jmp] closing block [b] hands the pending
     increment to: every target, when each is a later block that only
     [b] reaches. *)
  let heirs b ins =
    let targets = match ins with Br (_, t, f) -> [ t; f ] | Jmp l -> [ l ] | _ -> [] in
    let bs = List.filter_map (Cfg.block_of_label cfg) targets in
    if List.length bs = List.length targets && List.for_all (only_from b) bs then Some bs
    else None
  in
  let carried = Array.make (Cfg.nb cfg) 0 in
  let out = ref [] in
  let pending = ref 0 in
  let flush () =
    if !pending <> 0 then begin
      out := Inc_pc !pending :: !out;
      pending := 0
    end
  in
  Array.iteri
    (fun i ins ->
      let b = cfg.Cfg.block_of.(i) in
      match ins with
      | Inc_pc k -> pending := !pending + k
      | Store_pc _ ->
        pending := 0;
        out := ins :: !out
      | Label _ when only_from (b - 1) b && not (Cfg.is_terminator instrs.(i - 1)) ->
        (* reached only by falling through: straight-line *)
        out := ins :: !out
      | Label _ when carried.(b) <> 0 ->
        pending := carried.(b);
        out := ins :: !out
      | Br _ | Jmp _ ->
        (match heirs b ins with
        | Some bs ->
          List.iter (fun s -> carried.(s) <- !pending) bs;
          pending := 0
        | None -> flush ());
        out := ins :: !out
      | Load_pc _ | Call _ | Mem_ld _ | Mem_st _ | Exit _ | Poll _ | Label _ ->
        flush ();
        out := ins :: !out
      | _ -> out := ins :: !out)
    instrs;
  flush ();
  Array.of_list (List.rev !out)
