(* The tier-1 region pipeline: every pass between the Dag's flattened
   region stream and register allocation, declared once, in order, in
   [passes].  The engine's region front end runs it in three stages:
   [Shape] once per region, then [Promote] and [Simplify] once per
   promotion width it tries, checking the writeback discipline after
   each of those two.  A pass runs as often as it is listed. *)

open Hir

type stage = Shape | Promote | Simplify

type env = {
  dispatch : (int * int64 list * int) list;
  member_entry : (int64 * int) list;
  classify : int -> Effects.helper_kind;
  max_regs : int;
}

let default_env =
  { dispatch = []; member_entry = []; classify = (fun _ -> Effects.C_clobber); max_regs = 4 }

type state = { instrs : instr array; promoted : (int * int) list; counts : (string * int) list }

let start instrs = { instrs; promoted = []; counts = [] }

(* Add [v] to the count [name]. *)
let note name v st =
  let old = Option.value (List.assoc_opt name st.counts) ~default:0 in
  { st with counts = (name, old + v) :: List.remove_assoc name st.counts }

(* A pass that only rewrites the stream, and one whose rewrite is
   counted under [name] as [measure before after]. *)
let rewrite f _ st = { st with instrs = f st.instrs }

let counted name measure f _ st =
  let out = f st.instrs in
  note name (measure st.instrs out) { st with instrs = out }

let removed before after = Array.length before - Array.length after
let jumps p = Array.fold_left (fun k -> function Jmp _ -> k + 1 | _ -> k) 0 p
let jumps_removed before after = jumps before - jumps after

let straighten env st =
  let instrs, relativized, straightened =
    Region.straighten ~dispatch:env.dispatch ~member_entry:env.member_entry st.instrs
  in
  { st with instrs }
  |> note "region_pc_writes_relativized" relativized
  |> note "region_dispatch_straightened" straightened

let promote_regs env st =
  let instrs, promoted, wb_entries =
    Promote.promote_regs ~max_regs:env.max_regs ~classify:env.classify st.instrs
  in
  { st with instrs; promoted }
  |> note "rf_promoted" (List.length promoted)
  |> note "region_wb_entries" wb_entries

let fold env st =
  let instrs, branches, consts, masks = Absint.fold ~classify:env.classify st.instrs in
  { st with instrs }
  |> note "absint_branches_folded" branches
  |> note "absint_consts_folded" consts
  |> note "absint_masks_dropped" masks

let copy_prop env st = { st with instrs = Absint.copy_prop ~classify:env.classify st.instrs }
let canonicalize = rewrite (Array.map Promote.canonicalize)
let dead_code = counted "absint_dead_deleted" removed Absint.dead_code
let threaded f = counted "absint_jumps_threaded" jumps_removed f

(* Folded branches and deleted chunk bodies leave chains of jumps to the
   next label, and promotion leaves single-use temporaries copied into
   promoted registers: both cost an executed host instruction.  Once the
   chains are threaded and the dead PC reads deleted, PC increments sink
   further into branch arms, where they often cancel and leave an arm
   that only jumps; a jump to a lone branch takes the branch, and
   threading runs again.  With the jumps gone, copies meet across labels
   that were only seams; the moves they leave dead go, and a zero test
   whose copies resolved becomes its branch. *)
let passes =
  [
    ("straighten", Shape, straighten);
    ("thread_jumps", Shape, rewrite Region.thread_jumps);
    ("coalesce_inc_pc", Shape, rewrite Region.coalesce_inc_pc);
    ("promote_regs", Promote, promote_regs);
    ("canonicalize", Promote, canonicalize);
    ("copy_prop", Promote, copy_prop);
    ("rf_forward", Promote, rewrite Promote.rf_forward);
    ("canonicalize", Promote, canonicalize);
    ("copy_prop", Promote, copy_prop);
    ("fold", Simplify, fold);
    ("dead_code", Simplify, dead_code);
    ("prune_unreachable", Simplify, rewrite Region.prune_unreachable);
    ("thread_jumps", Simplify, threaded Region.thread_jumps);
    ("coalesce_inc_pc", Simplify, rewrite Region.coalesce_inc_pc);
    ("jump_to_branch", Simplify, threaded Region.jump_to_branch);
    ("thread_jumps", Simplify, threaded Region.thread_jumps);
    ("copy_prop", Simplify, copy_prop);
    ("dead_code", Simplify, dead_code);
    ("invert_branches", Simplify, rewrite Region.invert_branches);
    ("retarget_copies", Simplify, counted "absint_copies_retargeted" removed Region.retarget_copies);
  ]

let run stage env st =
  List.fold_left (fun st (_, s, pass) -> if s = stage then pass env st else st) st passes
