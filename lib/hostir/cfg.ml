(* The one control-flow graph of a label-form HostIR stream, and the one
   dataflow solver every HostIR pass runs on it.

   Blocks start at index 0, at every label and after every terminator
   ([Jmp], [Br], [Exit]), so a label only ever opens a block and a
   terminator only ever closes one.  Successors follow the terminator
   (both [Br] arms, in order, duplicates kept) or fall through; an
   [Exit] or the last block has none.  A jump to a label the stream does
   not define has no edge.

   Two notions of loop live here, because the passes need different
   ones: [loop_heads] are the targets of DFS back edges from block 0
   (what Absint widens at: every cycle reachable from the entry passes
   one), and [back_edges] are the layout back edges, jumps to a block at
   or before the jumping one (what Regalloc extends live ranges over and
   Promote weights loop bodies by: a region's loop body is the layout
   span the back edge closes). *)

open Hir
module Iset = Set.Make (Int)

let label_index (instrs : instr array) =
  let idx = Hashtbl.create 16 in
  Array.iteri (fun i ins -> match ins with Label l -> Hashtbl.replace idx l i | _ -> ()) instrs;
  idx

type t = {
  instrs : instr array;
  labels : (int, int) Hashtbl.t;
  starts : int array;
  block_of : int array;
  succs : int list array;
  preds : int list array;
}

let nb t = Array.length t.starts
let block_end t b = if b + 1 < nb t then t.starts.(b + 1) else Array.length t.instrs
let block_of_label t l = Option.map (fun i -> t.block_of.(i)) (Hashtbl.find_opt t.labels l)
let is_terminator = function Jmp _ | Br _ | Exit _ -> true | _ -> false

(* Depth-first from block 0; a head is the target of an edge to a block
   still on the DFS stack. *)
let loop_heads t =
  let succs = t.succs and nb = nb t in
  let visited = Array.make nb false and on_stack = Array.make nb false in
  let heads = Array.make nb false in
  let rec dfs b =
    visited.(b) <- true;
    on_stack.(b) <- true;
    List.iter
      (fun s -> if not visited.(s) then dfs s else if on_stack.(s) then heads.(s) <- true)
      succs.(b);
    on_stack.(b) <- false
  in
  dfs 0;
  heads

let build (instrs : instr array) : t =
  let n = Array.length instrs in
  let labels = label_index instrs in
  let block_of = Array.make n 0 in
  let starts = ref [ 0 ] and b = ref 0 in
  for i = 1 to n - 1 do
    if match instrs.(i) with Label _ -> true | _ -> is_terminator instrs.(i - 1) then begin
      incr b;
      starts := i :: !starts
    end;
    block_of.(i) <- !b
  done;
  let starts = Array.of_list (List.rev !starts) in
  let nb = Array.length starts in
  let target l = Option.map (fun i -> block_of.(i)) (Hashtbl.find_opt labels l) in
  let succs =
    Array.init nb (fun b ->
        let e = if b + 1 < nb then starts.(b + 1) else n in
        if e = 0 then []
        else
          match instrs.(e - 1) with
          | Jmp l -> Option.to_list (target l)
          | Br (_, t, f) -> List.filter_map target [ t; f ]
          | Exit _ -> []
          | _ -> if b + 1 < nb then [ b + 1 ] else [])
  in
  let preds = Array.make nb [] in
  for b = nb - 1 downto 0 do
    List.iter (fun s -> preds.(s) <- b :: preds.(s)) succs.(b)
  done;
  { instrs; labels; starts; block_of; succs; preds }

let back_edges t =
  List.concat
    (List.init (nb t) (fun b ->
         List.filter_map (fun s -> if s <= b then Some (b, s) else None) t.succs.(b)))

let reachable t =
  let seen = Array.make (nb t) false in
  let rec go b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter go t.succs.(b)
    end
  in
  go 0;
  seen

(* --- the solver --------------------------------------------------------------- *)

(* FIFO worklist: a block is (re)queued when its entry state is first
   set or changes, and processed with whatever state it holds when
   popped. *)
let forward t ~seeds ~merge ~equal ~transfer =
  let heads = loop_heads t in
  let st = Array.make (nb t) None and queued = Array.make (nb t) false in
  let work = Queue.create () in
  let flow ~head b x =
    let changed =
      match st.(b) with
      | None ->
        st.(b) <- Some x;
        true
      | Some old ->
        let m = merge ~head old x in
        if equal old m then false
        else (
          st.(b) <- Some m;
          true)
    in
    if changed && not queued.(b) then begin
      queued.(b) <- true;
      Queue.add b work
    end
  in
  List.iter (fun (b, x) -> flow ~head:false b x) seeds;
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    queued.(b) <- false;
    Option.iter
      (fun x ->
        let out = transfer b x in
        List.iter (fun s -> flow ~head:heads.(s) s out) t.succs.(b))
      st.(b)
  done;
  st

let backward t ~bottom ~exit ~join ~equal ~transfer =
  let nb = nb t in
  let st_in = Array.make nb bottom and queued = Array.make nb true in
  let out b =
    match t.succs.(b) with
    | [] -> exit
    | ss -> List.fold_left (fun acc s -> join acc st_in.(s)) bottom ss
  in
  let work = Queue.create () in
  for b = nb - 1 downto 0 do
    Queue.add b work
  done;
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    queued.(b) <- false;
    let x = transfer b (out b) in
    if not (equal x st_in.(b)) then begin
      st_in.(b) <- x;
      List.iter
        (fun p ->
          if not queued.(p) then begin
            queued.(p) <- true;
            Queue.add p work
          end)
        t.preds.(b)
    end
  done;
  (st_in, Array.init nb out)

(* --- vreg liveness ------------------------------------------------------------ *)

let live_step ~pinned live ins =
  let live =
    match dest ins with
    | Some (Vreg d) when not (Iset.mem d pinned) -> Iset.remove d live
    | _ -> live
  in
  List.fold_left (fun acc o -> match o with Vreg v -> Iset.add v acc | _ -> acc) live (sources ins)

let live_vregs t ~pinned =
  backward t ~bottom:pinned ~exit:pinned ~join:Iset.union ~equal:Iset.equal
    ~transfer:(fun b out ->
      let live = ref out in
      for i = block_end t b - 1 downto t.starts.(b) do
        live := live_step ~pinned !live t.instrs.(i)
      done;
      !live)
