(* Hostir.Cfg: the block partition, edges, label index, the two loop
   notions and reachability on one hand-built stream, and the backward
   solver's vreg liveness against an instruction-level reference
   fixpoint on random branchy programs with back edges. *)

module Hir = Hostir.Hir
module Cfg = Hostir.Cfg
module Prng = Dbt_util.Prng

let v n = Hir.Vreg n

(* B0 branches forward into the second block of the two-block loop
   B2/B3 before reaching the self-loop B1, so DFS meets that loop at B3
   while its layout back edge (B3 -> B2) targets B2.  B5 is the
   writeback-map chunk after the last exit. *)
let stream =
  [|
    Hir.Label 0;
    Hir.Br (v 0, 3, 1);
    Hir.Label 1;
    Hir.Alu (Hir.Asub, v 0, v 0, Hir.Imm 1L);
    Hir.Br (v 0, 1, 2);
    Hir.Label 2;
    Hir.Mov (v 1, v 0);
    Hir.Label 3;
    Hir.Br (v 1, 2, 4);
    Hir.Label 4;
    Hir.Exit 0;
    Hir.Wbmap [| (v 0, 8) |];
  |]

let ints = Alcotest.(array int)
let lists = Alcotest.(array (list int))
let bools = Alcotest.(array bool)

let test_partition () =
  let c = Cfg.build stream in
  Alcotest.check ints "block starts" [| 0; 2; 5; 7; 9; 11 |] c.Cfg.starts;
  Alcotest.check ints "block ends" [| 2; 5; 7; 9; 11; 12 |] (Array.init (Cfg.nb c) (Cfg.block_end c));
  Alcotest.check ints "enclosing blocks" [| 0; 0; 1; 1; 1; 2; 2; 3; 3; 4; 4; 5 |] c.Cfg.block_of;
  Alcotest.check lists "successors" [| [ 3; 1 ]; [ 1; 2 ]; [ 3 ]; [ 2; 4 ]; []; [] |] c.Cfg.succs;
  Alcotest.check lists "predecessors" [| []; [ 0; 1 ]; [ 1; 3 ]; [ 0; 2 ]; [ 3 ]; [] |] c.Cfg.preds;
  Alcotest.(check (list (pair int int)))
    "label index"
    [ (0, 0); (1, 2); (2, 5); (3, 7); (4, 9) ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq c.Cfg.labels)));
  Alcotest.(check (option int)) "label block" (Some 3) (Cfg.block_of_label c 3);
  Alcotest.(check (option int)) "undefined label" None (Cfg.block_of_label c 9);
  Alcotest.check ints "empty stream: one empty block" [| 0 |] (Cfg.build [||]).Cfg.starts

let test_loops () =
  let c = Cfg.build stream in
  Alcotest.check bools "DFS loop heads" [| false; true; false; true; false; false |]
    (Cfg.loop_heads c);
  Alcotest.(check (list (pair int int)))
    "layout back edges, self-loop included" [ (1, 1); (3, 2) ] (Cfg.back_edges c);
  Alcotest.check bools "reachable" [| true; true; true; true; true; false |] (Cfg.reachable c)

(* --- liveness against an instruction-level reference -------------------------- *)

module Iset = Cfg.Iset

(* Every operand of a [Test_symexec.gen_program] stream becomes a vreg,
   and some forward jumps and branch arms are turned back to the
   current or an earlier block. *)
let loopy_program prng =
  let cur = ref 0 in
  let back l = if Prng.int prng 3 = 0 then Prng.int prng (!cur + 1) else l in
  Array.map
    (fun ins ->
      let ins =
        Hir.map_operands
          (function Hir.Preg p -> v p | Hir.Slot s -> v (16 + s) | o -> o)
          ins
      in
      match ins with
      | Hir.Label l ->
        cur := l;
        ins
      | Hir.Jmp l -> Hir.Jmp (back l)
      | Hir.Br (c, t, f) -> Hir.Br (c, back t, f)
      | _ -> ins)
    (Test_symexec.gen_program prng)

let reference_liveness ~pinned (prog : Hir.instr array) =
  let n = Array.length prog in
  let at = Hashtbl.create 8 in
  Array.iteri (fun i ins -> match ins with Hir.Label l -> Hashtbl.replace at l i | _ -> ()) prog;
  let succs i =
    match prog.(i) with
    | Hir.Jmp l -> [ Hashtbl.find at l ]
    | Hir.Br (_, t, f) -> [ Hashtbl.find at t; Hashtbl.find at f ]
    | Hir.Exit _ -> []
    | _ -> if i + 1 < n then [ i + 1 ] else []
  in
  let before = Array.make n pinned and after = Array.make n pinned in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      after.(i) <- List.fold_left (fun acc j -> Iset.union acc before.(j)) pinned (succs i);
      let killed =
        match Hir.dest prog.(i) with
        | Some (Hir.Vreg d) when not (Iset.mem d pinned) -> Iset.remove d after.(i)
        | _ -> after.(i)
      in
      let live =
        List.fold_left
          (fun acc o -> match o with Hir.Vreg x -> Iset.add x acc | _ -> acc)
          killed (Hir.sources prog.(i))
      in
      if not (Iset.equal live before.(i)) then begin
        before.(i) <- live;
        changed := true
      end
    done
  done;
  (before, after)

let prop_liveness =
  QCheck2.Test.make ~name:"block liveness equals the instruction-level fixpoint" ~count:500
    QCheck2.Gen.int64 (fun seed ->
      let prng = Prng.create (if seed = 0L then 1L else seed) in
      let prog = loopy_program prng in
      let pinned =
        if Prng.bool prng then Iset.empty
        else Iset.of_list (List.filter (fun _ -> Prng.bool prng) (List.init 8 Fun.id))
      in
      let prog =
        if Iset.is_empty pinned then prog
        else
          Array.append prog
            [| Hir.Wbmap (Array.of_list (List.map (fun x -> (v x, 8 * x)) (Iset.elements pinned))) |]
      in
      let c = Cfg.build prog in
      let live_in, live_out = Cfg.live_vregs c ~pinned in
      let before, after = reference_liveness ~pinned prog in
      Array.iteri
        (fun b start ->
          let last = Cfg.block_end c b - 1 in
          if not (Iset.equal live_in.(b) before.(start) && Iset.equal live_out.(b) after.(last))
          then failwith (Printf.sprintf "block %d (instructions %d-%d) differs" b start last))
        c.Cfg.starts;
      true)

let suite =
  ( "cfg",
    [
      Alcotest.test_case "partition, edges and label index" `Quick test_partition;
      Alcotest.test_case "DFS heads, layout back edges, reachability" `Quick test_loops;
      QCheck_alcotest.to_alcotest prop_liveness;
    ] )
