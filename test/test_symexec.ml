(* Symbolic-executor and translation-validation tests.

   The load-bearing property: on random branchy HostIR programs, the
   exit state Symexec predicts symbolically — chain slot, PC, register
   file, host registers — matches what the concrete executor (Exec)
   computes from a random initial state, with the symbolic terms
   evaluated under that same state.  This pins the smart constructors'
   constant folding and normalization to the concrete semantics.

   Then Equiv itself: normalization equates intentionally-different but
   equivalent programs (commuted adds, mask-vs-zext), a promoted loop
   validates against its unpromoted original (also after absint-simplify's
   jump threading and copy retargeting), and four seeded miscompiles —
   swapped compare operands, a dropped writeback-map entry, a widened
   store, a copy retargeted although its temporary has a second use —
   are each rejected with findings. *)

module Hir = Hostir.Hir
module S = Hostir.Symexec
module E = Hostir.Equiv
module Pl = Hostir.Pipeline
module Exec = Hostir.Exec
module Encode = Hostir.Encode
module Prng = Dbt_util.Prng

let v n = Hir.Vreg n

(* --- random program generation ------------------------------------------------ *)

let conds =
  [| Hir.Ceq; Cne; Cult; Cule; Cugt; Cuge; Cslt; Csle; Csgt; Csge |]

let alus = [| Hir.Aadd; Asub; Aand; Aor; Axor; Ashl; Ashr; Asar; Amul |]

let bit1s =
  [| Hir.Bclz32; Bclz64; Bpopcnt; Bswap16; Bswap32; Bswap64; Brbit32; Brbit64 |]

let bit2s = [| Hir.Bror32; Bror64 |]
let n_pregs = 6
let n_offs = 5
let n_slots = 3

(* A random label-form program: [nb] blocks over Preg 0..5, spill slots
   0..2 and rf offsets 0..32, branches and jumps strictly forward (no
   loops, so the symbolic run is complete and exactly one path matches
   any concrete state), last block exits.  About one operand in five is a
   spill slot, so the executor's generic path is checked alongside its
   specialised register/immediate shapes. *)
let gen_program prng =
  let nb = 2 + Prng.int prng 4 in
  let instrs = ref [] in
  let emit i = instrs := i :: !instrs in
  let preg () =
    if Prng.int prng 5 = 0 then Hir.Slot (Prng.int prng n_slots) else Hir.Preg (Prng.int prng n_pregs)
  in
  let operand () =
    match Prng.int prng 3 with
    | 0 -> Hir.Imm (Int64.of_int (Prng.int prng 2000 - 1000))
    | 1 -> Hir.Imm (Prng.int64 prng)
    | _ -> preg ()
  in
  let off () = 8 * Prng.int prng n_offs in
  let fwd b = b + 1 + Prng.int prng (nb - 1 - b) in
  for b = 0 to nb - 1 do
    emit (Hir.Label b);
    for _ = 1 to 2 + Prng.int prng 6 do
      match Prng.int prng 16 with
      | 0 -> emit (Hir.Mov (preg (), operand ()))
      | 1 | 2 -> emit (Hir.Alu (alus.(Prng.int prng 9), preg (), operand (), operand ()))
      | 3 -> emit (Hir.Setcc (conds.(Prng.int prng 10), preg (), operand (), operand ()))
      | 4 -> emit (Hir.Cmov (preg (), operand (), operand (), operand ()))
      | 5 ->
        emit (Hir.Ext (Prng.bool prng, [| 8; 16; 32 |].(Prng.int prng 3), preg (), operand ()))
      | 6 -> emit (Hir.Neg (preg (), operand ()))
      | 7 -> emit (Hir.Not (preg (), operand ()))
      | 8 -> emit (Hir.Bit1 (bit1s.(Prng.int prng 8), preg (), operand ()))
      | 9 -> emit (Hir.Bit2 (bit2s.(Prng.int prng 2), preg (), operand (), operand ()))
      | 10 -> emit (Hir.Mulhi (Prng.bool prng, preg (), operand (), operand ()))
      | 11 -> emit (Hir.Divrem (Prng.bool prng, Prng.bool prng, preg (), operand (), operand ()))
      | 12 -> emit (Hir.Strf (off (), operand ()))
      | 13 -> emit (Hir.Ldrf (preg (), off ()))
      | 14 ->
        emit
          (Hir.Flags_add
             ((if Prng.bool prng then 32 else 64), preg (), operand (), operand (), operand ()))
      | _ -> (
        match Prng.int prng 3 with
        | 0 -> emit (Hir.Flags_logic ((if Prng.bool prng then 32 else 64), preg (), operand ()))
        | 1 -> emit (Hir.Load_pc (preg ()))
        | _ -> emit (Hir.Inc_pc (4 * (1 + Prng.int prng 4))))
    done;
    if b = nb - 1 then emit (Hir.Exit (Prng.int prng 4))
    else
      match Prng.int prng 4 with
      | 0 -> emit (Hir.Exit (Prng.int prng 4))
      | 1 -> emit (Hir.Jmp (fwd b))
      | 2 -> emit (Hir.Br (preg (), fwd b, b + 1))
      | _ -> () (* fall through into the next block *)
  done;
  Array.of_list (List.rev !instrs)

(* Label form -> index form (what Encode.decode_program produces), so the
   concrete executor can run the same program. *)
let indexify (prog : Hir.instr array) : Encode.program =
  let label_at = Hashtbl.create 8 in
  Array.iteri
    (fun i ins ->
      match ins with
      | Hir.Label l -> if not (Hashtbl.mem label_at l) then Hashtbl.add label_at l i
      | _ -> ())
    prog;
  let code =
    Array.map
      (function
        | Hir.Jmp l -> Hir.Jmp (Hashtbl.find label_at l)
        | Hir.Br (c, t, f) -> Hir.Br (c, Hashtbl.find label_at t, Hashtbl.find label_at f)
        | i -> i)
      prog
  in
  { Encode.code;
    offsets = Array.init (Array.length code) (fun i -> 4 * i);
    byte_size = 4 * Array.length code;
    n_slots;
    wb_map = [||]
  }

let mk_ctx () =
  let machine = Hvm.Machine.create ~mem_size:(4 * 1024 * 1024) () in
  Exec.create ~machine ~helpers:[||] ~fault_handler:(fun _ _ _ ~bits:_ ~value:_ -> Exec.Retry)

(* --- soundness: symbolic exit state = concrete execution ----------------------- *)

let prop_symexec_matches_concrete =
  QCheck2.Test.make ~name:"symexec exit state matches concrete execution" ~count:1000
    QCheck2.Gen.int64 (fun seed ->
      let prng = Prng.create (if seed = 0L then 1L else seed) in
      let prog = gen_program prng in
      (* random concrete initial state *)
      let pc0 = Int64.logand (Prng.int64 prng) 0xFFFF_FFFF_FFF0L in
      let preg0 = Array.init 16 (fun _ -> Prng.int64 prng) in
      let rf0 = Array.init n_offs (fun _ -> Prng.int64 prng) in
      let slot0 = Array.init n_slots (fun _ -> Prng.int64 prng) in
      let ctx = mk_ctx () in
      Exec.set_pc ctx pc0;
      Array.iteri (fun i x -> Exec.set_reg ctx i x) preg0;
      Array.iteri (fun i x -> Exec.rf_write ctx (8 * i) x) rf0;
      ctx.Exec.slots <- Bytes.create (8 * n_slots);
      Array.iteri (fun i x -> Bytes.set_int64_ne ctx.Exec.slots (8 * i) x) slot0;
      let slot = Exec.run ctx (Exec.compile (indexify prog)) in
      (* symbolic run from the fully symbolic initial state *)
      let r = S.run ~init_pc:(S.Atom S.A_pc) prog in
      if not r.S.complete then failwith "bounded run on a loop-free program";
      let env =
        {
          S.e_pc = pc0;
          e_preg = (fun i -> preg0.(i));
          e_rf = (fun off -> if off / 8 < n_offs && off mod 8 = 0 then rf0.(off / 8) else 0L);
          e_slot = (fun s -> slot0.(s));
        }
      in
      let holds (t, b) = S.eval env t <> 0L = b in
      (* exactly one symbolic path is consistent with the concrete state *)
      let x =
        match List.filter (fun x -> List.for_all holds x.S.x_lits) r.S.exits with
        | [ x ] -> x
        | l -> failwith (Printf.sprintf "%d consistent paths" (List.length l))
      in
      let check what a b =
        if a <> b then failwith (Printf.sprintf "%s: symbolic %Ld <> concrete %Ld" what a b)
      in
      if x.S.x_slot <> slot then
        failwith (Printf.sprintf "exit slot: symbolic %d <> concrete %d" x.S.x_slot slot);
      check "pc" (S.eval env x.S.x_pc) (Exec.get_pc ctx);
      List.iter (fun (off, t) -> check (Printf.sprintf "rf[%d]" off) (S.eval env t) (Exec.rf_read ctx off)) x.S.x_rf;
      (* offsets absent from the canonical exit rf must be untouched *)
      for i = 0 to n_offs - 1 do
        if not (List.mem_assoc (8 * i) x.S.x_rf) then
          check (Printf.sprintf "rf[%d] untouched" (8 * i)) rf0.(i) (Exec.rf_read ctx (8 * i))
      done;
      List.iter (fun (g, t) -> check (Printf.sprintf "r%d" g) (S.eval env t) (Exec.get_reg ctx g)) x.S.x_pregs;
      for g = 0 to n_pregs - 1 do
        if not (List.mem_assoc g x.S.x_pregs) then
          check (Printf.sprintf "r%d untouched" g) preg0.(g) (Exec.get_reg ctx g)
      done;
      true)

(* --- Equiv: normalization equates equivalent programs -------------------------- *)

let check_equiv ~opt ~reference =
  E.check ~init_pc:(S.Const 0x1000L) ~opt ~reference ()

let test_normalization_equates () =
  (* commuted add *)
  let r =
    check_equiv
      ~opt:[| Hir.Alu (Aadd, v 0, Preg 0, Preg 1); Strf (0, v 0); Exit 0 |]
      ~reference:[| Hir.Alu (Aadd, v 5, Preg 1, Preg 0); Strf (0, v 5); Exit 0 |]
  in
  Alcotest.(check bool) "a+b = b+a" true r.E.ok;
  (* mask vs zero-extension *)
  let r =
    check_equiv
      ~opt:[| Hir.Alu (Aand, v 0, Preg 0, Imm 0xFFL); Strf (0, v 0); Exit 0 |]
      ~reference:[| Hir.Ext (false, 8, v 0, Preg 0); Strf (0, v 0); Exit 0 |]
  in
  Alcotest.(check bool) "x & 0xFF = zext8 x" true r.E.ok;
  (* reassociation with constant folding *)
  let r =
    check_equiv
      ~opt:
        [|
          Hir.Alu (Aadd, v 0, Preg 0, Imm 3L);
          Hir.Alu (Aadd, v 1, v 0, Preg 1);
          Hir.Alu (Aadd, v 2, v 1, Imm 4L);
          Strf (0, v 2);
          Exit 0;
        |]
      ~reference:
        [|
          Hir.Alu (Aadd, v 0, Preg 1, Imm 7L);
          Hir.Alu (Aadd, v 1, v 0, Preg 0);
          Strf (0, v 1);
          Exit 0;
        |]
  in
  Alcotest.(check bool) "(a+3)+b+4 = (b+7)+a" true r.E.ok;
  (* and a genuinely different program is rejected *)
  let r =
    check_equiv
      ~opt:[| Hir.Alu (Asub, v 0, Preg 0, Preg 1); Strf (0, v 0); Exit 0 |]
      ~reference:[| Hir.Alu (Asub, v 0, Preg 1, Preg 0); Strf (0, v 0); Exit 0 |]
  in
  Alcotest.(check bool) "a-b <> b-a" false r.E.ok

(* --- Equiv vs the optimizer, and seeded miscompiles ---------------------------- *)

(* A promotable two-counter loop with a store and a compare; Promote
   caches both rf offsets and emits a writeback map. *)
let promo_stream =
  [|
    Hir.Label 0;
    Hir.Ldrf (v 0, 8);
    Hir.Alu (Aadd, v 0, v 0, Imm 1L);
    Hir.Strf (8, v 0);
    Hir.Ldrf (v 1, 16);
    Hir.Alu (Asub, v 1, v 1, Imm 3L);
    Hir.Strf (16, v 1);
    Hir.Setcc (Cult, v 3, v 0, Imm 100L);
    Hir.Strf (24, v 3);
    Hir.Mem_st (32, v 0, v 1);
    Hir.Br (v 1, 0, 1);
    Hir.Label 1;
    Hir.Exit 1;
  |]

let promoted_stream () =
  let out, promoted, _ = Test_promote.promote promo_stream in
  Alcotest.(check bool) "promotion happened" true (promoted <> []);
  out

let test_equiv_accepts_promotion () =
  let out = promoted_stream () in
  let r = check_equiv ~opt:out ~reference:promo_stream in
  if not r.E.ok then
    Alcotest.failf "promoted loop rejected: %s"
      (String.concat "\n" (List.map (fun f -> f.E.f_name ^ ": " ^ f.E.f_detail) r.E.findings));
  (* the loop is k-bounded, so the run is incomplete but the explored
     iterations all matched *)
  Alcotest.(check bool) "k-bounded" false r.E.complete

let mutate1 what f out =
  let hit = ref false in
  let out =
    Array.map
      (fun i ->
        match f i with
        | Some i' when not !hit ->
          hit := true;
          i'
        | _ -> i)
      out
  in
  Alcotest.(check bool) (what ^ " mutation applied") true !hit;
  out

let expect_rejected what out =
  let r = check_equiv ~opt:out ~reference:promo_stream in
  Alcotest.(check bool) (what ^ " rejected") false r.E.ok;
  Alcotest.(check bool) (what ^ " has findings") true (r.E.findings <> [])

let test_rejects_swapped_compare () =
  (* swap the operands of the unsigned compare: v < 100 becomes 100 < v *)
  promoted_stream ()
  |> mutate1 "setcc-swap" (function
       | Hir.Setcc (Cult, d, a, b) -> Some (Hir.Setcc (Cult, d, b, a))
       | _ -> None)
  |> expect_rejected "swapped compare"

let test_rejects_dropped_wbmap_entry () =
  promoted_stream ()
  |> mutate1 "wbmap-drop" (function
       | Hir.Wbmap m when Array.length m > 0 -> Some (Hir.Wbmap (Array.sub m 0 (Array.length m - 1)))
       | _ -> None)
  |> expect_rejected "dropped writeback entry"

let test_rejects_widened_store () =
  promoted_stream ()
  |> mutate1 "store-widen" (function
       | Hir.Mem_st (32, a, s) -> Some (Hir.Mem_st (64, a, s))
       | _ -> None)
  |> expect_rejected "widened store"

(* absint-simplify's closing rewrites on the promoted loop: the compare
   result's single-use temporary is retargeted into its promoted
   register, and Equiv still accepts the stream. *)
let simplified_stream () =
  let st =
    Pl.run Pl.Simplify
      { Pl.default_env with Pl.classify = Hostir.Effects.classify }
      (Pl.start (promoted_stream ()))
  in
  Alcotest.(check bool) "a copy was retargeted" true
    (List.assoc "absint_copies_retargeted" st.Pl.counts > 0);
  st.Pl.instrs

let test_equiv_accepts_rewrites () =
  let r = check_equiv ~opt:(simplified_stream ()) ~reference:promo_stream in
  if not r.E.ok then
    Alcotest.failf "rewritten loop rejected: %s"
      (String.concat "\n" (List.map (fun f -> f.E.f_name ^ ": " ^ f.E.f_detail) r.E.findings))

(* The miscompile the use count guards against: retarget the counter
   increment's temporary into its promoted register although the
   compare and the store still read the temporary. *)
let test_rejects_multi_use_retarget () =
  let out = simplified_stream () in
  let bad = ref [] and hit = ref false and i = ref 0 in
  while !i < Array.length out do
    (match (out.(!i), if !i + 1 < Array.length out then Some out.(!i + 1) else None) with
    | Hir.Alu (op, (Hir.Vreg _ as t), a, b), Some (Hir.Mov (d, t')) when t = t' && not !hit ->
      hit := true;
      bad := Hir.Alu (op, d, a, b) :: !bad;
      incr i
    | ins, _ -> bad := ins :: !bad);
    incr i
  done;
  let bad = Array.of_list (List.rev !bad) in
  Alcotest.(check bool) "mutation applied" true !hit;
  expect_rejected "multi-use retarget" bad

(* A loop that bumps rf[8] on both sides of a helper call [h].  The
   address-space switch cannot observe the register file, so the
   promoted counter stays dirty across it; a clobber helper is a
   barrier, so Promote flushes the counter before it and reloads it
   after. *)
let call_stream h =
  [|
    Hir.Label 0;
    Hir.Ldrf (v 0, 8);
    Hir.Alu (Aadd, v 0, v 0, Imm 1L);
    Hir.Strf (8, v 0);
    Hir.Call (h, [| Hir.Preg 0 |], None);
    Hir.Ldrf (v 1, 8);
    Hir.Alu (Aadd, v 1, v 1, Imm 2L);
    Hir.Strf (8, v 1);
    Hir.Br (v 1, 0, 1);
    Hir.Label 1;
    Hir.Exit 1;
  |]

let classify = Hostir.Effects.classify

let check_calls ~opt h =
  E.check ~classify ~init_pc:(S.Const 0x1000L) ~opt ~reference:(call_stream h) ()

let promote_calls h =
  match Test_promote.promote ~classify (call_stream h) with
  | out, [ (pv, 8) ], _ -> (out, pv)
  | _ -> Alcotest.fail "rf[8] not promoted"

let call_rf_rejected what r =
  Alcotest.(check bool) (what ^ " rejected") false r.E.ok;
  Alcotest.(check bool) (what ^ ": call-rf finding") true
    (List.exists (fun f -> f.E.f_name = "call-rf") r.E.findings)

(* Across an as-switch call the validator compares the architectural
   register file (the raw one with the writeback map applied), so a
   promoted value that is wrong only at the call — bumped before it and
   restored after, leaving every exit state intact — is still caught. *)
let test_rejects_wrong_value_at_as_switch () =
  let h = Hostir.Effects.h_as_switch in
  let out, pv = promote_calls h in
  Alcotest.(check bool) "no flush before the call" false
    (Array.exists (function Hir.Strf (8, _) -> true | _ -> false) out);
  let r = check_calls ~opt:out h in
  if not r.E.ok then
    Alcotest.failf "promoted loop rejected: %s"
      (String.concat "\n" (List.map (fun f -> f.E.f_name ^ ": " ^ f.E.f_detail) r.E.findings));
  let bad =
    Array.concat
      (List.map
         (function
           | Hir.Call (h', _, _) as c when h' = h ->
             [| Hir.Alu (Aadd, v pv, v pv, Imm 1L); c; Hir.Alu (Aadd, v pv, v pv, Imm (-1L)) |]
           | ins -> [| ins |])
         (Array.to_list out))
  in
  call_rf_rejected "wrong value at the as-switch call" (check_calls ~opt:bad h)

(* A barrier helper reads the raw register file: dropping the flush in
   front of it is caught at the call, although the reload after the
   clobber hides it from every exit. *)
let test_rejects_dropped_flush () =
  let h = Hostir.Effects.h_take_exception in
  let out, pv = promote_calls h in
  let r = check_calls ~opt:out h in
  Alcotest.(check bool) "promoted loop validates" true r.E.ok;
  let bad =
    mutate1 "flush-drop"
      (function Hir.Strf (8, Hir.Vreg p) when p = pv -> Some (Hir.Label 99) | _ -> None)
      out
  in
  call_rf_rejected "dropped flush" (check_calls ~opt:bad h)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "symexec",
    [
      q prop_symexec_matches_concrete;
      Alcotest.test_case "normalization equates equivalent programs" `Quick
        test_normalization_equates;
      Alcotest.test_case "promoted loop validates against its original" `Quick
        test_equiv_accepts_promotion;
      Alcotest.test_case "swapped compare operands rejected" `Quick test_rejects_swapped_compare;
      Alcotest.test_case "dropped Wbmap entry rejected" `Quick test_rejects_dropped_wbmap_entry;
      Alcotest.test_case "widened store rejected" `Quick test_rejects_widened_store;
      Alcotest.test_case "rewritten promoted loop validates" `Quick test_equiv_accepts_rewrites;
      Alcotest.test_case "multi-use copy retarget rejected" `Quick test_rejects_multi_use_retarget;
      Alcotest.test_case "wrong value carried into an as-switch call rejected" `Quick
        test_rejects_wrong_value_at_as_switch;
      Alcotest.test_case "dropped flush before a clobber call rejected" `Quick
        test_rejects_dropped_flush;
    ] )
