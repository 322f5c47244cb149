(* Register-promotion tests: the pipeline's promotion stage rewrites
   synthetic streams as specified (promotion, rf forwarding,
   identity-ALU canonicalization, one add for a promoted counter), the
   writeback verifier rejects the documented bad shapes, and two
   differential properties check that promoted regions are
   observationally equivalent to per-block tier-0 execution — including
   when guest faults are delivered from the middle of a promoted
   region. *)

module H = Hostir.Hir
module Pl = Hostir.Pipeline
module V = Hostir.Verify
module A = Guest_arm.Arm_asm
module CE = Captive.Engine
module K = Workloads.Kernel

let v n = H.Vreg n

(* --- the promotion stage on synthetic streams --------------------------------------- *)

let count p instrs = Array.fold_left (fun a i -> if p i then a + 1 else a) 0 instrs

(* The pipeline's promotion stage: the stream, the promotion list and
   the stage's counts. *)
let promote ?(classify = Pl.default_env.Pl.classify) stream =
  let st = Pl.run Pl.Promote { Pl.default_env with Pl.classify } (Pl.start stream) in
  (st.Pl.instrs, st.Pl.promoted, st.Pl.counts)

let test_promotion_rewrite () =
  (* A two-offset loop body: both offsets are loop-weighted well past
     the promotion threshold, so both get cached and the stream ends in
     a writeback map covering the dirty pair. *)
  let stream =
    [|
      H.Label 0;
      H.Ldrf (v 0, 8);
      H.Alu (H.Aadd, v 0, v 0, H.Imm 1L);
      H.Strf (8, v 0);
      H.Ldrf (v 1, 16);
      H.Alu (H.Asub, v 1, v 1, H.Imm 1L);
      H.Strf (16, v 1);
      H.Br (v 1, 0, 1);
      H.Label 1;
      H.Exit 1;
    |]
  in
  let out, promoted, counts = promote stream in
  Alcotest.(check int) "both offsets promoted" 2 (List.length promoted);
  let pv o = match o with H.Vreg r -> List.mem_assoc r promoted | _ -> false in
  Alcotest.(check int) "2 loads rewritten into moves from promoted registers" 2
    (count (function H.Mov (_, s) -> pv s | _ -> false) out);
  Alcotest.(check int) "2 stores rewritten into moves to promoted registers" 2
    (count (function H.Mov (d, _) -> pv d | _ -> false) out);
  Alcotest.(check int) "both dirty offsets in the map" 2 (List.assoc "region_wb_entries" counts);
  Alcotest.(check int) "one writeback map"
    1 (count (function H.Wbmap _ -> true | _ -> false) out);
  (* Interior accesses are gone: the only Ldrfs left are the two
     prologue loads, and no Strf survives (the map covers exits). *)
  Alcotest.(check int) "only prologue rf loads remain"
    2 (count (function H.Ldrf _ -> true | _ -> false) out);
  Alcotest.(check int) "no interior rf stores remain"
    0 (count (function H.Strf _ -> true | _ -> false) out);
  Alcotest.(check_raises) "verifier accepts the rewrite" Not_found (fun () ->
      V.check_wb_exn ~promoted out;
      raise Not_found)

(* The cost model prices only barrier calls: a loop whose calls are an
   address-space switch and a softfloat helper keeps its counter in a
   register with no flush or reload around them, while the same loop
   with every helper a clobber is not worth promoting. *)
let test_cost_model_prices_barriers () =
  let stream =
    [|
      H.Label 0;
      H.Ldrf (v 0, 8);
      H.Alu (H.Aadd, v 0, v 0, H.Imm 1L);
      H.Call (Hostir.Effects.h_as_switch, [| v 0 |], None);
      H.Call (Hostir.Effects.first_softfloat, [| v 0 |], Some (v 1));
      H.Strf (8, v 0);
      H.Br (v 1, 0, 1);
      H.Label 1;
      H.Exit 1;
    |]
  in
  let _, promoted, _ = promote stream in
  Alcotest.(check int) "every call a barrier: not promoted" 0 (List.length promoted);
  let out, promoted, _ = promote ~classify:Hostir.Effects.classify stream in
  Alcotest.(check int) "transparent calls: promoted" 1 (List.length promoted);
  Alcotest.(check int) "no register-file access but the prologue" 1
    (count (function H.Ldrf _ | H.Strf _ -> true | _ -> false) out)

let test_rf_forward_and_canonicalize () =
  (* Below the promotion threshold, a register-file store still forwards
     into the next load of the same offset. *)
  let out, promoted, _ =
    promote [| H.Strf (24, v 0); H.Ldrf (v 1, 24); H.Exit 0 |]
  in
  Alcotest.(check int) "cold offset not promoted" 0 (List.length promoted);
  Alcotest.(check int) "rf load forwarded" 0 (count (function H.Ldrf _ -> true | _ -> false) out);
  Alcotest.(check int) "the load reads the stored value" 1
    (count (( = ) (H.Mov (v 1, v 0))) out);
  Alcotest.(check int) "the store still executes"
    1 (count (function H.Strf _ -> true | _ -> false) out);
  (* Identity ALUs become moves and propagate through to address uses. *)
  let out, _, _ =
    promote
      [|
        H.Alu (H.Aadd, v 1, v 0, H.Imm 0L);
        H.Alu (H.Aand, v 2, v 1, H.Imm (-1L));
        H.Mem_ld (64, v 3, v 2);
        H.Exit 0;
      |]
  in
  Alcotest.(check int) "identity ALUs canonicalized away"
    0 (count (function H.Alu _ -> true | _ -> false) out);
  Alcotest.(check int) "load address propagated to the original vreg"
    1 (count (function H.Mem_ld (64, _, H.Vreg 0) -> true | _ -> false) out)

(* A promoted counter loop ([Ldrf]/add/[Strf] of rf[8], read again
   later in the loop) through the promotion and absint-simplify stages:
   the counter becomes one add on its promoted register, with no copy
   left, and the later read uses that register.  A copy pass that
   rewrote the later read to the add's temporary would give the
   temporary two uses, so the add and its copy could not merge. *)
let test_counter_loop_one_add () =
  let stream =
    [|
      H.Label 0;
      H.Ldrf (v 0, 8);
      H.Alu (H.Aadd, v 1, v 0, H.Imm 1L);
      H.Strf (8, v 1);
      H.Ldrf (v 2, 8);
      H.Setcc (H.Cult, v 3, v 2, H.Imm 100L);
      H.Br (v 3, 0, 1);
      H.Label 1;
      H.Exit 1;
    |]
  in
  let env = { Pl.default_env with Pl.classify = Hostir.Effects.classify } in
  let st = Pl.run Pl.Simplify env (Pl.run Pl.Promote env (Pl.start stream)) in
  let out = st.Pl.instrs in
  let p = match st.Pl.promoted with [ (p, 8) ] -> v p | _ -> Alcotest.fail "rf[8] not promoted" in
  Alcotest.(check (list string)) "one add on the promoted register"
    [ H.to_string (H.Alu (H.Aadd, p, p, H.Imm 1L)) ]
    (List.filter_map
       (function H.Alu _ as i -> Some (H.to_string i) | _ -> None)
       (Array.to_list out));
  Alcotest.(check int) "no copy left" 0 (count (function H.Mov _ -> true | _ -> false) out);
  Alcotest.(check int) "the later read uses the promoted register" 1
    (count (( = ) (H.Setcc (H.Cult, v 3, p, H.Imm 100L))) out)

(* --- Verify.check_wb fixtures ------------------------------------------------------ *)

let promoted = [ (10, 8) ]

let msgs vs = String.concat "; " (List.map (fun x -> x.V.v_msg) vs)
let has sub vs =
  let m = msgs vs in
  let n = String.length sub in
  let rec go i = i + n <= String.length m && (String.sub m i n = sub || go (i + 1)) in
  go 0

let test_wb_fixtures () =
  let ok =
    [|
      H.Ldrf (v 10, 8);
      H.Alu (H.Aadd, v 10, v 10, H.Imm 1L);
      H.Exit 0;
      H.Wbmap [| (v 10, 8) |];
    |]
  in
  Alcotest.(check (list pass)) "consistent stream accepted" [] (V.check_wb ~promoted ok);
  (* Dirty at the exit with no covering entry. *)
  let missing =
    [|
      H.Ldrf (v 10, 8);
      H.Alu (H.Aadd, v 10, v 10, H.Imm 1L);
      H.Exit 0;
      H.Wbmap [||];
    |]
  in
  Alcotest.(check bool) "missing writeback entry rejected" true
    (has "no writeback entry" (V.check_wb ~promoted missing));
  (* Map entry naming the wrong offset for its register. *)
  let stale =
    [|
      H.Ldrf (v 10, 8);
      H.Alu (H.Aadd, v 10, v 10, H.Imm 1L);
      H.Strf (8, v 10);
      H.Exit 0;
      H.Wbmap [| (v 10, 16) |];
    |]
  in
  Alcotest.(check bool) "stale writeback entry rejected" true
    (has "stale writeback entry" (V.check_wb ~promoted stale));
  (* A helper call is a mandatory flush point. *)
  let call =
    [|
      H.Ldrf (v 10, 8);
      H.Alu (H.Aadd, v 10, v 10, H.Imm 1L);
      H.Call (0, [||], None);
      H.Ldrf (v 10, 8);
      H.Exit 0;
      H.Wbmap [| (v 10, 8) |];
    |]
  in
  Alcotest.(check bool) "dirty value across a call rejected" true
    (has "helper call reachable" (V.check_wb ~promoted call));
  (* A reachable safepoint with a dirty register and no map entry. *)
  let poll =
    [|
      H.Ldrf (v 10, 8);
      H.Alu (H.Aadd, v 10, v 10, H.Imm 1L);
      H.Poll 0;
      H.Strf (8, v 10);
      H.Exit 0;
      H.Wbmap [||];
    |]
  in
  Alcotest.(check bool) "uncovered dirty safepoint rejected" true
    (has "safepoint" (V.check_wb ~promoted poll));
  match V.check_wb_exn ~promoted missing with
  | () -> Alcotest.fail "check_wb_exn did not raise"
  | exception V.Invalid _ -> ()

(* --- differential properties ------------------------------------------------------- *)

let guest () = Guest_arm.Arm.ops ()
let syscon = 0x0930_0000L

(* Random loop bodies dense in memory traffic through one base register:
   the shape store-to-load forwarding and promotion both fire on.  Final
   x0..x7 plus the flags are dumped to memory and compared. *)
let random_mem_loop seed =
  let prng = Dbt_util.Prng.create (if seed = 0L then 91L else seed) in
  let r n = Dbt_util.Prng.int prng n in
  let reg () = r 8 in
  let a = A.create ~base:0x80000L () in
  A.mov_const a A.x20 0x200000L;
  for i = 0 to 7 do
    A.mov_const a i (Dbt_util.Prng.int64 prng)
  done;
  A.movz a A.x19 50;
  A.label a "loop";
  for _ = 1 to 4 + r 6 do
    match r 10 with
    | 0 | 1 | 2 -> A.str ~off:(8 * r 8) a (reg ()) A.x20
    | 3 | 4 | 5 -> A.ldr ~off:(8 * r 8) a (reg ()) A.x20
    | 6 -> A.add_reg a (reg ()) (reg ()) (reg ())
    | 7 -> A.eor_reg a (reg ()) (reg ()) (reg ())
    | 8 -> A.add_imm a (reg ()) (reg ()) (r 4096)
    | _ -> A.subs_reg a (reg ()) (reg ()) (reg ())
  done;
  A.subs_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "loop";
  A.mov_const a A.x21 0x300000L;
  for i = 0 to 7 do
    A.str ~off:(8 * i) a i A.x21
  done;
  A.cset a A.x22 A.EQ;
  A.str ~off:64 a A.x22 A.x21;
  A.mov_const a A.x28 syscon;
  A.str a A.xzr A.x28;
  A.label a "hang";
  A.b a "hang";
  A.assemble a

let dump mem = List.init 9 (fun i -> Hvm.Mem.read64 mem (Int64.of_int (0x300000 + (8 * i))))

let run_dump config image =
  let e = CE.create ~config (guest ()) in
  CE.load_image e ~addr:0x80000L image;
  CE.set_entry e 0x80000L;
  match CE.run ~max_cycles:100_000_000 e with
  | CE.Poweroff _ -> (dump e.CE.machine.Hvm.Machine.mem, e)
  | _ -> ([], e)

let prop_promoted_vs_block =
  QCheck2.Test.make
    ~name:"random hot loops: promoted region = tier-0 per-block execution" ~count:20
    QCheck2.Gen.int64 (fun seed ->
      let image = random_mem_loop seed in
      let hot = { CE.default_config with hot_threshold = 2 } in
      let unpromoted = { hot with promote = false } in
      let untiered = { CE.default_config with tiering = false } in
      let d_p, e_p = run_dump hot image in
      let d_n, _ = run_dump unpromoted image in
      let d_u, _ = run_dump untiered image in
      d_p <> [] && d_p = d_n && d_p = d_u
      && e_p.CE.stats.CE.regions_formed >= 1)

(* Mid-region guest faults: a hot user loop increments promoted
   register state and then performs a load of an unmapped user VA every
   iteration.  The kernel's abort handler counts the fault and skips
   the instruction, so execution re-enters the (promoted) region
   constantly across fault deliveries.  If writeback maps were missing
   or stale, the increments sitting in promoted host registers at the
   fault point would be lost or doubled and the final sum would differ
   from the tier-0 engines. *)
let fault_loop_user iters =
  let a = A.create ~base:K.user_va () in
  A.movz a A.x1 5;
  A.movz a A.x5 0;
  (* just past the 2 MiB user block: translation fault on every access *)
  A.mov_const a A.x3 (Int64.add K.user_va 0x210000L);
  A.mov_const a A.x19 (Int64.of_int iters);
  A.label a "loop";
  A.add_imm a A.x1 A.x1 1;
  A.ldr a A.x4 A.x3;
  A.add_reg a A.x5 A.x5 A.x1;
  A.subs_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "loop";
  (* x0 = faults() + x1, truncated to the 8-bit exit code *)
  A.movz a A.x8 4;
  A.svc a 0;
  A.add_reg a A.x0 A.x0 A.x1;
  A.movz a A.x8 0;
  A.svc a 0;
  A.assemble a

let test_fault_mid_region () =
  let iters = 300 in
  let user = fault_loop_user iters in
  let run config =
    let e = CE.create ~config (guest ()) in
    K.install (K.captive_target e) ~user;
    let code = match CE.run ~max_cycles:500_000_000 e with CE.Poweroff c -> c | _ -> -1 in
    (code, e)
  in
  let code_p, e_p = run CE.default_config in
  let code_n, _ = run { CE.default_config with promote = false } in
  let code_u, _ = run { CE.default_config with tiering = false } in
  let expect = (iters + 5 + iters) land 0xFF in
  Alcotest.(check int) "faults counted and increments preserved" expect code_p;
  Alcotest.(check int) "promotion-off agrees" code_n code_p;
  Alcotest.(check int) "tier-0 agrees" code_u code_p;
  Alcotest.(check bool) "a region was entered" true (e_p.CE.stats.CE.region_entries > 0);
  Alcotest.(check bool) "registers were promoted" true (e_p.CE.stats.CE.rf_promoted > 0);
  Alcotest.(check bool) "faults were delivered" true
    (e_p.CE.machine.Hvm.Machine.faults >= iters)

let suite =
  ( "promote",
    [
      Alcotest.test_case "promotion rewrite + writeback map" `Quick test_promotion_rewrite;
      Alcotest.test_case "cost model prices barrier calls only" `Quick
        test_cost_model_prices_barriers;
      Alcotest.test_case "rf forwarding + canonicalize" `Quick test_rf_forward_and_canonicalize;
      Alcotest.test_case "promoted counter loop is one add" `Quick test_counter_loop_one_add;
      Alcotest.test_case "writeback verifier fixtures" `Quick test_wb_fixtures;
      Alcotest.test_case "guest faults mid-region" `Quick test_fault_mid_region;
      QCheck_alcotest.to_alcotest prop_promoted_vs_block;
    ] )
