(* Tiered-translation tests: hot-block promotion fires exactly once,
   regions are invalidated (and re-formed) on self-modifying code, the
   tier-0-only path is cycle-identical with tiering compiled out, and a
   randomised property checks region units are observationally equivalent
   to per-block translation. *)

module A = Guest_arm.Arm_asm
module CE = Captive.Engine

let guest () = Guest_arm.Arm.ops ()

let syscon = 0x0930_0000L

let bare_metal body =
  let a = A.create ~base:0x80000L () in
  body a;
  A.mov_const a A.x25 syscon;
  A.str a A.x0 A.x25;
  A.label a "__hang";
  A.b a "__hang";
  A.assemble a

let run ?config image =
  let e = CE.create ?config (guest ()) in
  CE.load_image e ~addr:0x80000L image;
  CE.set_entry e 0x80000L;
  let code = match CE.run ~max_cycles:200_000_000 e with CE.Poweroff c -> c | _ -> -1 in
  (code, e)

let untiered = { CE.default_config with tiering = false }

(* A single self-looping block: the hot-path shape SPEC-style kernels
   reduce to, and the one that exercises self-loop region formation. *)
let counted_loop iters =
  bare_metal (fun a ->
      A.movz a A.x0 0;
      A.mov_const a A.x19 (Int64.of_int iters);
      A.label a "loop";
      A.add_imm a A.x0 A.x0 1;
      A.subs_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "loop")

let test_promotion_exactly_once () =
  let image = counted_loop 2000 in
  let config = { CE.default_config with hot_threshold = 8 } in
  let code, e = run ~config image in
  let code_u, _ = run ~config:untiered image in
  Alcotest.(check int) "tiered exit matches untiered" code_u code;
  Alcotest.(check int) "loop counted to completion" (2000 land 0xFF) code;
  (* Only the loop body crosses the threshold, and once promoted its
     tier-1 region must never be re-promoted. *)
  Alcotest.(check int) "exactly one promotion" 1 e.CE.stats.CE.promotions;
  Alcotest.(check int) "exactly one region formed" 1 e.CE.stats.CE.regions_formed;
  Alcotest.(check bool) "region actually entered" true (e.CE.stats.CE.region_entries > 0);
  Alcotest.(check bool)
    "region executed member blocks" true
    (e.CE.stats.CE.region_block_execs >= 1000)

(* A call-snippet made hot enough to sit inside a region, patched in
   place, then run hot again: the write must demote the region (SMC
   invalidation) and the re-formed region must execute the new code. *)
let smc_image () =
  bare_metal (fun a ->
        A.movz a A.x20 0;
        A.adr a A.x21 "snippet";
        A.movz a A.x19 8;
        A.label a "phase1";
        A.bl a "snippet";
        A.add_reg a A.x20 A.x20 A.x0;
        A.subs_imm a A.x19 A.x19 1;
        A.cbnz a A.x19 "phase1";
        (* patch: rewrite snippet's first instruction to movz x0,#2 *)
        (let w = (0b110100101 lsl 23) lor (2 lsl 5) lor 0 in
         A.mov_const a A.x22 (Int64.of_int w));
        A.str32 a A.x22 A.x21;
        A.movz a A.x19 8;
        A.label a "phase2";
        A.bl a "snippet";
        A.add_reg a A.x20 A.x20 A.x0;
        A.subs_imm a A.x19 A.x19 1;
        A.cbnz a A.x19 "phase2";
        A.mov_reg a A.x0 A.x20;
        A.b a "done";
        A.label a "snippet";
        A.movz a A.x0 1;
        A.ret a;
        A.label a "done")

let test_smc_invalidates_region () =
  let image = smc_image () in
  let config = { CE.default_config with hot_threshold = 2 } in
  let code, e = run ~config image in
  Alcotest.(check int) "patched snippet observed hot (8*1 + 8*2)" 24 code;
  Alcotest.(check bool) "SMC invalidation fired" true (e.CE.stats.CE.smc_invalidations > 0);
  Alcotest.(check bool)
    "demoted code re-promoted after the patch" true
    (e.CE.stats.CE.promotions >= 2);
  let code_u, _ = run ~config:untiered image in
  Alcotest.(check int) "untiered agrees" code_u code

let test_smc_reanalysis () =
  (* Staleness audit for the analysis layer: abstract facts are consumed
     at translate time and never cached per-translation, so an SMC
     invalidation has nothing to drop — the demoted code's re-formed
     region must be re-analyzed from scratch (the region counter keeps
     growing past the first formation) and every obligation must still
     prove. *)
  let config =
    { CE.default_config with hot_threshold = 2; analyze_translations = true }
  in
  let code, e = run ~config (smc_image ()) in
  Alcotest.(check int) "exit unchanged under analysis" 24 code;
  Alcotest.(check bool) "SMC invalidation fired" true (e.CE.stats.CE.smc_invalidations > 0);
  Alcotest.(check bool) "re-formed region re-analyzed" true (e.CE.stats.CE.regions_analyzed >= 2);
  Alcotest.(check bool) "tier-0 blocks analyzed" true (e.CE.stats.CE.blocks_analyzed > 0);
  Alcotest.(check int) "no obligation findings across demote/re-form" 0
    e.CE.stats.CE.obligation_findings

let test_tier0_cycle_identity () =
  (* With the threshold unreachable and the template tier disabled, the
     tiering machinery must be free: identical cycle counts to a build
     with tiering off.  (Templates are switched off because the template
     tier deliberately changes translate cost — and slightly changes
     emitted code — below the threshold; test_template.ml covers its
     equivalence.) *)
  let image = counted_loop 5000 in
  let cold =
    { CE.default_config with tiering = true; templates = false; hot_threshold = max_int }
  in
  let code_c, e_c = run ~config:cold image in
  let code_u, e_u = run ~config:untiered image in
  Alcotest.(check int) "exit codes agree" code_u code_c;
  Alcotest.(check int)
    "cycle-identical when no block ever gets hot"
    (CE.cycles e_u) (CE.cycles e_c);
  Alcotest.(check int) "no promotions below threshold" 0 e_c.CE.stats.CE.promotions

(* Randomised loop bodies, sometimes multi-block (a data-dependent forward
   skip), executed hot: region translation must be observationally
   equivalent to per-block tier-0 translation. *)
let random_loop_program seed =
  let prng = Dbt_util.Prng.create (if seed = 0L then 77L else seed) in
  let r n = Dbt_util.Prng.int prng n in
  let reg () = r 8 in
  let a = A.create ~base:0x80000L () in
  A.mov_const a A.x20 0x200000L;
  for i = 0 to 7 do
    A.mov_const a i (Dbt_util.Prng.int64 prng)
  done;
  A.movz a A.x19 40;
  A.label a "loop";
  let body n =
    for _ = 1 to n do
      match r 12 with
      | 0 -> A.add_reg a (reg ()) (reg ()) (reg ())
      | 1 -> A.subs_reg a (reg ()) (reg ()) (reg ())
      | 2 -> A.eor_reg a (reg ()) (reg ()) (reg ())
      | 3 -> A.and_reg a (reg ()) (reg ()) (reg ())
      | 4 -> A.orr_reg a (reg ()) (reg ()) (reg ())
      | 5 -> A.mul a (reg ()) (reg ()) (reg ())
      | 6 -> A.udiv a (reg ()) (reg ()) (reg ())
      | 7 -> A.add_imm a (reg ()) (reg ()) (r 4096)
      | 8 -> A.csel a (reg ()) (reg ()) (reg ()) (List.nth [ A.EQ; A.LT; A.HI; A.VS ] (r 4))
      | 9 -> A.clz a (reg ()) (reg ())
      | 10 -> A.str ~off:(8 * r 32) a (reg ()) A.x20
      | _ -> A.ldr ~off:(8 * r 32) a (reg ()) A.x20
    done
  in
  body (2 + r 5);
  (* data-dependent forward skip: makes the loop multi-block and gives the
     region's side exits something to do *)
  A.tbz a (reg ()) (r 8) "skip";
  body (1 + r 4);
  A.label a "skip";
  body (1 + r 3);
  A.subs_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "loop";
  (* dump x0..x7 *)
  A.mov_const a A.x21 0x300000L;
  for i = 0 to 7 do
    A.str ~off:(8 * i) a i A.x21
  done;
  A.cset a A.x22 A.EQ;
  A.cset a A.x23 A.CS;
  A.str ~off:64 a A.x22 A.x21;
  A.str ~off:72 a A.x23 A.x21;
  A.mov_const a A.x28 syscon;
  A.str a A.xzr A.x28;
  A.label a "hang";
  A.b a "hang";
  A.assemble a

let dump mem = List.init 10 (fun i -> Hvm.Mem.read64 mem (Int64.of_int (0x300000 + (8 * i))))

let prop_region_vs_block =
  QCheck2.Test.make ~name:"random hot loops: region unit = per-block translation" ~count:20
    QCheck2.Gen.int64 (fun seed ->
      let image = random_loop_program seed in
      let hot = { CE.default_config with hot_threshold = 2 } in
      let run_dump config =
        let e = CE.create ~config (guest ()) in
        CE.load_image e ~addr:0x80000L image;
        CE.set_entry e 0x80000L;
        match CE.run ~max_cycles:100_000_000 e with
        | CE.Poweroff _ -> (dump e.CE.machine.Hvm.Machine.mem, e)
        | _ -> ([], e)
      in
      let d_t, e_t = run_dump hot in
      let d_u, _ = run_dump untiered in
      d_t <> [] && d_t = d_u && e_t.CE.stats.CE.regions_formed >= 1)

(* A region entered while the guest masks a pending IRQ must still make
   progress.  Every region member starts with a [Poll] that bails when
   the host interrupt line is asserted; the dispatcher then cannot
   deliver the masked IRQ and re-enters the same region.  With a low
   promotion threshold the kernel's timer-IRQ path becomes a region
   early, and the first masked tick used to livelock it until the cycle
   cap. *)
let test_masked_irq_no_livelock () =
  let module K = Workloads.Kernel in
  let module QE = Qemu_ref.Qemu_engine in
  let user = (Workloads.Spec.find "429.mcf").Workloads.Spec.build ~scale:3 in
  let cap = 200_000_000 in
  let e = CE.create ~config:{ CE.default_config with hot_threshold = 4 } (guest ()) in
  K.install (K.captive_target e) ~user;
  let code = match CE.run ~max_cycles:cap e with CE.Poweroff c -> c | _ -> -1 in
  let q = QE.create (guest ()) in
  K.install (K.qemu_target q) ~user;
  let qcode = match QE.run ~max_cycles:cap q with QE.Poweroff c -> c | _ -> -1 in
  Alcotest.(check int) "QEMU-style engine exits" 0 qcode;
  Alcotest.(check int) "exit code matches the QEMU-style engine" qcode code;
  Alcotest.(check bool) "regions were formed" true (e.CE.stats.CE.regions_formed > 0);
  Alcotest.(check bool) "well below the cycle cap" true (CE.cycles e < cap / 4)

let suite =
  ( "tiered",
    [
      Alcotest.test_case "promotion exactly once" `Quick test_promotion_exactly_once;
      Alcotest.test_case "SMC demotes and re-forms regions" `Quick test_smc_invalidates_region;
      Alcotest.test_case "SMC re-translation re-analyzes, no stale facts" `Quick
        test_smc_reanalysis;
      Alcotest.test_case "tier-0-only cycle identity" `Quick test_tier0_cycle_identity;
      Alcotest.test_case "masked IRQ does not livelock a region" `Quick test_masked_irq_no_livelock;
      QCheck_alcotest.to_alcotest prop_region_vs_block;
    ] )
