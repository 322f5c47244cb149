(* Template-tier tests: the tier-minus-one fast translator must be
   observationally equivalent to the tier-0 pipeline (randomised
   differential property over decode fields), must demote on
   self-modifying code exactly like tier-0 blocks, must keep its
   per-tier cycle ledgers consistent, and must persist/reload its
   blocks through the kind-2 AOT path without changing behaviour. *)

module A = Guest_arm.Arm_asm
module CE = Captive.Engine

let guest () = Guest_arm.Arm.ops ()

let syscon = 0x0930_0000L
let uart = 0x0910_0000L

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

(* With the threshold unreachable every block stays in its install tier:
   template stitching on the left, the full cold pipeline on the right.
   Any observable divergence between the two is a template miscompile. *)
let template_only = { CE.default_config with templates = true; hot_threshold = max_int }
let pipeline_only = { CE.default_config with templates = false; hot_threshold = max_int }

let counted_loop iters =
  bare_metal (fun a ->
      A.movz a A.x0 0;
      A.mov_const a A.x19 (Int64.of_int iters);
      A.label a "loop";
      A.add_imm a A.x0 A.x0 1;
      A.subs_imm a A.x19 A.x19 1;
      A.cbnz a A.x19 "loop")

(* Randomised programs spanning the templated opcode forms with random
   decode fields (registers, immediates, offsets, conditions), a
   data-dependent forward skip so block boundaries vary, and UART bytes
   so the trace is part of the observation. *)
let random_program seed =
  let prng = Dbt_util.Prng.create (if seed = 0L then 77L else seed) in
  let r n = Dbt_util.Prng.int prng n in
  let reg () = r 8 in
  let a = A.create ~base:0x80000L () in
  A.mov_const a A.x20 0x200000L;
  A.mov_const a A.x24 uart;
  for i = 0 to 7 do
    A.mov_const a i (Dbt_util.Prng.int64 prng)
  done;
  A.movz a A.x19 12;
  A.label a "loop";
  let body n =
    for _ = 1 to n do
      match r 14 with
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
      | 11 -> A.ldr ~off:(8 * r 32) a (reg ()) A.x20
      | 12 -> A.movz a (reg ()) (r 65536)
      | _ ->
        (* printable byte to the UART: the trace observes the value *)
        A.movz a A.x9 (0x30 + r 64);
        A.strb a A.x9 A.x24
    done
  in
  body (2 + r 5);
  A.tbz a (reg ()) (r 8) "skip";
  body (1 + r 4);
  A.label a "skip";
  body (1 + r 3);
  A.subs_imm a A.x19 A.x19 1;
  A.cbnz a A.x19 "loop";
  (* dump x0..x7 and the flags so the final register file is observed *)
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

let prop_template_vs_pipeline =
  QCheck2.Test.make ~name:"random decode fields: template tier = tier-0 pipeline" ~count:20
    QCheck2.Gen.int64 (fun seed ->
      let image = random_program seed in
      let run_dump config =
        let e = CE.create ~config (guest ()) in
        CE.load_image e ~addr:0x80000L image;
        CE.set_entry e 0x80000L;
        match CE.run ~max_cycles:100_000_000 e with
        | CE.Poweroff c -> (c, dump e.CE.machine.Hvm.Machine.mem, CE.uart_output e, e)
        | _ -> (-1, [], "", e)
      in
      let c_t, d_t, u_t, e_t = run_dump template_only in
      let c_p, d_p, u_p, e_p = run_dump pipeline_only in
      d_t <> [] && c_t = c_p && d_t = d_p && u_t = u_p
      && e_t.CE.stats.CE.template_blocks > 0
      (* the guest retires the same work either way *)
      && e_t.CE.stats.CE.blocks_executed = e_p.CE.stats.CE.blocks_executed)

(* A snippet installed by the template tier, patched in place, then
   re-executed: the write must invalidate the template-installed block
   exactly like a tier-0 block (stale code must never run). *)
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

let test_smc_demotes_template_block () =
  let image = smc_image () in
  let code, e = run ~config:template_only image in
  Alcotest.(check int) "patched snippet observed (8*1 + 8*2)" 24 code;
  Alcotest.(check bool) "snippet was template-installed" true (e.CE.stats.CE.template_blocks > 0);
  Alcotest.(check bool) "SMC invalidation fired" true (e.CE.stats.CE.smc_invalidations > 0);
  let code_p, _ = run ~config:pipeline_only image in
  Alcotest.(check int) "pipeline-only agrees" code_p code

(* Promotion interplay: with a reachable threshold, template-installed
   blocks must still get promoted and the hot loop must still form a
   region — the fast tier only changes how cold code is installed. *)
let test_template_promotion () =
  let image = counted_loop 2000 in
  let config = { CE.default_config with templates = true; hot_threshold = 8 } in
  let code, e = run ~config image in
  let code_p, _ = run ~config:{ config with templates = false } image in
  Alcotest.(check int) "exit matches pipeline-only" code_p code;
  Alcotest.(check int) "loop counted to completion" (2000 land 0xFF) code;
  Alcotest.(check bool) "cold blocks came from templates" true (e.CE.stats.CE.template_blocks > 0);
  Alcotest.(check int) "exactly one promotion" 1 e.CE.stats.CE.promotions;
  Alcotest.(check int) "exactly one region formed" 1 e.CE.stats.CE.regions_formed;
  Alcotest.(check bool) "region actually entered" true (e.CE.stats.CE.region_entries > 0)

(* Counter and ledger consistency on a fully-templatable program, plus
   determinism: two identical boots mine and charge identically. *)
let test_template_counters () =
  let image = counted_loop 64 in
  let code, e = run ~config:template_only image in
  Alcotest.(check int) "exit" 64 code;
  let s = e.CE.stats in
  Alcotest.(check bool) "template blocks installed" true (s.CE.template_blocks > 0);
  Alcotest.(check int) "no template misses on covered forms" 0 s.CE.template_misses;
  Alcotest.(check int) "no fallback blocks" 0 s.CE.template_fallback_blocks;
  Alcotest.(check bool) "variants were mined" true (s.CE.templates_mined > 0);
  Alcotest.(check bool)
    "template blocks cover at least one instr each" true
    (s.CE.template_instrs >= s.CE.template_blocks);
  Alcotest.(check int) "per-tier ledgers sum to the translate ledger"
    s.CE.translate_cycles
    (s.CE.translate_cycles_template + s.CE.translate_cycles_pipeline);
  Alcotest.(check bool) "miss table empty" true (CE.template_miss_table e = []);
  (* mining is deterministic: a second boot charges the same cycles *)
  let _, e2 = run ~config:template_only image in
  Alcotest.(check int) "deterministic cycle charge" (CE.cycles e) (CE.cycles e2);
  Alcotest.(check int) "deterministic mining" s.CE.templates_mined e2.CE.stats.CE.templates_mined

(* Kind-2 AOT round trip: a cold boot persists template blocks, a warm
   boot reinstalls them (aot_hits) with identical observable behaviour. *)
let test_template_aot_roundtrip () =
  Temp_dir.with_dir
    (fun dir ->
      let config = { template_only with CE.aot_dir = Some dir } in
      let image = counted_loop 64 in
      let code_cold, e_cold = run ~config image in
      Alcotest.(check int) "cold exit" 64 code_cold;
      Alcotest.(check bool) "cold boot stored entries" true (e_cold.CE.stats.CE.aot_stores > 0);
      let code_warm, e_warm = run ~config image in
      Alcotest.(check int) "warm exit" 64 code_warm;
      Alcotest.(check bool) "warm boot hit the cache" true (e_warm.CE.stats.CE.aot_hits > 0);
      Alcotest.(check bool)
        "warm template installs are cheaper than cold" true
        (e_warm.CE.stats.CE.translate_cycles_template
        < e_cold.CE.stats.CE.translate_cycles_template);
      Alcotest.(check int) "warm uart agrees" 0 (compare (CE.uart_output e_cold) (CE.uart_output e_warm)))

let suite =
  ( "template",
    [
      Alcotest.test_case "SMC demotes template blocks" `Quick test_smc_demotes_template_block;
      Alcotest.test_case "templates feed promotion unchanged" `Quick test_template_promotion;
      Alcotest.test_case "counters, ledgers, determinism" `Quick test_template_counters;
      Alcotest.test_case "kind-2 AOT round trip" `Quick test_template_aot_roundtrip;
      QCheck_alcotest.to_alcotest prop_template_vs_pipeline;
    ] )
