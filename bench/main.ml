(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 3).  See EXPERIMENTS.md for paper-vs-
   measured numbers, and DESIGN.md for the experiment index.

   Usage:  dune exec bench/main.exe [-- section ...]
   Sections: table1 table2 table5 fig17 fig18 fig19 fig20 fig21 fig22
             sec34 sec361 sec362 ablations bechamel
   (default: all of the above except bechamel). *)

module CE = Captive.Engine
module QE = Qemu_ref.Qemu_engine
module K = Workloads.Kernel
module Spec = Workloads.Spec
module Table = Dbt_util.Table
module Stats = Dbt_util.Stats

(* BENCH_SCALE, default 1; an unparsable or non-positive value is an
   error, not a silent 1. *)
let scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | None -> 1
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ ->
      Printf.eprintf "BENCH_SCALE=%S is not an integer >= 1\n" v;
      exit 2)
let header title = Printf.printf "\n=== %s ===\n\n" title

(* --- shared runners ----------------------------------------------------------- *)

type run_result = {
  cycles : int;
  exit_code : int;
  guest_instrs_exec : int; (* dynamically executed guest instructions *)
  host_per_guest : float; (* emitted host instrs per translated guest instr *)
  bytes_per_guest : float;
  blocks_translated : int;
  phases : float * float * float * float; (* decode/translate/ra/encode seconds *)
  tiers : float * float * float; (* translate split: template/tier-0/region seconds *)
  block_stats : (int64 * int * int * int * int * int) list;
}

let exec_guest_instrs stats =
  List.fold_left (fun acc (_, ng, _, ex, _, _) -> acc + (ng * ex)) 0 stats

let run_captive ?(config = CE.default_config) ?ops user =
  let guest = match ops with Some o -> o | None -> Guest_arm.Arm.ops () in
  let e = CE.create ~config guest in
  K.install (K.captive_target e) ~user;
  let exit_code = match CE.run ~max_cycles:20_000_000_000 e with CE.Poweroff c -> c | _ -> -1 in
  let s = e.CE.stats in
  let bs = CE.block_stats e in
  {
    cycles = CE.cycles e;
    exit_code;
    guest_instrs_exec = exec_guest_instrs bs;
    host_per_guest = float_of_int s.CE.host_instrs_emitted /. float_of_int (max 1 s.CE.guest_instrs_translated);
    bytes_per_guest = float_of_int s.CE.host_bytes_emitted /. float_of_int (max 1 s.CE.guest_instrs_translated);
    blocks_translated = s.CE.blocks_translated;
    phases = (s.CE.t_decode, s.CE.t_translate, s.CE.t_regalloc, s.CE.t_encode);
    tiers = (s.CE.t_template, s.CE.t_tier0, s.CE.t_region);
    block_stats = bs;
  }

let run_qemu ?(config = QE.default_config) user =
  let guest = Guest_arm.Arm.ops () in
  let e = QE.create ~config guest in
  K.install (K.qemu_target e) ~user;
  let exit_code = match QE.run ~max_cycles:20_000_000_000 e with QE.Poweroff c -> c | _ -> -1 in
  let s = e.QE.stats in
  let bs = QE.block_stats e in
  {
    cycles = QE.cycles e;
    exit_code;
    guest_instrs_exec = exec_guest_instrs bs;
    host_per_guest = float_of_int s.QE.host_instrs_emitted /. float_of_int (max 1 s.QE.guest_instrs_translated);
    bytes_per_guest = float_of_int s.QE.host_bytes_emitted /. float_of_int (max 1 s.QE.guest_instrs_translated);
    blocks_translated = s.QE.blocks_translated;
    phases = (s.QE.t_decode, s.QE.t_translate, s.QE.t_regalloc, s.QE.t_encode);
    tiers = (0., 0., 0.); (* the QEMU-style engine has one tier *)
    block_stats = bs;
  }

(* Cache: fig17/18/20/22 share the SPEC runs. *)
let spec_cache : (string, run_result * run_result) Hashtbl.t = Hashtbl.create 32

let spec_run (b : Spec.benchmark) =
  match Hashtbl.find_opt spec_cache b.Spec.name with
  | Some r -> r
  | None ->
    let user = b.Spec.build ~scale in
    let c = run_captive user in
    let q = run_qemu user in
    if c.exit_code <> q.exit_code then
      Printf.printf "!! %s: exit codes diverge (captive %d, qemu %d)\n" b.Spec.name c.exit_code
        q.exit_code;
    Hashtbl.replace spec_cache b.Spec.name (c, q);
    (c, q)

let seconds cycles = Workloads.Native_model.dbt_seconds cycles

(* --- Table 1: feature comparison ------------------------------------------------ *)

let table1 () =
  header "Table 1: DBT system features (this reproduction)";
  Table.print
    ~header:[ "Feature"; "QEMU-style baseline"; "Captive" ]
    [
      [ "System-level"; "yes"; "yes" ];
      [ "Retargetable (ADL)"; "yes (same ADL)"; "yes" ];
      [ "Hypervisor (bare-metal HVM)"; "no (user process)"; "yes" ];
      [ "Host FP support"; "no (softfloat helpers)"; "yes (inline host FPU)" ];
      [ "FP bit-accurate"; "yes"; "yes (inline fix-ups)" ];
      [ "64-bit guest support"; "yes"; "yes (split VA handling)" ];
      [ "Code cache index"; "guest virtual"; "guest physical" ];
      [ "TLB-flush invalidation"; "all translations"; "host mappings only" ];
      [ "Guest user/kernel isolation"; "software checks"; "host rings 3/0" ];
    ]

(* --- Table 2: sqrt NaN semantics --------------------------------------------------- *)

let table2 () =
  header "Table 2: x86 SQRTSD vs ARMv8 FSQRT (via softfloat + engine fix-up)";
  let rows =
    List.map
      (fun (name, bits) ->
        let x86 = Softfloat.Archfp.x86_sqrtsd bits in
        let arm = Softfloat.Archfp.arm_fsqrt bits in
        let fixed = Softfloat.Archfp.fixup_sqrt_result ~input:bits x86 in
        [
          name;
          Softfloat.Archfp.describe x86;
          Softfloat.Archfp.describe arm;
          (if x86 = arm then "-" else "sign-bit differs");
          (if fixed = arm then "ok" else "BROKEN");
        ])
      Softfloat.Archfp.table2_inputs
  in
  Table.print ~header:[ "Input"; "x86 (SQRTSD)"; "ARMv8 (FSQRT)"; "Difference"; "fix-up" ] rows

(* --- Table 5: supported guest architectures ------------------------------------------ *)

let table5 () =
  header "Table 5: guest architectures in this reproduction";
  let arm = Guest_arm.Arm.ops () in
  let rv = Guest_riscv.Riscv.ops () in
  let row (ops : Guest.Ops.ops) ~system ~notes =
    let m = ops.Guest.Ops.model in
    (* Sec. 2.2.2 meta-information, aggregated over all actions. *)
    let fixed = ref 0 and dyn = ref 0 in
    Hashtbl.iter
      (fun _ a ->
        let f, d, _, _ = Ssa.Analysis.stats a in
        fixed := !fixed + f;
        dyn := !dyn + d)
      m.Ssa.Offline.actions;
    [
      ops.Guest.Ops.name;
      string_of_int (List.length m.Ssa.Offline.arch.Adl.Ast.a_decodes);
      string_of_int (Ssa.Offline.total_size m);
      Printf.sprintf "%d/%d" !fixed !dyn;
      system;
      notes;
    ]
  in
  Table.print
    ~header:[ "Guest"; "decode entries"; "SSA stmts (O4)"; "fixed/dynamic"; "full-system"; "notes" ]
    [
      row arm ~system:"yes" ~notes:"MMU, EL0/EL1, IRQs, dual address spaces";
      row rv ~system:"user-level" ~notes:"as in the paper: system support pending";
    ];
  Printf.printf "\nARMv8-A description: %d lines of ADL (paper: 8,100 for the full model).\n"
    Guest_arm.Arm.adl_lines

(* --- Fig 17: SPEC integer --------------------------------------------------------------- *)

let fig_spec ~title benchmarks =
  header title;
  let rows = ref [] in
  let speedups = ref [] in
  List.iter
    (fun (b : Spec.benchmark) ->
      let c, q = spec_run b in
      let sp = float_of_int q.cycles /. float_of_int c.cycles in
      speedups := sp :: !speedups;
      rows :=
        [
          b.Spec.name;
          Printf.sprintf "%.3f" (seconds q.cycles);
          Printf.sprintf "%.3f" (seconds c.cycles);
          Table.fmt_speedup sp;
        ]
        :: !rows)
    benchmarks;
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "Benchmark"; "QEMU-style (sim s)"; "Captive (sim s)"; "Speed-up" ]
    (List.rev !rows);
  Printf.printf "\nGeometric mean speed-up: %.2fx\n" (Stats.geomean !speedups)

let fig17 () =
  fig_spec ~title:"Fig 17: SPEC CPU2006 integer (proxy kernels)" Spec.integer_benchmarks

let fig18 () =
  fig_spec ~title:"Fig 18: SPEC CPU2006 C++ floating point (proxy kernels)" Spec.fp_benchmarks

(* --- Fig 19: SimBench ---------------------------------------------------------------------- *)

let fig19 () =
  header "Fig 19: SimBench micro-benchmarks (speed-up of Captive over QEMU-style)";
  let results = Simbench.run_all () in
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "Category"; "Captive (kcycles)"; "QEMU-style (kcycles)"; "Speed-up" ]
    (List.map
       (fun r ->
         [
           r.Simbench.bench;
           string_of_int (r.Simbench.captive_cycles / 1000);
           string_of_int (r.Simbench.qemu_cycles / 1000);
           Table.fmt_speedup r.Simbench.speedup;
         ])
       results);
  print_newline ();
  print_endline
    "Expected shape (paper): large wins on Mem-*, wins on control flow and";
  print_endline
    "TLB maintenance, slow-downs on Small-Blocks/Large-Blocks (translation";
  print_endline "speed) and Data-Fault."

(* --- Fig 20: JIT phase breakdown --------------------------------------------------------------- *)

let fig20 () =
  header "Fig 20: time per JIT compilation phase (Captive, across SPECint)";
  (* Aggregate the wall-clock phase timers over the SPECint runs. *)
  let d = ref 0. and t = ref 0. and r = ref 0. and en = ref 0. in
  let tt = ref 0. and t0 = ref 0. and tr = ref 0. in
  List.iter
    (fun b ->
      let c, _ = spec_run b in
      let pd, pt, pr, pe = c.phases in
      d := !d +. pd;
      t := !t +. pt;
      r := !r +. pr;
      en := !en +. pe;
      let wt, w0, wr = c.tiers in
      tt := !tt +. wt;
      t0 := !t0 +. w0;
      tr := !tr +. wr)
    Spec.integer_benchmarks;
  let total = !d +. !t +. !r +. !en in
  let pct x = Printf.sprintf "%.2f%%" (100. *. x /. total) in
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right ]
    ~header:[ "Phase"; "time (ms)"; "share" ]
    [
      [ "Decode"; Printf.sprintf "%.1f" (1000. *. !d); pct !d ];
      [ "Translate"; Printf.sprintf "%.1f" (1000. *. !t); pct !t ];
      [ "  of which template tier"; Printf.sprintf "%.1f" (1000. *. !tt); pct !tt ];
      [ "  of which tier-0 pipeline"; Printf.sprintf "%.1f" (1000. *. !t0); pct !t0 ];
      [ "  of which region formation"; Printf.sprintf "%.1f" (1000. *. !tr); pct !tr ];
      [ "Register allocation"; Printf.sprintf "%.1f" (1000. *. !r); pct !r ];
      [ "Encode"; Printf.sprintf "%.1f" (1000. *. !en); pct !en ];
    ];
  Printf.printf "\nPaper: decode 2.75%%, translate 54.54%%, regalloc 25.63%%, encode 17.08%%.\n"

(* --- Fig 21: per-block code quality --------------------------------------------------------------- *)

let fig21 () =
  header "Fig 21: per-block execution times (block chaining disabled)";
  (* The paper plots 429.mcf; our proxy is small, so blocks from several
     proxies are aggregated to populate the scatter. *)
  let pairs = ref [] in
  let hpg = ref (0., 0.) in
  List.iter
    (fun name ->
      let user = (Spec.find name).Spec.build ~scale in
      let c = run_captive ~config:{ CE.default_config with CE.chaining = false } user in
      let q = run_qemu ~config:{ QE.default_config with QE.chaining = false } user in
      hpg := (c.host_per_guest, q.host_per_guest);
      let qtbl = Hashtbl.create 256 in
      List.iter
        (fun (va, _, _, ex, cyc, _) ->
          if ex > 0 then Hashtbl.replace qtbl va (float_of_int cyc /. float_of_int ex))
        q.block_stats;
      List.iter
        (fun (va, _, _, ex, cyc, _) ->
          if ex >= 5 then
            match Hashtbl.find_opt qtbl va with
            | Some qc when qc > 0. -> pairs := (float_of_int cyc /. float_of_int ex, qc) :: !pairs
            | _ -> ())
        c.block_stats)
    [ "429.mcf"; "400.perlbench"; "445.gobmk"; "483.xalancbmk"; "471.omnetpp" ];
  let pairs = !pairs in
  let c_hpg, q_hpg = !hpg in
  let ratios = List.map (fun (cc, qc) -> qc /. cc) pairs in
  let faster = List.length (List.filter (fun r -> r > 1.0) ratios) in
  Printf.printf "blocks compared: %d (executed >= 10 times under both engines)\n" (List.length pairs);
  Printf.printf "blocks faster under Captive: %d (%.0f%%)\n" faster
    (100. *. float_of_int faster /. float_of_int (max 1 (List.length pairs)));
  Printf.printf "geometric-mean per-block speed-up (regression-line shift): %.2fx\n"
    (Stats.geomean ratios);
  let logpairs = List.map (fun (cc, qc) -> (log cc, log qc)) pairs in
  (if List.length logpairs >= 2 then
     let a, b = Stats.linear_regression logpairs in
     Printf.printf "log-log regression: log(qemu) = %.2f + %.2f * log(captive)\n" a b);
  Printf.printf "host instructions per guest instruction: Captive %.1f, QEMU-style %.1f\n"
    c_hpg q_hpg;
  Printf.printf "(paper: 3.44x shift, ~10 host instructions per guest instruction)\n"

(* --- Fig 22: comparison against native platforms ------------------------------------------------------ *)

let fig22 () =
  header "Fig 22: Captive vs native ARMv8 platforms (all SPEC proxies)";
  let total_c = ref 0 and total_q = ref 0 and total_gi = ref 0 in
  List.iter
    (fun b ->
      let c, q = spec_run b in
      total_c := !total_c + c.cycles;
      total_q := !total_q + q.cycles;
      total_gi := !total_gi + c.guest_instrs_exec)
    Spec.all;
  let qemu_s = seconds !total_q in
  let captive_s = seconds !total_c in
  let pi_s = Workloads.Native_model.(native_seconds raspberry_pi3 !total_gi) in
  let a1170_s = Workloads.Native_model.(native_seconds opteron_a1170 !total_gi) in
  let speedup s = qemu_s /. s in
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right ]
    ~header:[ "Platform"; "time (sim s)"; "speed-up vs QEMU-style" ]
    [
      [ "QEMU-style DBT"; Printf.sprintf "%.3f" qemu_s; "1.00x" ];
      [ "Raspberry Pi 3 (A53 1.2GHz, model)"; Printf.sprintf "%.3f" pi_s; Table.fmt_speedup (speedup pi_s) ];
      [ "Captive (this work)"; Printf.sprintf "%.3f" captive_s; Table.fmt_speedup (speedup captive_s) ];
      [ "AMD A1170 (A57 2.0GHz, model)"; Printf.sprintf "%.3f" a1170_s; Table.fmt_speedup (speedup a1170_s) ];
    ];
  Printf.printf "\nCaptive vs Pi 3: %.2fx;  Captive vs A1170: %.2fx (paper: ~2x and ~0.4x)\n"
    (pi_s /. captive_s) (a1170_s /. captive_s)

(* --- Sec 3.4: JIT compilation performance ---------------------------------------------------------------- *)

let sec34 () =
  header "Sec 3.4: JIT compilation performance (429.mcf)";
  let c, q = spec_run (Spec.find "429.mcf") in
  let sum (a, b, c', d) = a +. b +. c' +. d in
  let c_per = sum c.phases /. float_of_int (max 1 c.blocks_translated) in
  let q_per = sum q.phases /. float_of_int (max 1 q.blocks_translated) in
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right ]
    ~header:[ "Metric"; "Captive"; "QEMU-style" ]
    [
      [ "blocks translated"; string_of_int c.blocks_translated; string_of_int q.blocks_translated ];
      [
        "wall-clock per block (us)";
        Printf.sprintf "%.1f" (1e6 *. c_per);
        Printf.sprintf "%.1f" (1e6 *. q_per);
      ];
      [
        "host instrs / guest instr";
        Printf.sprintf "%.2f" c.host_per_guest;
        Printf.sprintf "%.2f" q.host_per_guest;
      ];
      [
        "host bytes / guest instr";
        Printf.sprintf "%.2f" c.bytes_per_guest;
        Printf.sprintf "%.2f" q.bytes_per_guest;
      ];
    ];
  Printf.printf "\ntranslation slowdown (wall-clock, Captive/QEMU-style): %.2fx (paper: 2.6x)\n"
    (c_per /. q_per);
  Printf.printf "modeled translation cycles ratio at the mcf mix: %.2fx\n"
    ((1400. +. (260. *. c.host_per_guest)) /. (550. +. (90. *. q.host_per_guest)))

(* --- Sec 3.6.1: impact of offline optimization ------------------------------------------------------------- *)

let sec361 () =
  header "Sec 3.6.1: offline optimization levels (ARMv8-A model)";
  let rows =
    List.map
      (fun level ->
        let t0 = Unix.gettimeofday () in
        let m = Guest_arm.Arm.model_at_level level in
        let dt = Unix.gettimeofday () -. t0 in
        (level, Ssa.Offline.total_size m, dt))
      [ 1; 2; 3; 4 ]
  in
  let o1 = match rows with (_, s, _) :: _ -> float_of_int s | [] -> 1. in
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "Level"; "SSA statements"; "vs O1"; "offline build (s)" ]
    (List.map
       (fun (l, s, dt) ->
         [
           Printf.sprintf "O%d" l;
           string_of_int s;
           Printf.sprintf "%.0f%%" (100. *. float_of_int s /. o1);
           Printf.sprintf "%.2f" dt;
         ])
       rows);
  Printf.printf "\n(paper: O4 output is 56%% smaller than O1)\n"

(* --- Sec 3.6.2: hardware vs software floating point ----------------------------------------------------------- *)

let sec362 () =
  header "Sec 3.6.2: FP microbenchmark, hardware FP vs softfloat";
  let user = (Spec.find "444.namd").Spec.build ~scale in
  let hw = run_captive user in
  let sw = run_captive ~config:{ CE.default_config with CE.hw_fp = false } user in
  let q = run_qemu user in
  if hw.exit_code <> sw.exit_code then
    Printf.printf "!! hw/soft FP disagree: %d vs %d\n" hw.exit_code sw.exit_code;
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right ]
    ~header:[ "Configuration"; "cycles (M)"; "speed-up vs QEMU-style" ]
    [
      [ "QEMU-style (softfloat)"; string_of_int (q.cycles / 1000000); "1.00x" ];
      [
        "Captive, softfloat helpers";
        string_of_int (sw.cycles / 1000000);
        Table.fmt_speedup (float_of_int q.cycles /. float_of_int sw.cycles);
      ];
      [
        "Captive, hardware FP";
        string_of_int (hw.cycles / 1000000);
        Table.fmt_speedup (float_of_int q.cycles /. float_of_int hw.cycles);
      ];
    ];
  Printf.printf "\nhardware FP vs softfloat within Captive: %.2fx (paper: 1.3x)\n"
    (float_of_int sw.cycles /. float_of_int hw.cycles);
  Printf.printf "(paper: hw-FP Captive 2.17x over QEMU, softfloat Captive 1.68x)\n"

(* --- ablations ---------------------------------------------------------------------------------------------------- *)

let ablations () =
  header "Ablations: Captive design-choice studies";
  let bench = Spec.find "445.gobmk" in
  let user = bench.Spec.build ~scale in
  let base = run_captive user in
  let no_chain = run_captive ~config:{ CE.default_config with CE.chaining = false } user in
  let no_pcid = run_captive ~config:{ CE.default_config with CE.pcid = false } user in
  let o1 = run_captive ~ops:(Guest_arm.Arm.ops ~opt_level:1 ()) user in
  let row name (r : run_result) =
    [
      name;
      string_of_int (r.cycles / 1_000_000);
      Printf.sprintf "%+.1f%%" (100. *. (float_of_int r.cycles /. float_of_int base.cycles -. 1.));
      Printf.sprintf "%.1f" r.host_per_guest;
    ]
  in
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "Configuration (445.gobmk)"; "cycles (M)"; "vs baseline"; "host/guest instrs" ]
    [
      row "baseline (O4, chaining, PCID)" base;
      row "no block chaining" no_chain;
      row "no PCIDs (flush on AS switch)" no_pcid;
      row "offline opt at O1" o1;
    ];
  (* The syscall-heavy SimBench category stresses the user/kernel address
     space alternation, where PCIDs matter most. *)
  let sb = List.find (fun b -> b.Simbench.name = "Syscall") (Simbench.all ()) in
  let run_cfg config =
    let guest = Guest_arm.Arm.ops () in
    let e = CE.create ~config guest in
    K.install ~enable_timer:false (K.captive_target e) ~user:sb.Simbench.image;
    (match CE.run ~max_cycles:2_000_000_000 e with CE.Poweroff _ -> () | _ -> ());
    CE.cycles e
  in
  let with_pcid = run_cfg CE.default_config in
  let without = run_cfg { CE.default_config with CE.pcid = false } in
  Printf.printf "\nSyscall microbenchmark: with PCIDs %dk cycles, without %dk (%.2fx)\n"
    (with_pcid / 1000) (without / 1000)
    (float_of_int without /. float_of_int with_pcid)

(* --- bechamel microbenchmarks -------------------------------------------------------------------------------------- *)

let bechamel_section () =
  header "Bechamel microbenchmarks (real wall-clock, not simulated cycles)";
  let open Bechamel in
  let open Toolkit in
  let guest = Guest_arm.Arm.ops () in
  let model = guest.Guest.Ops.model in
  let word = 0x8B020020L (* add x0,x1,x2 *) in
  let decode_test =
    Test.make ~name:"decode one AArch64 instruction" (Staged.stage (fun () -> Ssa.Offline.decode model word))
  in
  (* Each binary64 op twice: through F64 (inside the host-FPU window) and
     through Sf_core, the soft path it falls back to. *)
  let softfloat_tests =
    let open Softfloat in
    let sf = F64.of_float 1.5 and sf2 = F64.of_float 3.7 in
    let flags = Sf_types.new_flags () and fmt = Sf_core.f64_fmt and rm = Sf_types.Nearest_even in
    let pair op fast soft =
      [
        Test.make ~name:("softfloat f64 " ^ op) (Staged.stage fast);
        Test.make ~name:("softfloat f64 " ^ op ^ " (Sf_core)") (Staged.stage soft);
      ]
    in
    pair "add" (fun () -> F64.add flags sf sf2) (fun () -> Sf_core.add fmt flags rm sf sf2)
    @ pair "multiply" (fun () -> F64.mul flags sf sf2) (fun () -> Sf_core.mul fmt flags rm sf sf2)
    @ pair "divide" (fun () -> F64.div flags sf sf2) (fun () -> Sf_core.div fmt flags rm sf sf2)
    @ pair "sqrt" (fun () -> F64.sqrt flags sf2) (fun () -> Sf_core.sqrt fmt flags rm sf2)
  in
  let action = Ssa.Offline.action model "add_sub_shreg" in
  let d = Option.get (Ssa.Offline.decode model word) in
  let field n = if n = "__el" then 1L else List.assoc n d.Adl.Decode.field_values in
  let translate_test =
    Test.make ~name:"generator: translate add (DAG+regalloc+encode)"
      (Staged.stage (fun () ->
           let cfg =
             {
               Hostir.Dag.bank_offset = guest.Guest.Ops.bank_offset;
               slot_offset = guest.Guest.Ops.slot_offset;
               lower_intrinsic = (fun _ -> Hostir.Dag.L_inline);
               effect_helper = Captive.Common.effect_helper_index;
               coproc_read_helper = 0;
               coproc_write_helper = 1;
               split_va_check = false;
               as_switch_helper = 9;
             }
           in
           let dag = Hostir.Dag.create cfg in
           Ssa.Gen.translate (Hostir.Dag.emitter dag) action ~field ~inc_pc:(Some 4);
           Hostir.Dag.raw dag (Hostir.Hir.Exit 0);
           let ra = Hostir.Regalloc.run (Hostir.Dag.finish dag) in
           Hostir.Encode.encode ra))
  in
  (* Guest RAM fast paths: a resident frame, a never-written frame and an
     access straddling a 4 KiB frame boundary. *)
  let mem = Hvm.Mem.create (256 * 1024 * 1024) in
  Hvm.Mem.write64 mem 0x1000L 1L;
  Hvm.Mem.write64 mem 0x3000L 1L;
  Hvm.Mem.write64 mem 0x4000L 1L;
  let mem_tests =
    [
      Test.make ~name:"mem read64 (resident frame)" (Staged.stage (fun () -> Hvm.Mem.read64 mem 0x1008L));
      Test.make ~name:"mem write64 (resident frame)" (Staged.stage (fun () -> Hvm.Mem.write64 mem 0x1010L 7L));
      Test.make ~name:"mem read64 (untouched frame)" (Staged.stage (fun () -> Hvm.Mem.read64 mem 0x2008L));
      Test.make ~name:"mem read64 (frame-straddling)" (Staged.stage (fun () -> Hvm.Mem.read64 mem 0x3FFCL));
    ]
  in
  (* The HostIR executor on a fixed promoted-loop region: a safepoint
     poll per iteration, a register-promoted body, a write-back map
     flushed at the exit.  One op runs the loop 100 times; the estimate is
     also reported per executed host instruction. *)
  let exec_test, exec_instrs =
    let open Hostir.Hir in
    let machine = Hvm.Machine.create ~mem_size:(1024 * 1024) () in
    let ctx =
      Hostir.Exec.create ~machine ~helpers:[||] ~fault_handler:(fun _ _ _ ~bits:_ ~value:_ -> Hostir.Exec.Retry)
    in
    let region =
      [|
        Ldrf (Preg 0, 0);
        Ldrf (Preg 1, 8);
        Label 0;
        Poll 0;
        Alu (Aadd, Preg 0, Preg 0, Preg 1);
        Alu (Asub, Preg 1, Preg 1, Imm 1L);
        Flags_add (64, Preg 2, Preg 1, Imm (-1L), Imm 1L);
        Setcc (Cne, Preg 3, Preg 1, Imm 0L);
        Inc_pc 16;
        Br (Preg 3, 0, 1);
        Label 1;
        Strf (8, Preg 1);
        Exit 1;
        Wbmap [| (Preg 0, 0) |];
      |]
    in
    let code = Hostir.Exec.compile (Hostir.Encode.decode_program (Hostir.Encode.encode_stream region)) in
    let run () =
      Hostir.Exec.rf_write ctx 8 100L;
      Hostir.Exec.run ctx code
    in
    ignore (run ());
    let n0 = ctx.Hostir.Exec.instrs_executed in
    ignore (run ());
    (Test.make ~name:"executor: promoted loop region x100" (Staged.stage run), ctx.Hostir.Exec.instrs_executed - n0)
  in
  let benchmark ?per_op test =
    let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:(Some 300) () in
    let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
    let ols =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) Instance.monotonic_clock results
    in
    Hashtbl.iter
      (fun name result ->
        match (Analyze.OLS.estimates result, per_op) with
        | Some [ est ], None -> Printf.printf "  %-48s %10.1f ns/op\n" name est
        | Some [ est ], Some (n, unit) ->
          Printf.printf "  %-48s %10.1f ns/op  (%.2f ns/%s)\n" name est (est /. float n) unit
        | _ -> Printf.printf "  %-48s (no estimate)\n" name)
      ols
  in
  List.iter benchmark ((decode_test :: softfloat_tests) @ (translate_test :: mem_tests));
  benchmark ~per_op:(exec_instrs, "host instr") exec_test

(* --- driver ---------------------------------------------------------------------------------------------------------- *)

let sections : (string * (unit -> unit)) list =
  [
    ("table1", table1);
    ("table2", table2);
    ("table5", table5);
    ("fig17", fig17);
    ("fig18", fig18);
    ("fig19", fig19);
    ("fig20", fig20);
    ("fig21", fig21);
    ("fig22", fig22);
    ("sec34", sec34);
    ("sec361", sec361);
    ("sec362", sec362);
    ("ablations", ablations);
    ("bechamel", bechamel_section);
  ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let requested = List.filter (fun s -> s <> "--") requested in
  let to_run =
    if requested = [] then List.filter (fun (n, _) -> n <> "bechamel") sections
    else
      List.map
        (fun n ->
          match List.assoc_opt n sections with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown section %s (available: %s)\n" n
              (String.concat " " (List.map fst sections));
            exit 1)
        requested
  in
  Printf.printf "Captive reproduction benchmark harness (BENCH_SCALE=%d)\n" scale;
  List.iter (fun (_, f) -> f ()) to_run
