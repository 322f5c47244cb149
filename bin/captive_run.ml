(* captive_run: command-line front end to the DBT engines.

     captive_run spec 429.mcf --engine captive --scale 2
     captive_run simbench Mem-Hot-MMU
     captive_run boot --engine qemu
     captive_run info
     captive_run ssa add_sub_imm --level 4
     captive_run lint
     captive_run mmucheck --json --guard
     captive_run stress --json --seeds 32
     captive_run bench --quick --json
     captive_run check --json

   `spec` runs a SPEC CPU2006 proxy under the mini guest OS, `simbench`
   one SimBench category on both engines, `boot` a demo user program on
   the mini-OS, `info` prints the loaded guest models, `ssa` dumps an
   instruction's optimized SSA (the offline artifact of Fig. 6), `lint`
   statically verifies the whole offline pipeline (decode tables, SSA
   after every pass at O1-O4, and post-regalloc HostIR) for every guest
   model, `mmucheck` runs MMU-stress workloads on both guests with the
   online shadow-oracle sanitizer (page tables, TLB, frame accounting,
   code-cache W^X, ring transitions) enabled and gates their template
   coverage, `stress` is the race-focused lane for the concurrent JIT
   (seeded drain schedules on worker domains, sanitizer + single-domain
   equivalence as oracles), `bench` is the quick-workload gate (cycles
   and speedup against bench/baseline.json, template coverage and the
   AOT warm boot, all from one tiered boot per workload; with --exact,
   the determinism gate: bit-identical cycles at --domains 1), and
   `check` boots the ARM and RISC-V workloads at O1-O4 once each with
   every translate-time checker on (Hostir.Equiv validation against an
   unoptimized reference emission, Hostir.Absint obligations,
   Hostir.Reloc relocation certification).

   Every JSON row of `mmucheck`, `stress`, `bench` and `check` is the
   subcommand's own fields followed by the engine's whole counter table
   (Engine.counters_json); `spec` and `boot` print its non-zero
   counters.  A workload scale or `bench --domains` below 1 is a usage
   error (exit 124). *)

open Cmdliner

type engine_kind = Eng_captive | Eng_qemu | Eng_reference

let engine_conv =
  let parse = function
    | "captive" -> Ok Eng_captive
    | "qemu" -> Ok Eng_qemu
    | "reference" | "ref" -> Ok Eng_reference
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S (captive|qemu|reference)" s))
  in
  let print fmt e =
    Format.pp_print_string fmt
      (match e with Eng_captive -> "captive" | Eng_qemu -> "qemu" | Eng_reference -> "reference")
  in
  Arg.conv (parse, print)

let engine_arg =
  Arg.(value & opt engine_conv Eng_captive & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc:"DBT engine: captive, qemu or reference.")

(* A count of at least 1; anything else is a usage error (exit 124). *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not an integer >= 1" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let scale_arg =
  Arg.(value & opt positive 1 & info [ "s"; "scale" ] ~docv:"N" ~env:(Cmd.Env.info "BENCH_SCALE")
         ~doc:"Workload scale factor (at least 1).")

(* Guest-model selector of `lint`; an unknown name is a usage error. *)
let guests_conv = Arg.enum [ ("armv8-a", `Arm); ("rv64im", `Riscv); ("all", `All) ]

let guest_models = function
  | `Arm -> [ Guest_arm.Arm.ops () ]
  | `Riscv -> [ Guest_riscv.Riscv.ops () ]
  | `All -> [ Guest_arm.Arm.ops (); Guest_riscv.Riscv.ops () ]

module W = Workloads.Registry
module CE = Captive.Engine

(* The stats dump of `spec` and `boot`: cycles, host page faults and
   every non-zero counter of the engine's counter table. *)
let verbose_stats_captive (e : CE.t) =
  let s = e.CE.stats in
  Printf.printf "cycles: %d\nhost page faults: %d\n" (CE.cycles e) e.CE.machine.Hvm.Machine.faults;
  List.iter
    (function
      | CE.Count (n, get, _) -> if get s <> 0 then Printf.printf "%s: %d\n" n (get s)
      | CE.Time (n, get, _) -> if get s <> 0. then Printf.printf "%s_ms: %.1f\n" n (1000. *. get s))
    CE.counters

let run_user ~engine ~user =
  let guest = Guest_arm.Arm.ops () in
  match engine with
  | Eng_captive ->
    let e = Captive.Engine.create guest in
    Workloads.Kernel.install (Workloads.Kernel.captive_target e) ~user;
    let code =
      match Captive.Engine.run ~max_cycles:50_000_000_000 e with
      | Captive.Engine.Poweroff c -> c
      | _ -> -1
    in
    print_string (Captive.Engine.uart_output e);
    Printf.printf "exit code: %d\n" code;
    verbose_stats_captive e
  | Eng_qemu ->
    let e = Qemu_ref.Qemu_engine.create guest in
    Workloads.Kernel.install (Workloads.Kernel.qemu_target e) ~user;
    let code =
      match Qemu_ref.Qemu_engine.run ~max_cycles:50_000_000_000 e with
      | Qemu_ref.Qemu_engine.Poweroff c -> c
      | _ -> -1
    in
    print_string (Qemu_ref.Qemu_engine.uart_output e);
    Printf.printf "exit code: %d\ncycles: %d\n" code (Qemu_ref.Qemu_engine.cycles e)
  | Eng_reference ->
    let r = Captive.Reference.create guest in
    Workloads.Kernel.install (Workloads.Kernel.reference_target r) ~user;
    let code =
      match Captive.Reference.run ~max_instrs:500_000_000 r with
      | Captive.Reference.Poweroff c -> c
      | _ -> -1
    in
    print_string (Captive.Reference.uart_output r);
    Printf.printf "exit code: %d (interpreted %d instructions)\n" code r.Captive.Reference.instrs_executed

(* --- spec ------------------------------------------------------------------- *)

let spec_names = List.map (fun b -> b.Workloads.Spec.name) Workloads.Spec.all

let spec_cmd =
  let bench =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:(Printf.sprintf "One of: %s" (String.concat ", " spec_names)))
  in
  let run name engine scale =
    match List.find_opt (fun b -> b.Workloads.Spec.name = name) Workloads.Spec.all with
    | None -> `Error (false, Printf.sprintf "unknown benchmark %S" name)
    | Some b ->
      run_user ~engine ~user:(b.Workloads.Spec.build ~scale);
      `Ok ()
  in
  Cmd.v (Cmd.info "spec" ~doc:"Run a SPEC CPU2006 proxy under the mini guest OS.")
    Term.(ret (const run $ bench $ engine_arg $ scale_arg))

(* --- simbench ------------------------------------------------------------------ *)

let simbench_cmd =
  let which = Arg.(value & pos 0 (some string) None & info [] ~docv:"CATEGORY") in
  let run which =
    let benches = Simbench.all () in
    let selected =
      match which with
      | None -> benches
      | Some n -> List.filter (fun b -> String.lowercase_ascii b.Simbench.name = String.lowercase_ascii n) benches
    in
    if selected = [] then `Error (false, "unknown SimBench category")
    else begin
      List.iter
        (fun b ->
          let r = Simbench.run_one b in
          Printf.printf "%-20s captive %8dk  qemu %8dk  speed-up %.2fx\n%!" r.Simbench.bench
            (r.Simbench.captive_cycles / 1000) (r.Simbench.qemu_cycles / 1000) r.Simbench.speedup)
        selected;
      `Ok ()
    end
  in
  Cmd.v (Cmd.info "simbench" ~doc:"Run SimBench categories on both engines.")
    Term.(ret (const run $ which))

(* --- boot ----------------------------------------------------------------------- *)

let boot_cmd =
  let run engine = run_user ~engine ~user:(W.demo_user ()) in
  Cmd.v (Cmd.info "boot" ~doc:"Boot the mini guest OS with a demo user program.")
    Term.(const run $ engine_arg)

(* --- info ------------------------------------------------------------------------- *)

let info_cmd =
  let run () =
    List.iter
      (fun (ops : Guest.Ops.ops) ->
        let m = ops.Guest.Ops.model in
        Printf.printf "%-10s %s\n" ops.Guest.Ops.name ops.Guest.Ops.description;
        Printf.printf "           %d decode entries, %d execute actions, %d optimized SSA statements\n"
          (List.length m.Ssa.Offline.arch.Adl.Ast.a_decodes)
          (List.length m.Ssa.Offline.arch.Adl.Ast.a_executes)
          (Ssa.Offline.total_size m))
      [ Guest_arm.Arm.ops (); Guest_riscv.Riscv.ops () ]
  in
  Cmd.v (Cmd.info "info" ~doc:"Describe the available guest models.") Term.(const run $ const ())

(* --- ssa --------------------------------------------------------------------------- *)

let ssa_cmd =
  let insn = Arg.(required & pos 0 (some string) None & info [] ~docv:"INSTRUCTION") in
  let level = Arg.(value & opt int 4 & info [ "l"; "level" ] ~docv:"N" ~doc:"Offline optimization level (1-4).") in
  let guest =
    Arg.(value & opt (enum [ ("armv8-a", `Arm); ("rv64im", `Riscv) ]) `Arm
         & info [ "g"; "guest" ] ~docv:"GUEST" ~doc:"Guest model (armv8-a or rv64im).")
  in
  let classify = Arg.(value & flag & info [ "c"; "classify" ] ~doc:"Annotate statements as [f]ixed or [d]ynamic (Sec. 2.2.2).") in
  let run insn level guest classify =
    let model =
      match guest with
      | `Arm -> Guest_arm.Arm.model_at_level level
      | `Riscv -> Ssa.Offline.build ~opt_level:level Guest_riscv.Riscv_descr.source
    in
    match Hashtbl.find_opt model.Ssa.Offline.actions insn with
    | Some action ->
      if classify then begin
        print_string (Ssa.Analysis.to_string_annotated action);
        let f, d, fb, db = Ssa.Analysis.stats action in
        Printf.printf "\n%d fixed / %d dynamic statements; %d fixed / %d dynamic branches\n" f d fb db
      end
      else print_string (Ssa.Ir.to_string action)
    | None ->
      Printf.printf "no action %S; available:\n" insn;
      Hashtbl.iter (fun n _ -> Printf.printf "  %s\n" n) model.Ssa.Offline.actions
  in
  Cmd.v (Cmd.info "ssa" ~doc:"Dump an instruction's optimized SSA (the offline artifact).")
    Term.(const run $ insn $ level $ guest $ classify)

(* --- lint --------------------------------------------------------------------------- *)

(* Static verification sweep over the whole offline pipeline, for every
   guest model:

   1. decode-table analysis (Adl.Declint): ambiguous overlaps, shadowed
      patterns, bad field-extraction plans, bad `when` predicates;
   2. SSA well-formedness (Ssa.Verify) after every optimization pass at
      each level O1-O4, attributing any broken invariant to the
      offending pass by name; plus the semantic layer (Ssa.Absint):
      translation validation of every optimized action against its
      unoptimized reference, and interval proofs that every bank/slot
      access index stays within the architecture's declared bounds;
   3. HostIR invariants (Hostir.Verify) on a representative translation
      of every action: post-regalloc operand discipline, spill-slot
      bounds, branch-target resolution and dead-marking soundness.

   Exit status is non-zero if any violation is found, so the `@lint`
   dune alias can gate the test suite on it.  With --json, stdout
   carries machine-readable counter objects (one per guest plus a
   summary line) for CI trending; violations go to stderr. *)

module Counters = Dbt_util.Stats.Counters

let lint_guest ~json c failures (ops : Guest.Ops.ops) =
  let arch = ops.Guest.Ops.model.Ssa.Offline.arch in
  let gname = ops.Guest.Ops.name in
  (* Progress chatter is suppressed in JSON mode; violations go to stderr
     there so stdout stays parseable. *)
  let say fmt =
    if json then Printf.ifprintf stdout fmt else Printf.printf fmt
  in
  let shout line = if json then prerr_endline line else print_endline line in
  say "linting %s: %d decode entries, %d execute actions\n%!" gname
    (List.length arch.Adl.Ast.a_decodes)
    (List.length arch.Adl.Ast.a_executes);
  (* 1. decode table *)
  Counters.bump c "decode entries checked" ~by:(List.length arch.Adl.Ast.a_decodes);
  List.iter
    (fun v ->
      incr failures;
      Counters.bump c "decode-table violations";
      shout (Printf.sprintf "  %s: %s" gname (Adl.Declint.string_of_violation v)))
    (Adl.Declint.check_arch arch);
  (* 2. SSA after every pass at O1-O4, then the semantic layer: validate
     the optimized action against its unoptimized twin (statement ids
     are stable across passes) and range-check every bank/slot access. *)
  Ssa.Absint.reset_simplify_stats ();
  List.iter
    (fun level ->
      List.iter
        (fun (x : Adl.Ast.execute) ->
          let reference = Ssa.Build.execute arch x in
          let action = Ssa.Build.execute arch x in
          let ctx = Ssa.Offline.opt_context arch x.Adl.Ast.x_name in
          try
            Ssa.Opt.optimize ~ctx ~verify:true ~level action;
            Counters.bump c "ssa action/level sweeps verified";
            let opt_summary = Ssa.Absint.analyze ~ctx action in
            let findings, compared =
              Ssa.Absint.validate ~ctx ~opt_summary ~reference ~optimized:action ()
            in
            Counters.bump c "absint statements validated" ~by:compared;
            let rfindings, rchecked =
              Ssa.Absint.check_ranges ~ctx ~summary:opt_summary action
            in
            Counters.bump c "absint accesses range-checked" ~by:rchecked;
            let report kind fs =
              List.iter
                (fun f ->
                  incr failures;
                  Counters.bump c (kind ^ " findings");
                  shout
                    (Printf.sprintf "  %s O%d %s: %s" gname level kind
                       (Ssa.Absint.string_of_finding f)))
                fs
            in
            report "validator" findings;
            report "range-check" rfindings
          with Ssa.Verify.Invalid { action = aname; phase; violations } ->
            incr failures;
            Counters.bump c "ssa violations" ~by:(List.length violations);
            shout
              (Ssa.Verify.report
                 ~action:(Printf.sprintf "%s/%s at O%d" gname aname level)
                 ~phase violations))
        arch.Adl.Ast.a_executes)
    [ 1; 2; 3; 4 ];
  let st = Ssa.Absint.simplify_stats in
  Counters.bump c "absint-simplify branches folded" ~by:st.Ssa.Absint.branches_folded;
  Counters.bump c "absint-simplify statements folded" ~by:st.Ssa.Absint.stmts_folded;
  Counters.bump c "absint-simplify masks dropped" ~by:st.Ssa.Absint.masks_dropped;
  (* 3. HostIR on a representative translation of every O4 action *)
  let cfg =
    {
      Hostir.Dag.bank_offset = ops.Guest.Ops.bank_offset;
      slot_offset = ops.Guest.Ops.slot_offset;
      lower_intrinsic =
        (fun name ->
          match Captive.Common.softfloat_index name with
          | Some h -> Hostir.Dag.L_helper h
          | None -> Hostir.Dag.L_inline);
      effect_helper = Captive.Common.effect_helper_index;
      coproc_read_helper = Captive.Common.h_coproc_read;
      coproc_write_helper = Captive.Common.h_coproc_write;
      split_va_check = false;
      as_switch_helper = Captive.Common.h_as_switch;
    }
  in
  Hashtbl.iter
    (fun aname action ->
      (* A representative decoded instance: all fields zero, EL1.  Some
         actions cannot translate under it (e.g. dynamic widths); they
         are skipped, not failed. *)
      let field n = if n = "__el" then 1L else 0L in
      match
        let dag = Hostir.Dag.create cfg in
        Ssa.Gen.translate (Hostir.Dag.emitter dag) action ~field
          ~inc_pc:(Some ops.Guest.Ops.insn_size);
        Hostir.Dag.raw dag (Hostir.Hir.Exit 0);
        Some (Hostir.Dag.finish dag)
      with
      | exception (Ssa.Gen.Unsupported _ | Hostir.Dag.Unsupported_lowering _ | Invalid_argument _)
        ->
        Counters.bump c "hostir translations skipped"
      | None -> Counters.bump c "hostir translations skipped"
      | Some original -> (
        let ra = Hostir.Regalloc.run original in
        match Hostir.Verify.check ~original ra with
        | [] -> Counters.bump c "hostir translations verified"
        | violations ->
          incr failures;
          Counters.bump c "hostir violations" ~by:(List.length violations);
          shout (Hostir.Verify.report ~what:(gname ^ "/" ^ aname) violations)))
    ops.Guest.Ops.model.Ssa.Offline.actions

let lint_cmd =
  let guest =
    Arg.(value & opt guests_conv `All & info [ "g"; "guest" ] ~docv:"GUEST"
           ~doc:"Guest model to lint (armv8-a, rv64im or all).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit counters as JSON on stdout (one object per guest plus a \
                 summary line); violations go to stderr.")
  in
  let run guest json =
    let guests = guest_models guest in
    let summary = Counters.create () in
    let failures = ref 0 in
    List.iter
      (fun ops ->
        let c = Counters.create () in
        lint_guest ~json c failures ops;
        List.iter (fun (n, v) -> Counters.bump summary n ~by:v) (Counters.to_list c);
        if json then
          Printf.printf "{\"kind\":\"guest\",\"guest\":%s,\"counters\":%s}\n"
            (Dbt_util.Stats.json_string ops.Guest.Ops.name)
            (Counters.to_json c))
      guests;
    if json then
      Printf.printf "{\"kind\":\"summary\",\"guests\":%d,\"violations\":%d,\"counters\":%s}\n"
        (List.length guests) !failures (Counters.to_json summary)
    else Printf.printf "\nlint counters:\n%s" (Counters.report summary);
    if !failures = 0 then begin
      if not json then print_endline "lint: no violations";
      `Ok ()
    end
    else `Error (false, Printf.sprintf "lint: %d violation site(s)" !failures)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify decode tables, SSA passes (O1-O4) and HostIR for every guest.")
    Term.(ret (const run $ guest $ json))

(* --- template coverage ------------------------------------------------------------- *)

(* The template-coverage gate of `bench` (the SPEC proxies) and
   `mmucheck` (the OS boots): at least [min_coverage] percent of the
   guest instructions a boot translated must come from the template
   tier.  A boot below the floor fails through [fail], with its
   per-opcode miss table.  Returns the percentage. *)
let min_coverage = 75.

let template_coverage ~fail name (s : CE.phase_stats) misses =
  let pct =
    100. *. float_of_int s.CE.template_instrs /. float_of_int (max 1 s.CE.guest_instrs_translated)
  in
  if pct < min_coverage then
    fail
      (String.concat "\n"
         (Printf.sprintf "%s: template coverage %.1f%% below %.0f%%" name pct min_coverage
         :: List.map (fun (op, n) -> Printf.sprintf "    miss %-24s x%d" op n) misses));
  pct

(* --- mmucheck ------------------------------------------------------------------------ *)

(* Online counterpart of `lint`: boot the ARM mini-OS and RISC-V
   bare-metal MMU-stress workloads with the shadow-oracle sanitizer
   (Hvm.Sanitize) enabled — checkpointing at every host fault, flush,
   SMC invalidation and every [CE.sanitize_every] translated blocks —
   and report the per-checker counters.  All five checkers run at
   every checkpoint: page tables vs. shadow, TLB derivability, frame
   accounting, code cache W^X/content coherence, and the ring audit.  The same boots
   carry the OS boots' template-coverage gate.  Exit status is non-zero
   on any finding, on coverage below the floor or on a wrong guest exit
   code.

   --guard reruns the ARM workload with the sanitizer off and asserts
   that cycle counts and exit codes match the sanitized run exactly:
   the sanitizer charges no cycles and perturbs no statistics, so
   sanitizer-off throughput is the engine's unmodified cycle model. *)

let mmucheck_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit per-workload counter objects and a summary line as JSON on stdout; \
                 findings go to stderr.")
  in
  let guard =
    Arg.(value & flag & info [ "guard" ]
           ~doc:"Also rerun the ARM workload with the sanitizer off and assert identical \
                 cycle counts and exit code (the sanitizer is observation-free).")
  in
  let run json guard =
    let failures = ref 0 in
    let summary = Counters.create () in
    let say fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt in
    let shout line = if json then prerr_endline line else print_endline line in
    let fail line =
      incr failures;
      shout ("  " ^ line)
    in
    let config = { CE.default_config with CE.sanitize = true } in
    let report name (e : CE.t) ~code ~expected =
      (* One final sweep so even a quiet run ends with a checkpoint. *)
      CE.sanitize_check e ~reason:"final";
      let s = Option.get e.CE.sanitizer in
      let fnd = Hvm.Sanitize.findings s in
      List.iter (fun f -> fail (Printf.sprintf "%s: %s" name (Hvm.Sanitize.string_of_finding f))) fnd;
      if code <> expected then fail (Printf.sprintf "%s: exit code %d, expected %d" name code expected);
      let pct = template_coverage ~fail name e.CE.stats (CE.template_miss_table e) in
      let c = Hvm.Sanitize.counters s in
      List.iter (fun (n, v) -> Counters.bump summary n ~by:v) (Counters.to_list c);
      if json then
        Printf.printf
          "{\"kind\":\"workload\",\"name\":%s,\"exit\":%d,\"expected\":%d,\"findings\":%d,\"coverage_pct\":%.2f,%s,\"counters\":%s}\n"
          (Dbt_util.Stats.json_string name) code expected (List.length fnd) pct
          (CE.counters_json e.CE.stats) (Counters.to_json c)
      else
        say "%s: exit %d (expected %d), %d finding(s), template coverage %.1f%%\n%s\n" name code
          expected (List.length fnd) pct (Counters.report c);
      pct
    in
    (* Rows are named by guest; the ARM run comes first. *)
    let runs =
      List.map
        (fun (w : W.workload) ->
          let program = w.W.w_program () in
          let name = match program with `Arm_user _ -> "armv8-a" | `Riscv_mmu -> "rv64im" in
          say "mmucheck: %s MMU stress under the shadow-oracle sanitizer\n%!" name;
          let e, code = W.boot ~config program in
          (e, code, report name e ~code ~expected:w.W.w_exit))
        W.mmu_stress
    in
    if guard then begin
      let e_arm, code_arm, _ = List.hd runs in
      let e_off, code_off =
        W.boot ~config:{ config with CE.sanitize = false } (W.arm_mmu.W.w_program ())
      in
      let cy_off = CE.cycles e_off and cy_on = CE.cycles e_arm in
      let ok = code_off = code_arm && cy_off = cy_on in
      if not ok then
        fail
          (Printf.sprintf
             "guard: sanitizer perturbs execution (off: exit %d, %d cycles; on: exit %d, %d cycles)"
             code_off cy_off code_arm cy_on);
      if json then
        Printf.printf
          "{\"kind\":\"guard\",\"cycles_off\":%d,\"cycles_on\":%d,\"exit_off\":%d,\"exit_on\":%d,\"ok\":%b}\n"
          cy_off cy_on code_off code_arm ok
      else
        say "guard: sanitizer-off cycles %d, sanitizer-on cycles %d: %s\n" cy_off cy_on
          (if ok then "identical" else "MISMATCH")
    end;
    let min_pct = List.fold_left (fun a (_, _, p) -> min a p) 100. runs in
    if json then
      Printf.printf
        "{\"kind\":\"summary\",\"workloads\":2,\"findings\":%d,\"min_coverage_pct\":%.2f,\"counters\":%s}\n"
        !failures min_pct (Counters.to_json summary)
    else say "\nmmucheck counters:\n%s" (Counters.report summary);
    if !failures = 0 then begin
      if not json then print_endline "mmucheck: no findings";
      `Ok ()
    end
    else `Error (false, Printf.sprintf "mmucheck: %d finding(s)" !failures)
  in
  Cmd.v
    (Cmd.info "mmucheck"
       ~doc:"Run the ARM and RISC-V MMU-stress workloads under the shadow-oracle sanitizer \
             and gate their template coverage.")
    Term.(ret (const run $ json $ guard))

(* --- stress -------------------------------------------------------------------------- *)

(* The concurrency-stress lane for the concurrent JIT.  Each seed runs
   the MMU-stress workloads (both guests: SMC, page-table churn, ring
   transitions) with worker domains, a lowered hot threshold (so region
   jobs are plentiful) and a seeded install-schedule jitter
   (Engine.stress_seed): the vCPU's drain of completed translation jobs
   is deterministically randomized, exploring different interleavings
   of publish / lookup / invalidate against the sharded code cache.
   Two oracles hold every run: the shadow-oracle MMU sanitizer (which
   also audits the published shard keys for coherence) must report zero
   findings, and the guest-visible outcome — exit code and UART
   output — must equal a single-domain reference run of the same
   workload.  Any violation fails the run. *)

let stress_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one flat JSON object per (workload, seed) run plus a summary line on \
                 stdout; findings go to stderr.")
  in
  let seeds =
    Arg.(value & opt int 8 & info [ "seeds" ] ~docv:"N"
           ~doc:"Seeded drain schedules to explore per workload.")
  in
  let domains =
    Arg.(value & opt int 3 & info [ "domains" ] ~docv:"D"
           ~doc:"Total domains per engine: one vCPU plus D-1 JIT workers.")
  in
  let run json seeds domains =
    if seeds < 1 then `Error (true, "--seeds must be >= 1")
    else if domains < 2 then `Error (true, "--domains must be >= 2")
    else begin
      let failures = ref 0 in
      let say fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt in
      let shout line = if json then prerr_endline line else print_endline line in
      (* Hot threshold 4: the stress workloads cross it early and often,
         so the job queue, the install path and SMC cancellation all see
         real traffic. *)
      let base_config =
        { Captive.Engine.default_config with
          Captive.Engine.sanitize = true;
          hot_threshold = 4;
        }
      in
      let run_one ~config (w : W.workload) =
        let e, code = W.boot ~config (w.W.w_program ()) in
        (* One final sweep so even a quiet run ends with a checkpoint. *)
        Captive.Engine.sanitize_check e ~reason:"final";
        (e, code)
      in
      let workloads = W.mmu_stress in
      say "stress: %d workload(s) x %d seed(s) at %d domains (1 vCPU + %d JIT workers)\n%!"
        (List.length workloads) seeds domains (domains - 1);
      (* Single-domain references: the guest-visible outcome every
         concurrent run must reproduce. *)
      let refs =
        List.map
          (fun ({ W.w_name = name; w_exit = expected; _ } as w) ->
            let e, code = run_one ~config:base_config w in
            if code <> expected then begin
              incr failures;
              shout
                (Printf.sprintf "stress: %s: reference exit %d, expected %d" name code expected)
            end;
            (name, (code, Captive.Engine.uart_output e)))
          workloads
      in
      let runs = ref 0 in
      List.iter
        (fun ({ W.w_name = name; w_exit = expected; _ } as w) ->
          let ref_code, ref_uart = List.assoc name refs in
          for seed = 1 to seeds do
            incr runs;
            let config =
              { base_config with
                Captive.Engine.domains;
                stress_seed = Some (Int64.of_int seed);
              }
            in
            let e, code = run_one ~config w in
            let s = e.Captive.Engine.stats in
            let findings =
              match e.Captive.Engine.sanitizer with
              | Some sa -> Hvm.Sanitize.findings sa
              | None -> []
            in
            let uart_ok = String.equal (Captive.Engine.uart_output e) ref_uart in
            let ok = findings = [] && code = ref_code && code = expected && uart_ok in
            if not ok then begin
              incr failures;
              shout
                (Printf.sprintf
                   "stress: %s seed %d: exit %d (ref %d, expected %d), uart %s, %d sanitizer \
                    finding(s)"
                   name seed code ref_code expected
                   (if uart_ok then "ok" else "DIVERGED")
                   (List.length findings));
              List.iter
                (fun f -> shout (Printf.sprintf "  %s" (Hvm.Sanitize.string_of_finding f)))
                findings
            end;
            if json then
              Printf.printf
                "{\"kind\":\"run\",\"workload\":%s,\"seed\":%d,\"domains\":%d,\"exit\":%d,\"expected\":%d,\"exit_ref\":%d,\"uart_ok\":%b,\"findings\":%d,\"async_jit_cycles\":%d,%s,\"ok\":%b}\n"
                (Dbt_util.Stats.json_string name)
                seed domains code expected ref_code uart_ok (List.length findings)
                (Captive.Engine.async_jit_cycles e) (Captive.Engine.counters_json s) ok
            else
              say "%-12s seed %3d: exit %3d, jobs %d enq / %d inst / %d stale / %d cancelled%s\n"
                name seed code s.Captive.Engine.jobs_enqueued s.Captive.Engine.jobs_installed
                s.Captive.Engine.jobs_stale s.Captive.Engine.jobs_cancelled
                (if ok then "" else "  FAIL")
          done)
        workloads;
      if json then
        Printf.printf
          "{\"kind\":\"summary\",\"workloads\":%d,\"seeds\":%d,\"domains\":%d,\"runs\":%d,\"failures\":%d,\"gate\":%s}\n"
          (List.length workloads) seeds domains !runs !failures
          (Dbt_util.Stats.json_string (if !failures = 0 then "pass" else "fail"));
      shout
        (Printf.sprintf "stress: %d run(s) at %d domains: %s" !runs domains
           (if !failures = 0 then "PASS" else "FAIL"));
      if !failures = 0 then `Ok ()
      else `Error (false, Printf.sprintf "stress: %d failure(s)" !failures)
    end
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:"Race-focused stress lane: run the MMU-stress workloads on the concurrent JIT \
             with seeded install schedules, gated by the MMU sanitizer and single-domain \
             equivalence.")
    Term.(ret (const run $ json $ seeds $ domains))

(* --- bench ---------------------------------------------------------------------------- *)

(* The quick-workload gate.  `bench --quick` runs a handful of
   loop-heavy SPEC proxies on three engines — Captive with tiering,
   Captive tier-0-only, and the QEMU-style reference engine — and emits
   one flat JSON object per workload plus a summary (`--json`), in the
   shape `bench/baseline.json` is committed in.  The tiered boot answers
   every question asked of a workload:

   - perf: when a baseline is available, the run fails if tiered Captive
     cycles regress by more than 5% over it, if the Captive-vs-QEMU
     speedup drops below baseline - 5%, or if translate_cpgi rises by
     more than 5%; --exact (the determinism gate) also demands
     bit-identical exec_cycles, jit_cycles and translate_cycles_template;
   - template coverage: the floor of [template_coverage];
   - AOT: the tiered boot runs against a fresh cache directory, which
     makes it the AOT cold boot without moving any of its cycles
     (test_parity).  A warm boot on a fresh engine then reinstalls the
     persisted code, and must spend at most [aot_max_ratio] percent of
     the cold boot's translate cycles, with bit-identical guest
     execution cycles (translation is pure overhead, so where the code
     came from must be invisible to the guest), the same exit code, no
     rejected entry and no relocation finding.

   Scaling reuses the harness's BENCH_SCALE convention so the quick set
   stays under ~60s. *)

module MJ = Dbt_util.Minijson

let aot_max_ratio = 10.

type bench_row = {
  br_name : string;
  br_exit : int; (* tiered Captive exit code *)
  br_exit_ok : bool;
  br_tiered : int; (* tiered Captive cycles *)
  br_untiered : int;
  br_qemu : int;
  br_speedup : float; (* qemu / tiered captive *)
  br_gain_pct : float; (* (untiered - tiered) / untiered * 100 *)
  br_hinstrs : int; (* host instrs interpreted, tiered *)
  br_hinstrs_u : int; (* host instrs interpreted, tier-0 only *)
  br_rf_loads : int; (* dynamic register-file loads, tiered *)
  br_rf_stores : int; (* dynamic register-file stores (incl. writebacks) *)
  br_exec : int; (* guest-execution cycles, tiered (cycles - jit) *)
  br_jit : int; (* total JIT cycles, tiered (sync + async) *)
  br_async_jit : int; (* JIT cycles charged from worker-domain installs *)
  br_stats : CE.phase_stats;
  br_coverage : float; (* [template_coverage] of the tiered boot *)
  br_warm_exit : int; (* AOT warm boot *)
  br_warm_exec : int;
  br_warm_ratio : float; (* warm / cold translate cycles, percent *)
  br_warm_stats : CE.phase_stats;
  br_aot_entries : int; (* cache entries after the warm boot *)
}

(* A fresh directory path for one workload's AOT cache; the directory
   and its entries are removed afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "captive_aot" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let bench_run_one ~scale ~domains ~fail name : bench_row =
  let user = (Workloads.Spec.find name).Workloads.Spec.build ~scale in
  let run_captive config = W.boot ~config ~max_cycles:50_000_000_000 (`Arm_user user) in
  let (e_t, code_t), (e_w, code_w) =
    with_temp_dir (fun dir ->
        let config = { CE.default_config with CE.domains; aot_dir = Some dir } in
        let cold = run_captive config in
        (cold, run_captive config))
  in
  let e_u, code_u = run_captive { CE.default_config with CE.tiering = false } in
  let cy_u = CE.cycles e_u in
  let e_q = Qemu_ref.Qemu_engine.create (Guest_arm.Arm.ops ()) in
  Workloads.Kernel.install (Workloads.Kernel.qemu_target e_q) ~user;
  let code_q =
    match Qemu_ref.Qemu_engine.run ~max_cycles:50_000_000_000 e_q with
    | Qemu_ref.Qemu_engine.Poweroff c -> c
    | _ -> -2
  in
  let cy_t = CE.cycles e_t and cy_q = Qemu_ref.Qemu_engine.cycles e_q in
  let s = e_t.CE.stats and sw = e_w.CE.stats in
  let exit_ok = code_t = code_u && code_t = code_q && code_t >= 0 in
  if not exit_ok then fail (name ^ ": engines disagree on exit code");
  let coverage = template_coverage ~fail name s (CE.template_miss_table e_t) in
  (* The AOT warm-boot gate. *)
  let xc = CE.exec_cycles e_t and xw = CE.exec_cycles e_w in
  let tc = s.CE.translate_cycles and tw = sw.CE.translate_cycles in
  let ratio = 100. *. float_of_int tw /. float_of_int (max 1 tc) in
  if code_w <> code_t then
    fail (Printf.sprintf "%s: AOT exit codes cold %d / warm %d" name code_t code_w);
  if xw <> xc then
    fail (Printf.sprintf "%s: AOT guest execution cycles differ (cold %d, warm %d)" name xc xw);
  if ratio > aot_max_ratio then
    fail
      (Printf.sprintf "%s: AOT warm translate cycles %d are %.1f%% of cold %d (limit %.0f%%)"
         name tw ratio tc aot_max_ratio);
  if sw.CE.aot_rejects > 0 then
    fail (Printf.sprintf "%s: AOT warm boot rejected %d cache entr(ies)" name sw.CE.aot_rejects);
  if sw.CE.reloc_findings > 0 then
    fail
      (String.concat "\n"
         (Printf.sprintf "%s: AOT warm boot: %d relocation finding(s)" name sw.CE.reloc_findings
         :: List.map
              (fun (what, detail) -> Printf.sprintf "  %s %s\n    %s" name what detail)
              (CE.log_of e_w CE.Reloc)));
  {
    br_name = name;
    br_exit = code_t;
    br_exit_ok = exit_ok;
    br_tiered = cy_t;
    br_untiered = cy_u;
    br_qemu = cy_q;
    br_speedup = float_of_int cy_q /. float_of_int (max 1 cy_t);
    br_gain_pct = 100. *. float_of_int (cy_u - cy_t) /. float_of_int (max 1 cy_u);
    br_hinstrs = e_t.CE.ctx.Hostir.Exec.instrs_executed;
    br_hinstrs_u = e_u.CE.ctx.Hostir.Exec.instrs_executed;
    br_rf_loads = e_t.CE.ctx.Hostir.Exec.rf_loads;
    br_rf_stores = e_t.CE.ctx.Hostir.Exec.rf_stores;
    br_exec = xc;
    br_jit = CE.jit_cycles e_t;
    br_async_jit = CE.async_jit_cycles e_t;
    br_stats = s;
    br_coverage = coverage;
    br_warm_exit = code_w;
    br_warm_exec = xw;
    br_warm_ratio = ratio;
    br_warm_stats = sw;
    br_aot_entries = CE.aot_entry_count e_w;
  }

(* translate_cpgi: simulated translate cycles per guest instruction
   translated — the ROADMAP's translation-cost metric; template_cpgi
   is the same for the template tier alone, i.e. the cold-translate
   cost of a boot in which nothing has been promoted yet. *)
let per_instr cycles instrs = float_of_int cycles /. float_of_int (max 1 instrs)
let bench_cpgi (s : CE.phase_stats) = per_instr s.CE.translate_cycles s.CE.guest_instrs_translated

(* A row is the workload's own fields, then the tiered boot's counters,
   then the AOT warm boot's under the [warm_] prefix. *)
let bench_row_json r =
  let s = r.br_stats in
  Printf.sprintf
    "{\"kind\":\"workload\",\"name\":%s,\"exit\":%d,\"exit_ok\":%b,\"captive_cycles\":%d,\"exec_cycles\":%d,\"jit_cycles\":%d,\"async_jit_cycles\":%d,\"captive_untiered_cycles\":%d,\"qemu_cycles\":%d,\"speedup\":%.4f,\"tiered_gain_pct\":%.2f,\"host_instrs\":%d,\"host_instrs_untiered\":%d,\"rf_loads\":%d,\"rf_stores\":%d,\"translate_cpgi\":%.2f,\"template_cpgi\":%.2f,\"coverage_pct\":%.2f,\"warm_exit\":%d,\"warm_exec_cycles\":%d,\"warm_ratio_pct\":%.2f,\"aot_entries\":%d,%s,%s}"
    (Dbt_util.Stats.json_string r.br_name)
    r.br_exit r.br_exit_ok r.br_tiered r.br_exec r.br_jit r.br_async_jit r.br_untiered r.br_qemu
    r.br_speedup r.br_gain_pct r.br_hinstrs r.br_hinstrs_u r.br_rf_loads r.br_rf_stores
    (bench_cpgi s)
    (per_instr s.CE.translate_cycles_template s.CE.template_instrs)
    r.br_coverage r.br_warm_exit r.br_warm_exec r.br_warm_ratio r.br_aot_entries
    (CE.counters_json s)
    (CE.counters_json ~prefix:"warm_" r.br_warm_stats)

(* A committed baseline: one flat JSON object per line; the workload
   rows' fields keyed by "name". *)
let bench_load_baseline file =
  if not (Sys.file_exists file) then []
  else
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match MJ.parse_line_opt line with
           | Some fields when MJ.find_string fields "kind" = Some "workload" ->
             Option.map (fun n -> (n, fields)) (MJ.find_string fields "name")
           | _ -> None)

(* The baseline gate on one row: "captive_cycles", "speedup" and
   "translate_cpgi" gate with 5% tolerance; under --exact,
   "exec_cycles", "jit_cycles" and "translate_cycles_template" must
   also be present and bit-identical. *)
let bench_gate ~fail ~exact r fields =
  let num = MJ.find_number fields in
  let name = r.br_name in
  (match num "captive_cycles" with
  | Some bc when float_of_int r.br_tiered > bc *. 1.05 ->
    fail (Printf.sprintf "%s: captive cycles regressed >5%% (%d vs baseline %.0f)" name r.br_tiered bc)
  | _ -> ());
  (match num "speedup" with
  | Some bs when r.br_speedup < bs *. 0.95 ->
    fail
      (Printf.sprintf "%s: captive-vs-qemu speedup %.2fx below baseline %.2fx - 5%%" name
         r.br_speedup bs)
  | _ -> ());
  (match num "translate_cpgi" with
  | Some bt when bench_cpgi r.br_stats > bt *. 1.05 ->
    fail
      (Printf.sprintf "%s: translate_cpgi regressed >5%% (%.1f vs baseline %.1f)" name
         (bench_cpgi r.br_stats) bt)
  | _ -> ());
  if exact then
    List.iter
      (fun (key, got) ->
        match num key with
        | Some want when float_of_int got = want -> ()
        | Some want ->
          fail (Printf.sprintf "%s: %s %d not bit-identical to baseline %.0f" name key got want)
        | None -> fail (Printf.sprintf "%s: --exact but baseline has no %s" name key))
      [ ("exec_cycles", r.br_exec); ("jit_cycles", r.br_jit);
        ("translate_cycles_template", r.br_stats.CE.translate_cycles_template) ]

let bench_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one flat JSON object per workload plus a summary line on stdout; the \
                 gate verdict goes to stderr.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Run the quick loop-heavy subset (under ~60s) used by the CI gate.")
  in
  let baseline =
    Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Baseline to gate against (default: bench/baseline.json when present).")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ]
           ~doc:"Determinism gate: additionally require exec_cycles, jit_cycles and \
                 translate_cycles_template to be bit-identical to the baseline's (fails if \
                 the baseline lacks those fields).  Meaningful with --domains 1, where the \
                 cycle model is deterministic.")
  in
  let domains =
    Arg.(value & opt positive 1 & info [ "domains" ] ~docv:"D"
           ~doc:"Domains for the tiered Captive engine (1 = synchronous JIT; D > 1 adds \
                 D-1 worker domains).")
  in
  let run json quick baseline scale exact domains =
    let names = if quick then W.quick_bench else W.full_bench in
    let say fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt in
    let shout line = if json then prerr_endline line else print_endline line in
    let failures = ref 0 in
    let fail line =
      incr failures;
      shout ("bench: " ^ line)
    in
    say "bench%s: %d workloads at scale %d, %d domain(s) (captive tiered / captive tier-0 / qemu)\n%!"
      (if quick then " --quick" else "")
      (List.length names) scale domains;
    let rows =
      List.map
        (fun name ->
          let r = bench_run_one ~scale ~domains ~fail name in
          if json then print_endline (bench_row_json r)
          else
            say "%-16s captive %11d  tier-0 %11d  qemu %11d  speedup %5.2fx  tiered gain %+5.1f%%  (regions %d/%d blocks)  templates %5.1f%%  AOT warm %4.1f%%%s\n"
              r.br_name r.br_tiered r.br_untiered r.br_qemu r.br_speedup r.br_gain_pct
              r.br_stats.CE.regions_formed r.br_stats.CE.region_blocks r.br_coverage
              r.br_warm_ratio
              (if r.br_exit_ok then "" else "  EXIT MISMATCH");
          r)
        names
    in
    let geomean f =
      exp (List.fold_left (fun a r -> a +. log (max 1e-9 (f r))) 0. rows
           /. float_of_int (max 1 (List.length rows)))
    in
    let gm_speedup = geomean (fun r -> r.br_speedup) in
    let min_pct = List.fold_left (fun a r -> min a r.br_coverage) 100. rows in
    let baseline_file =
      match baseline with
      | Some f -> f
      | None -> Filename.concat "bench" "baseline.json"
    in
    let base = bench_load_baseline baseline_file in
    if base = [] && exact then
      fail "--exact requires a baseline with exec_cycles/jit_cycles/translate_cycles_template";
    List.iter
      (fun r -> Option.iter (bench_gate ~fail ~exact r) (List.assoc_opt r.br_name base))
      rows;
    let gate = if !failures > 0 then "fail" else if base = [] then "no-baseline" else "pass" in
    if json then
      Printf.printf
        "{\"kind\":\"summary\",\"workloads\":%d,\"scale\":%d,\"geomean_speedup\":%.4f,\"min_coverage_pct\":%.2f,\"gate\":%s,\"failures\":%d}\n"
        (List.length rows) scale gm_speedup min_pct
        (Dbt_util.Stats.json_string gate)
        !failures;
    shout
      (Printf.sprintf "bench: geomean speedup %.2fx over qemu; gate vs %s: %s" gm_speedup
         (if base = [] then "(no baseline)" else baseline_file)
         (String.uppercase_ascii gate));
    if !failures = 0 then `Ok ()
    else `Error (false, Printf.sprintf "bench: %d gate failure(s)" !failures)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run the benchmark set on all engines and gate cycles and speedup against \
             bench/baseline.json, template coverage and the AOT warm boot.")
    Term.(ret (const run $ json $ quick $ baseline $ scale_arg $ exact $ domains))

(* --- check --------------------------------------------------------------------------- *)

(* The translate-time check sweep: boot each workload of the registry's
   check matrix once at every offline optimization level O1-O4 with all
   three checkers on, and count what each checked and found in every
   translation the engine forms.  Exit status is non-zero on any
   finding or wrong guest exit code.  With --json, stdout carries one
   counter object per workload/level pair plus a summary line for the
   CI artifact; findings go to stderr.

   - Equiv: every template block, tier-0 block and region is
     symbolically executed alongside an unoptimized per-instruction
     reference emission from the same decode, and the exit states —
     PC, register file (promoted offsets equated through the writeback
     map), ordered store trace and helper-call arguments — are compared
     term-by-term.
   - Absint: every translation is pushed through the dataflow analyzer
     and checked against the static obligations — register-file
     accesses in bounds and aligned, spill-slot accesses inside the
     allocated frame, the promoted writeback discipline.
   - Reloc: every translation is decoded back from its encoded bytes
     and classified operand by operand — no absolute host addresses,
     control leaves only through numbered chain/exit sites,
     environment references in bounds, helpers by stable symbol id —
     and audited for encoding determinism.  A flagged translation must
     never be persisted, so any finding is a hard failure.

   The checkers only observe: each one's counts and findings in a boot
   with all three on equal a boot with it alone (test_parity). *)

let check_names = List.map (fun w -> w.W.w_name) W.check_matrix

let check json workload level =
  if workload <> "all" && not (List.mem workload check_names) then
    `Error
      ( true,
        Printf.sprintf "unknown workload %S; valid names: all, %s" workload
          (String.concat ", " check_names) )
  else if level < 0 || level > 4 then
    `Error (true, Printf.sprintf "level %d outside 0-4 (1-4 selects one level, 0 sweeps all)" level)
  else begin
    let config =
      {
        CE.default_config with
        CE.validate_translations = true;
        analyze_translations = true;
        reloc_check = true;
      }
    in
    let failures = ref 0 in
    let summary = Counters.create () in
    let say fmt = if json then Printf.ifprintf stdout fmt else Printf.printf fmt in
    let shout line = if json then prerr_endline line else print_endline line in
    let workloads =
      List.filter_map
        (fun w -> if workload = "all" || workload = w.W.w_name then Some (w, w.W.w_program ()) else None)
        W.check_matrix
    in
    let levels = if level = 0 then [ 1; 2; 3; 4 ] else [ level ] in
    say "check: %d workload(s) x %d level(s) with validation, obligation checking and relocation \
         certification\n%!"
      (List.length workloads) (List.length levels);
    List.iter
      (fun level ->
        List.iter
          (fun ((w : W.workload), program) ->
            let name = w.W.w_name in
            let e, code = W.boot ~config ~opt_level:level program in
            let s = e.CE.stats in
            List.iter (fun (n, v) -> Counters.bump summary n ~by:v) (CE.int_counters s);
            (* Per checker: programs checked, findings and milliseconds. *)
            let cols =
              List.map
                (fun (checker, label) ->
                  let nb, nr, nf, t = CE.checker_stats s checker in
                  failures := !failures + nf;
                  List.iter
                    (fun (what, detail) ->
                      shout (Printf.sprintf "  %s O%d %s %s\n    %s" name level label what detail))
                    (CE.log_of e checker);
                  (nb + nr, nf, 1000. *. t))
                [ (CE.Equiv, "Equiv"); (CE.Absint, "Absint"); (CE.Reloc, "Reloc") ]
            in
            if code <> w.W.w_exit then begin
              incr failures;
              shout (Printf.sprintf "  %s O%d: exit code %d, expected %d" name level code w.W.w_exit)
            end;
            let ms = List.fold_left (fun a (_, _, m) -> a +. m) 0. cols in
            let programs = List.fold_left (fun a (n, _, _) -> max a n) 1 cols in
            let per = ms /. float_of_int programs in
            if json then
              Printf.printf
                "{\"kind\":\"workload\",\"name\":%s,\"opt_level\":%d,\"exit\":%d,\"expected\":%d,\"ms_per_program\":%.3f,%s}\n"
                (Dbt_util.Stats.json_string name) level code w.W.w_exit per (CE.counters_json s)
            else
              say "%-20s O%d: exit %d (expected %d); %d program(s), %d finding(s); %.1fms \
                   (%.3fms/program)\n%!"
                name level code w.W.w_exit programs
                (List.fold_left (fun a (_, nf, _) -> a + nf) 0 cols)
                ms per)
          workloads)
      levels;
    if json then
      Printf.printf "{\"kind\":\"summary\",\"workloads\":%d,\"failures\":%d,\"counters\":%s}\n"
        (List.length workloads * List.length levels)
        !failures (Counters.to_json summary)
    else say "\ncheck counters:\n%s" (Counters.report summary);
    if !failures = 0 then begin
      if not json then print_endline "check: no findings";
      `Ok ()
    end
    else `Error (false, Printf.sprintf "check: %d finding(s)" !failures)
  end

let check_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one counter object per workload/level pair plus a summary line as JSON \
                 on stdout; findings go to stderr.")
  in
  let workload =
    Arg.(value & opt string "all" & info [ "w"; "workload" ] ~docv:"NAME"
           ~doc:(Printf.sprintf "Restrict to one workload (%s, or all)."
                   (String.concat ", " check_names)))
  in
  let level =
    Arg.(value & opt int 0 & info [ "l"; "level" ] ~docv:"N"
           ~doc:"Restrict to one offline optimization level (1-4; 0 sweeps all).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run every translate-time checker (Equiv validation, Absint obligations, Reloc \
             certification) on every translation formed while running the ARM and RISC-V \
             workloads at O1-O4, one boot per workload and level.")
    Term.(ret (const check $ json $ workload $ level))

let () =
  let doc = "Retargetable system-level DBT hypervisor (Captive reproduction)" in
  let man =
    [ `S Manpage.s_synopsis;
      `P "$(mname) $(b,spec) $(i,BENCHMARK) [$(b,--engine) $(i,ENGINE)] [$(b,--scale) $(i,N)]";
      `Noblank; `P "$(mname) $(b,simbench) [$(i,CATEGORY)]";
      `Noblank; `P "$(mname) $(b,boot) [$(b,--engine) $(i,ENGINE)]";
      `Noblank; `P "$(mname) $(b,info)";
      `Noblank; `P "$(mname) $(b,ssa) $(i,INSTRUCTION) [$(b,--level) $(i,N)] [$(b,--guest) $(i,GUEST)] [$(b,--classify)]";
      `Noblank; `P "$(mname) $(b,lint) [$(b,--guest) $(i,GUEST)] [$(b,--json)]";
      `Noblank; `P "$(mname) $(b,mmucheck) [$(b,--json)] [$(b,--guard)]";
      `Noblank; `P "$(mname) $(b,stress) [$(b,--json)] [$(b,--seeds) $(i,N)] [$(b,--domains) $(i,D)]";
      `Noblank; `P "$(mname) $(b,bench) [$(b,--quick)] [$(b,--json)] [$(b,--baseline) $(i,FILE)] [$(b,--exact)] [$(b,--domains) $(i,D)]";
      `Noblank; `P "$(mname) $(b,check) [$(b,--json)] [$(b,--workload) $(i,NAME)] [$(b,--level) $(i,N)]";
    ]
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "captive_run" ~doc ~man)
          [ spec_cmd; simbench_cmd; boot_cmd; info_cmd; ssa_cmd; lint_cmd; mmucheck_cmd;
            stress_cmd; bench_cmd; check_cmd ]))
