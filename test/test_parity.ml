(* Counter parity: the translation-side bookkeeping of both MMU-stress
   boots, pinned to recorded values.

   Each run boots the ARM or RISC-V MMU-stress workload at [domains = 1]
   under one engine config and compares the exit code, [cycles],
   [jit_cycles], every integer counter of [Engine.counters] and the
   lengths of the three finding logs against a recorded row.  The
   configs cover every translation tier and every install path:
   templates on and off, tiering off, the full trust stack ([check]),
   and a checked AOT cold boot followed by a warm boot from the same
   fresh directory.  The rows also pin the counter table's order and
   coverage: a count missing from it shortens every row.

   A mismatch prints the whole actual row, so a deliberate change to
   the translation bookkeeping is re-recorded by pasting it in.  The
   same rows show that the checks only observe and that an AOT cold
   boot is the plain boot, and a unit test pins the one finding log the
   checkers share. *)

module CE = Captive.Engine
module W = Workloads.Registry

let row (e : CE.t) ~code =
  [ ("exit", code); ("cycles", CE.cycles e); ("jit_cycles", CE.jit_cycles e) ]
  @ CE.int_counters e.CE.stats
  @ [
      ("validation_log", List.length (CE.log_of e CE.Equiv));
      ("analysis_log", List.length (CE.log_of e CE.Absint));
      ("reloc_log", List.length (CE.log_of e CE.Reloc));
    ]

let boot (w : W.workload) config =
  let e, code = W.boot ~config (w.W.w_program ()) in
  row e ~code

let base = { CE.default_config with CE.domains = 1 }

let configs =
  [
    ("default", base);
    ("no-templates", { base with CE.templates = false });
    ("no-tiering", { base with CE.tiering = false });
    ("trust-stack", { base with CE.check = true });
  ]

(* Recorded rows, in [row] column order. *)
let expected : (string * int list) list =
  [
    ("arm/default",
      [
        31; 2111151; 103915; 43; 205; 1913; 12317; 0; 0; 8261; 76; 1; 1; 1; 1; 37; 1; 8127; 0; 2;
        1; 4; 4; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 24; 0; 9; 103915; 80295; 23620; 43; 205; 0; 0; 68;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0
      ]);
    ("arm/no-templates",
      [
        31; 2794402; 787200; 43; 205; 1833; 11592; 5; 0; 8261; 76; 1; 1; 1; 1; 37; 1; 8127; 0; 2;
        1; 4; 4; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 24; 0; 9; 787200; 0; 787200; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0
      ]);
    ("arm/no-tiering",
      [
        31; 2770782; 763580; 43; 205; 1833; 11592; 5; 0; 8261; 8203; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 763580; 0; 763580; 0; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0
      ]);
    ("arm/trust-stack",
      [
        31; 2111151; 103915; 43; 205; 1913; 12317; 0; 0; 8261; 76; 1; 1; 1; 1; 37; 1; 8127; 0; 2;
        1; 4; 4; 43; 1; 0; 1; 43; 1; 0; 0; 0; 0; 24; 0; 9; 103915; 80295; 23620; 43; 205; 0; 0; 68;
        43; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0
      ]);
    ("arm/aot-cold",
      [
        31; 2111151; 103915; 43; 205; 1913; 12317; 0; 0; 8261; 76; 1; 1; 1; 1; 37; 1; 8127; 0; 2;
        1; 4; 4; 43; 1; 0; 1; 43; 1; 0; 0; 0; 0; 24; 0; 9; 103915; 80295; 23620; 43; 205; 0; 0; 68;
        43; 1; 0; 0; 1; 44; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0
      ]);
    ("arm/aot-warm",
      [
        31; 2009906; 2670; 43; 205; 1913; 12317; 0; 0; 8261; 76; 1; 1; 1; 1; 37; 1; 8127; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 2670; 2611; 59; 43; 205; 0; 0; 0; 43; 1; 0;
        44; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0
      ]);
    ("riscv/default",
      [
        13; 27830; 21450; 8; 36; 282; 1618; 2; 0; 21; 13; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 21450; 11690; 9760; 6; 32; 0; 2; 23; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0
      ]);
    ("riscv/no-templates",
      [
        13; 118214; 112020; 8; 36; 237; 1227; 3; 0; 21; 13; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 112020; 0; 112020; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0
      ]);
    ("riscv/no-tiering",
      [
        13; 118214; 112020; 8; 36; 237; 1227; 3; 0; 21; 13; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 112020; 0; 112020; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0
      ]);
    ("riscv/trust-stack",
      [
        13; 27830; 21450; 8; 36; 282; 1618; 2; 0; 21; 13; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 8; 0;
        0; 0; 8; 0; 0; 0; 0; 0; 0; 0; 0; 21450; 11690; 9760; 6; 32; 0; 2; 23; 8; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0
      ]);
    ("riscv/aot-cold",
      [
        13; 27830; 21450; 8; 36; 282; 1618; 2; 0; 21; 13; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 8; 0;
        0; 0; 8; 0; 0; 0; 0; 0; 0; 0; 0; 21450; 11690; 9760; 6; 32; 0; 2; 23; 8; 0; 0; 0; 2; 8; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0
      ]);
    ("riscv/aot-warm",
      [
        13; 6848; 468; 8; 36; 282; 1618; 0; 0; 21; 13; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 468; 364; 104; 6; 32; 0; 2; 2; 8; 0; 0; 8; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0
      ])
  ]

(* Print every row that disagrees with its record, then fail on the
   first differing field. *)
let check rows =
  let bad =
    List.filter
      (fun (name, actual) -> List.assoc_opt name expected <> Some (List.map snd actual))
      rows
  in
  List.iter
    (fun (name, actual) ->
      Printf.printf "    (%S,\n     [ %s ]);\n" name
        (String.concat "; " (List.map (fun (_, v) -> string_of_int v) actual)))
    bad;
  List.iter
    (fun (name, actual) ->
      match List.assoc_opt name expected with
      | None -> Alcotest.failf "%s: no recorded row" name
      | Some want ->
        List.iter2
          (fun (field, got) w -> Alcotest.(check int) (name ^ " " ^ field) w got)
          actual want)
    bad

let test_guest w gname () =
  let rows = List.map (fun (cname, config) -> (gname ^ "/" ^ cname, boot w config)) configs in
  let aot =
    Temp_dir.with_dir (fun dir ->
        let config = { base with CE.aot_dir = Some dir; check = true } in
        let cold = boot w config in
        let warm = boot w config in
        [ (gname ^ "/aot-cold", cold); (gname ^ "/aot-warm", warm) ])
  in
  check (rows @ aot)

(* A fresh-directory AOT cold boot is the plain boot: storing every
   certified translation moves no cycle and no counter besides the
   cache's own and the certifier's.  `bench` rests on this to make its
   tiered boot the AOT cold boot. *)
let test_aot_cold_is_plain w () =
  let plain = boot w base in
  let cold = Temp_dir.with_dir (fun dir -> boot w { base with CE.aot_dir = Some dir }) in
  let compared (field, _) =
    not
      (String.starts_with ~prefix:"aot_" field
      || List.mem field [ "blocks_certified"; "regions_certified" ])
  in
  Alcotest.(check (list (pair string int)))
    "cold boot" (List.filter compared plain) (List.filter compared cold)

(* The row fields a checker owns: its counts in [CE.checkers], Equiv's
   bounded checks and the three log lengths. *)
let owned =
  List.concat_map
    (fun c -> List.map (fun (n, _, _) -> n) [ c.CE.ck_blocks; c.CE.ck_regions; c.CE.ck_findings ])
    CE.checkers
  @ [ "validations_bounded"; "validation_log"; "analysis_log"; "reloc_log" ]

(* The checks only observe, which is what lets `check` read every
   checker and the MMU sanitizer from one boot per (workload, level)
   pair: a boot with [check] on equals the plain boot on every field no
   checker owns (exit, cycles, jit_cycles, ...). *)
let test_checks_only_observe w () =
  let unowned = List.filter (fun (field, _) -> not (List.mem field owned)) in
  Alcotest.(check (list (pair string int)))
    "unowned fields" (unowned (boot w base)) (unowned (boot w { base with CE.check = true }))

(* The one finding log keeps discovery order and each checker's first
   [log_cap] findings, however they arrive; the counters stay exact. *)
let test_finding_log () =
  let e = CE.create (Guest_arm.Arm.ops ()) in
  let add = CE.Internal.log_findings e in
  let names p n = List.init n (fun i -> (Printf.sprintf "%s%d" p i, "detail")) in
  add CE.Absint (names "a" 100);
  List.iter (fun (f, r) -> add CE.Equiv [ f ]; add CE.Reloc [ r ]) (List.combine (names "e" 100) (names "r" 100));
  List.iter
    (fun (checker, p) ->
      Alcotest.(check (list (pair string string))) p (names p CE.log_cap) (CE.log_of e checker))
    [ (CE.Equiv, "e"); (CE.Absint, "a"); (CE.Reloc, "r") ];
  let s = e.CE.stats in
  Alcotest.(check (list int)) "counters past the cap" [ 100; 100; 100 ]
    [ s.CE.validation_findings; s.CE.obligation_findings; s.CE.reloc_findings ]

(* The counter JSON is the table: 54 counts under their own names and
   10 timers as [<name>_ms], no key twice, every count equal to its
   [int_counters] value; and [add_stats] onto fresh stats reproduces it,
   so the merge covers every counter. *)
let test_counter_json () =
  let e, _ = W.boot ~config:base (W.riscv_mmu.W.w_program ()) in
  let s = e.CE.stats in
  let json = CE.counters_json s in
  let fields = Dbt_util.Minijson.parse_line ("{" ^ json ^ "}") in
  let is_ms k = String.starts_with ~prefix:"t_" k && String.ends_with ~suffix:"_ms" k in
  let counts = List.filter (fun (k, _) -> not (is_ms k)) fields in
  Alcotest.(check int) "distinct keys" 64 (List.length (List.sort_uniq compare (List.map fst fields)));
  Alcotest.(check (pair int int)) "counts, timers" (54, 10)
    (List.length counts, List.length fields - List.length counts);
  Alcotest.(check (list (pair string int))) "counts" (CE.int_counters s)
    (List.map (function k, Dbt_util.Minijson.N v -> (k, int_of_float v) | k, _ -> (k, -1)) counts);
  let copy = CE.new_phase_stats () in
  CE.add_stats copy s;
  Alcotest.(check string) "add_stats onto fresh stats" json (CE.counters_json copy)

let suite =
  ( "parity",
    [
      Alcotest.test_case "armv8-a MMU-stress counters" `Quick (test_guest W.arm_mmu "arm");
      Alcotest.test_case "rv64im MMU-stress counters" `Quick (test_guest W.riscv_mmu "riscv");
      Alcotest.test_case "armv8-a AOT cold boot is the plain boot" `Quick
        (test_aot_cold_is_plain W.arm_mmu);
      Alcotest.test_case "rv64im AOT cold boot is the plain boot" `Quick
        (test_aot_cold_is_plain W.riscv_mmu);
      Alcotest.test_case "armv8-a checks only observe" `Quick (test_checks_only_observe W.arm_mmu);
      Alcotest.test_case "rv64im checks only observe" `Quick (test_checks_only_observe W.riscv_mmu);
      Alcotest.test_case "one finding log" `Quick test_finding_log;
      Alcotest.test_case "counter JSON is the table" `Quick test_counter_json;
    ] )
