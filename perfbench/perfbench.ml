(* One round of a benchmark workload, run in this process.

   A round runs every program of the workload, in an order drawn from
   the seed, first on Captive (one fresh engine per program) and then on
   the QEMU-style engine.  Each run is capped at the program's golden
   cycle cap and checked against the program's golden exit code and UART
   output, which the Reference interpreter produced ([golden] below).
   The round prints one JSON object on stdout: a row per program, the
   end-to-end totals, and per-layer numbers read from the engines' own
   counters and phase timers after each run.

   With [--trace] the round also records a span around every call into
   a layer (workload > program > create / install / run), keeps them in
   memory and writes them to the [--spans] file at the end, and times one
   extra [Hvm.Mem.create] per engine.  Nothing simulated depends on it.

   Usage:
     perfbench.exe round --workload W --seed N [--trace] [--spans FILE]
                         [--golden FILE]
     perfbench.exe golden > perfbench/golden.jsonl *)

module CE = Captive.Engine
module QE = Qemu_ref.Qemu_engine
module R = Captive.Reference
module K = Workloads.Kernel
module Spec = Workloads.Spec
module Mmu = Workloads.Mmu_stress
module A = Guest_arm.Arm_asm
module Json = Dbt_util.Minijson

(* --- workloads ------------------------------------------------------- *)

type guest = Arm | Riscv

type program = {
  name : string;
  guest : guest;
  install : K.target -> unit; (* loads the prebuilt image, sets the entry *)
}

let ops = function Arm -> Guest_arm.Arm.ops () | Riscv -> Guest_riscv.Riscv.ops ()

let bare image (t : K.target) =
  t.K.load ~addr:0x80000L image;
  t.K.set_entry 0x80000L

let spec_prog ~scale (b : Spec.benchmark) =
  let user = b.Spec.build ~scale in
  { name = b.Spec.name; guest = Arm; install = (fun t -> K.install t ~user) }

(* Scale 8 keeps every proxy far below the ~126 M-cycle run length at
   which a timer-on, tiering-on Captive run stops powering off (see
   README.md, "Known hang"). *)
let spec_steady_scale = 8
let spec_steady = [ "462.libquantum"; "429.mcf"; "400.perlbench"; "458.sjeng" ]

let system () =
  List.map
    (fun (b : Simbench.bench) ->
      let install =
        match b.Simbench.kind with
        | Simbench.Bare | Simbench.Bare_mmu -> bare b.Simbench.image
        | Simbench.User -> fun t -> K.install ~enable_timer:false t ~user:b.Simbench.image
      in
      { name = b.Simbench.name; guest = Arm; install })
    (Simbench.all ())
  @ [
      (let user = Mmu.arm_user () in
       { name = "arm-mmu-stress"; guest = Arm; install = (fun t -> K.install t ~user) });
      (let image = Mmu.riscv_image () in
       {
         name = "riscv-mmu-stress";
         guest = Riscv;
         install =
           (fun t ->
             t.K.load ~addr:Mmu.riscv_entry image;
             t.K.set_entry Mmu.riscv_entry);
       });
    ]

(* Self-test fixtures: a guest that spins forever and one that exits 3.
   Their goldens both claim exit 0, so every run of them must come back
   as a failure within the fixture's cap. *)
let fixtures () =
  let image body =
    let a = A.create ~base:0x80000L () in
    body a;
    A.label a "spin";
    A.b a "spin";
    A.assemble a
  in
  let exit3 a =
    A.mov_const a A.x25 Simbench.syscon;
    A.movz a A.x24 3;
    A.str a A.x24 A.x25
  in
  [
    { name = "fixture-hang"; guest = Arm; install = bare (image ignore) };
    { name = "fixture-wrong-exit"; guest = Arm; install = bare (image exit3) };
  ]

let workload = function
  | "spec-steady" ->
    List.map (fun n -> spec_prog ~scale:spec_steady_scale (Spec.find n)) spec_steady
  | "cold-sweep" -> List.map (spec_prog ~scale:1) Spec.all
  | "system" -> system ()
  | "fixtures" -> fixtures ()
  | w -> failwith ("unknown workload " ^ w)

let golden_workloads = [ "spec-steady"; "cold-sweep"; "system" ]

(* The seed picks only the order programs run in: every program and
   every input has a golden output. *)
let shuffle seed xs =
  let a = Array.of_list xs in
  let rng = Dbt_util.Prng.create (Int64.of_int seed) in
  for i = Array.length a - 1 downto 1 do
    let j = Dbt_util.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- golden outputs ---------------------------------------------------- *)

let jstr = Dbt_util.Stats.json_string

type golden = { exit : int; uart : string; cap : int }

(* The cycle cap of a program, from its golden run's guest instruction
   count.  At this commit the per-instruction term is 1.2x the worst
   steady-state cost either engine shows (QEMU-style 400.perlbench at
   scale 8, ~33 cycles per guest instruction), and the slack is 1.35x
   the worst translation-bound program (QEMU-style TLB-Flush, which
   re-translates after every flush: ~148 M cycles for 130 k guest
   instructions).  A hung run therefore fails in seconds, not minutes. *)
let cap_of_instrs n = (40 * n) + 200_000_000

(* Keyed by (workload, program): spec-steady and cold-sweep run the same
   proxies at different scales. *)
let fixture_goldens =
  [
    (("fixtures", "fixture-hang"), { exit = 0; uart = ""; cap = 1_000_000 });
    (("fixtures", "fixture-wrong-exit"), { exit = 0; uart = ""; cap = 1_000_000 });
  ]

let load_goldens file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      acc
    | line -> (
      match Json.parse_line line with
      | [] -> go acc
      | kv ->
        let str k = Option.get (Json.find_string kv k) in
        let int k = int_of_float (Option.get (Json.find_number kv k)) in
        go
          (( (str "workload", str "name"),
             { exit = int "exit"; uart = str "uart"; cap = int "cap" } )
          :: acc))
  in
  go []

(* Golden outputs come from the Reference interpreter, never from an
   engine under test. *)
let golden () =
  List.iter
    (fun w ->
      List.iter
        (fun p ->
          let r = R.create (ops p.guest) in
          p.install (K.reference_target r);
          let exit =
            match R.run ~max_instrs:2_000_000_000 r with
            | R.Poweroff c -> c
            | R.Step_limit -> failwith (p.name ^ ": reference did not power off")
          in
          let uart = R.uart_output r in
          String.iter
            (fun c ->
              if Char.code c < 0x20 && not (String.contains "\n\t\r" c) then
                failwith (p.name ^ ": UART output has a control character"))
            uart;
          let n = r.R.instrs_executed in
          Printf.printf "{\"name\":%s,\"workload\":%s,\"exit\":%d,\"uart\":%s,\"ref_instrs\":%d,\"cap\":%d}\n%!"
            (jstr p.name) (jstr w) exit (jstr uart) n (cap_of_instrs n);
          Gc.full_major ())
        (workload w))
    golden_workloads

type verdict = Pass | Exit_mismatch | Uart_mismatch | Cap_hit

let verdict_name = function
  | Pass -> "pass"
  | Exit_mismatch -> "exit_mismatch"
  | Uart_mismatch -> "uart_mismatch"
  | Cap_hit -> "cycle_cap_hit"

let check (g : golden) ~exit ~uart =
  match exit with
  | None -> Cap_hit
  | Some c when c <> g.exit -> Exit_mismatch
  | Some _ when uart <> g.uart -> Uart_mismatch
  | Some _ -> Pass

(* --- spans and sums --------------------------------------------------- *)

let now = Unix.gettimeofday
let tracing = ref false

type span = { id : int; parent : int; label : string; t0 : float; t1 : float }

let spans : span list ref = ref []
let next_id = ref 0

(* Time [f]; when tracing, also record it as a span under [parent].  [f]
   receives the span's id, the parent of any span it opens. *)
let timed ~parent name f =
  let id =
    if !tracing then begin
      incr next_id;
      !next_id
    end
    else 0
  in
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  if !tracing then spans := { id; parent; label = name; t0; t1 } :: !spans;
  (r, t1 -. t0)

let write_spans file =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace child s.parent
        ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  let oc = open_out file in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%s,\"start\":%.6f,\"end\":%.6f,\"self_s\":%.9f}\n" s.id
        s.parent (jstr s.label) s.t0 s.t1
        (d -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    (List.rev !spans);
  close_out oc

(* Per-layer numbers summed over the round's programs. *)
let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let add k v = Hashtbl.replace sums k (v +. Option.value ~default:0. (Hashtbl.find_opt sums k))
let addi k n = add k (float_of_int n)
let sum k = Option.value ~default:0. (Hashtbl.find_opt sums k)
let ratio a b = if b = 0. then 0. else a /. b

(* --- one program on each engine ------------------------------------------ *)

type run = { verdict : verdict; exit : int; cycles : int; setup_s : float; run_s : float }

let exit_code = function Some c -> c | None -> -1

let run_captive ~parent (p : program) (g : golden) =
  let guest = ops p.guest in
  let e, create_s = timed ~parent "create" (fun _ -> CE.create guest) in
  let (), install_s = timed ~parent "install" (fun _ -> p.install (K.captive_target e)) in
  let reason, run_s = timed ~parent "run" (fun _ -> CE.run ~max_cycles:g.cap e) in
  let exit = match reason with CE.Poweroff c -> Some c | CE.Cycle_limit | CE.Block_limit -> None in
  let s = e.CE.stats and m = e.CE.machine and ctx = e.CE.ctx in
  let jit_s =
    s.CE.t_decode +. s.CE.t_translate +. s.CE.t_regalloc +. s.CE.t_encode +. s.CE.t_analyze
    +. s.CE.t_validate +. s.CE.t_reloc
  in
  add "engine.create_s" create_s;
  add "engine.install_s" install_s;
  addi "hvm.tlb_misses" m.Hvm.Machine.tlb.Hvm.Tlb.misses;
  addi "hvm.tlb_flushes" m.Hvm.Machine.tlb.Hvm.Tlb.flushes;
  addi "hvm.faults" m.Hvm.Machine.faults;
  addi "hvm.mem_ops" m.Hvm.Machine.mem_ops;
  addi "engine.blocks_executed" s.CE.blocks_executed;
  addi "engine.chain_hits" s.CE.chain_hits;
  addi "engine.smc_invalidations" s.CE.smc_invalidations;
  add "jit.template_s" s.CE.t_template;
  add "jit.tier0_s" s.CE.t_tier0;
  add "jit.region_s" s.CE.t_region;
  add "jit.decode_s" s.CE.t_decode;
  add "jit.regalloc_s" s.CE.t_regalloc;
  add "jit.encode_s" s.CE.t_encode;
  add "jit.analyze_s" s.CE.t_analyze;
  addi "jit.sim_cycles" (CE.jit_cycles e);
  addi "jit.sim_cycles_template" s.CE.translate_cycles_template;
  addi "jit.sim_cycles_pipeline" s.CE.translate_cycles_pipeline;
  addi "jit.translate_cycles" s.CE.translate_cycles;
  addi "jit.blocks_translated" s.CE.blocks_translated;
  addi "jit.guest_instrs_translated" s.CE.guest_instrs_translated;
  addi "jit.host_instrs_emitted" s.CE.host_instrs_emitted;
  addi "jit.spills" s.CE.spills;
  addi "template.variants_mined" s.CE.templates_mined;
  addi "template.instrs" s.CE.template_instrs;
  addi "template.fallback_blocks" s.CE.template_fallback_blocks;
  addi "region.promotions" s.CE.promotions;
  addi "region.formed" s.CE.regions_formed;
  addi "region.block_execs" s.CE.region_block_execs;
  addi "region.rf_promoted" s.CE.rf_promoted;
  addi "region.dead_stores" s.CE.region_dead_stores;
  addi "exec.sim_cycles" (CE.exec_cycles e);
  addi "exec.host_instrs" ctx.Hostir.Exec.instrs_executed;
  addi "exec.rf_loads" ctx.Hostir.Exec.rf_loads;
  addi "exec.rf_stores" ctx.Hostir.Exec.rf_stores;
  add "exec.self_s" (run_s -. jit_s);
  {
    verdict = check g ~exit ~uart:(CE.uart_output e);
    exit = exit_code exit;
    cycles = CE.cycles e;
    setup_s = create_s +. install_s;
    run_s;
  }

let run_qemu ~parent (p : program) (g : golden) =
  let guest = ops p.guest in
  let e, create_s = timed ~parent "create" (fun _ -> QE.create guest) in
  let (), install_s = timed ~parent "install" (fun _ -> p.install (K.qemu_target e)) in
  let reason, run_s = timed ~parent "run" (fun _ -> QE.run ~max_cycles:g.cap e) in
  let exit = match reason with QE.Poweroff c -> Some c | QE.Cycle_limit | QE.Block_limit -> None in
  add "qemu.setup_s" (create_s +. install_s);
  add "qemu.run_s" run_s;
  addi "qemu.sim_cycles" (QE.cycles e);
  {
    verdict = check g ~exit ~uart:(QE.uart_output e);
    exit = exit_code exit;
    cycles = QE.cycles e;
    setup_s = create_s +. install_s;
    run_s;
  }

(* --- a round ------------------------------------------------------------------ *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0.
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
  in
  let v = go () in
  close_in ic;
  v

let jnum x = Printf.sprintf "%.17g" x
let jobj kvs = "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) kvs) ^ "}"

let round ~workload:w ~seed ~trace ~qemu ~spans_file ~golden_file =
  tracing := trace;
  let programs = workload w in
  let goldens = if w = "fixtures" then fixture_goldens else load_goldens golden_file in
  let golden_of (p : program) =
    match List.assoc_opt (w, p.name) goldens with
    | Some g -> g
    | None -> failwith ("no golden output for " ^ p.name)
  in
  let order = shuffle seed programs in
  (* Each engine's 256 MiB guest RAM is freed before the next one is
     created, so peak RSS is one engine's footprint, not GC timing. *)
  let settled f =
    let r = f () in
    Gc.full_major ();
    r
  in
  Gc.full_major ();
  let (model_s, captive, rss_mb, qemu_runs), _ =
    timed ~parent:0 ("workload/" ^ w) (fun wid ->
        let guests = List.sort_uniq compare (List.map (fun (p : program) -> p.guest) programs) in
        let (), model_s =
          timed ~parent:wid "model_build" (fun _ -> List.iter (fun g -> ignore (ops g)) guests)
        in
        let captive =
          List.map
            (fun (p : program) ->
              let r, _ =
                settled (fun () ->
                    timed ~parent:wid ("captive/" ^ p.name) (fun pid ->
                        run_captive ~parent:pid p (golden_of p)))
              in
              if trace then begin
                let (), dt =
                  settled (fun () ->
                      timed ~parent:wid ("hvm.mem_create/" ^ p.name) (fun _ ->
                          ignore (Sys.opaque_identity (Hvm.Mem.create CE.default_config.CE.mem_size))))
                in
                add "hvm.mem_create_s" dt
              end;
              (p.name, r))
            order
        in
        (* Read before the QEMU-style runs, which are not Captive's cost. *)
        let rss_mb = peak_rss_mb () in
        let qemu_runs =
          if not qemu then []
          else
            List.map
              (fun (p : program) ->
                let r, _ =
                  settled (fun () ->
                      timed ~parent:wid ("qemu/" ^ p.name) (fun pid ->
                          run_qemu ~parent:pid p (golden_of p)))
                in
                (p.name, r))
              order
        in
        (model_s, captive, rss_mb, qemu_runs))
  in
  let results =
    List.map
      (fun (p : program) -> (p, List.assoc p.name captive, List.assoc_opt p.name qemu_runs))
      programs
  in
  let runs = List.map snd captive @ List.map snd qemu_runs in
  let count v = List.length (List.filter (fun (r : run) -> r.verdict = v) runs) in
  let speedup (c : run) (q : run) = float_of_int q.cycles /. float_of_int c.cycles in
  let rows =
    List.map
      (fun ((p : program), (c : run), q) ->
        jobj
          ([
             ("name", jstr p.name);
             ("golden_exit", string_of_int (golden_of p).exit);
             ("captive_cycles", string_of_int c.cycles);
             ("captive_exit", string_of_int c.exit);
             ("captive_verdict", jstr (verdict_name c.verdict));
             ("captive_setup_s", jnum c.setup_s);
             ("captive_run_s", jnum c.run_s);
           ]
          @
          match q with
          | None -> []
          | Some (q : run) ->
            [
              ("qemu_cycles", string_of_int q.cycles);
              ("qemu_exit", string_of_int q.exit);
              ("qemu_verdict", jstr (verdict_name q.verdict));
              ("qemu_run_s", jnum q.run_s);
              ("speedup", jnum (speedup c q));
            ]))
      results
  in
  let sim_cycles = List.fold_left (fun n (_, (c : run), _) -> n + c.cycles) 0 results in
  let guest_translated = sum "jit.guest_instrs_translated" in
  let layers =
    (("offline.model_build_s", model_s)
    :: List.map
         (fun k -> (k, sum k))
         [
           "hvm.mem_create_s"; "hvm.tlb_misses"; "hvm.tlb_flushes"; "hvm.faults"; "hvm.mem_ops";
           "engine.create_s"; "engine.install_s"; "engine.blocks_executed"; "engine.chain_hits";
           "engine.smc_invalidations"; "jit.template_s"; "jit.tier0_s"; "jit.region_s";
           "jit.decode_s"; "jit.regalloc_s"; "jit.encode_s"; "jit.analyze_s"; "jit.sim_cycles";
           "jit.sim_cycles_template"; "jit.sim_cycles_pipeline"; "jit.blocks_translated";
           "jit.spills"; "template.variants_mined"; "template.fallback_blocks";
           "region.promotions"; "region.formed"; "region.rf_promoted"; "region.dead_stores";
           "exec.sim_cycles"; "exec.host_instrs"; "exec.rf_loads"; "exec.rf_stores";
           "exec.self_s"; "qemu.sim_cycles"; "qemu.run_s"; "qemu.setup_s";
         ])
    @ [
        ("engine.chain_hit_ratio", ratio (sum "engine.chain_hits") (sum "engine.blocks_executed"));
        ("jit.translate_cpgi", ratio (sum "jit.translate_cycles") guest_translated);
        ("jit.host_per_guest", ratio (sum "jit.host_instrs_emitted") guest_translated);
        ("template.coverage", ratio (sum "template.instrs") guest_translated);
        ("region.exec_share", ratio (sum "region.block_execs") (sum "engine.blocks_executed"));
        ("exec.ns_per_host_instr", 1e9 *. ratio (sum "exec.self_s") (sum "exec.host_instrs"));
        ("oracle.exit_mismatches", float_of_int (count Exit_mismatch));
        ("oracle.uart_mismatches", float_of_int (count Uart_mismatch));
        ("oracle.cycle_cap_hits", float_of_int (count Cap_hit));
      ]
  in
  let totals =
    [
      ("sim_cycles", string_of_int sim_cycles);
      ("run_s", jnum (List.fold_left (fun t (_, (c : run)) -> t +. c.run_s) 0. captive));
      ("setup_s", jnum (List.fold_left (fun t (_, (c : run)) -> t +. c.setup_s) model_s captive));
      ("peak_rss_mb", jnum rss_mb);
      ("attempted", string_of_int (List.length runs));
      ("failed", string_of_int (List.length runs - count Pass));
    ]
    @
    if not qemu then []
    else
      [
        ( "speedup_vs_qemu",
          jnum
            (Dbt_util.Stats.geomean
               (List.map (fun (_, c, q) -> speedup c (Option.get q)) results)) );
      ]
  in
  (match spans_file with Some f when trace -> write_spans f | _ -> ());
  print_endline
    (jobj
       [
         ("workload", jstr w);
         ("seed", string_of_int seed);
         ("trace", string_of_bool trace);
         ("order", "[" ^ String.concat "," (List.map (fun (p : program) -> jstr p.name) order) ^ "]");
         ("rows", "[" ^ String.concat "," rows ^ "]");
         ("totals", jobj totals);
         ("layers", jobj (List.map (fun (k, v) -> (k, jnum v)) layers));
       ])

let () =
  match Array.to_list Sys.argv with
  | _ :: "golden" :: _ -> golden ()
  | _ :: "round" :: args ->
    let w = ref "" and seed = ref 0 and trace = ref false and qemu = ref false and spans = ref None in
    let golden_file = ref "perfbench/golden.jsonl" in
    let rec go = function
      | "--workload" :: v :: rest -> w := v; go rest
      | "--seed" :: v :: rest -> seed := int_of_string v; go rest
      | "--trace" :: rest -> trace := true; go rest
      | "--qemu" :: rest -> qemu := true; go rest
      | "--spans" :: v :: rest -> spans := Some v; go rest
      | "--golden" :: v :: rest -> golden_file := v; go rest
      | [] -> ()
      | a :: _ -> failwith ("unexpected argument " ^ a)
    in
    go args;
    round ~workload:!w ~seed:!seed ~trace:!trace ~qemu:!qemu ~spans_file:!spans
      ~golden_file:!golden_file
  | _ ->
    prerr_endline
      "usage: perfbench.exe (round --workload W --seed N [--qemu] [--trace] [--spans FILE] \
       [--golden FILE] | golden)";
    exit 2
