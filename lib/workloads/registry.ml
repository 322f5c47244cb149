(* The workload registry: the one list of what the captive_run gates
   boot, and the one helper that boots it on a Captive engine.

   - [check_matrix]: the ten workloads `check` boots at O1-O4.
   - [mmu_stress]: the ARM and RISC-V MMU-stress images (`stress`;
     also in the check matrix).
   (`bench` runs every SPEC proxy of [Spec.all].) *)

module A = Guest_arm.Arm_asm

(* An ARM user program under the mini-OS, or the bare-metal RISC-V
   MMU-stress image. *)
type program = [ `Arm_user of bytes | `Riscv_mmu ]

type workload = {
  w_name : string;
  w_exit : int; (* expected guest exit code *)
  w_program : unit -> program;
}

(* Guest exit code of a finished run; -2 and -3 mark the cycle and
   block limits. *)
let exit_of = function
  | Captive.Engine.Poweroff c -> c
  | Captive.Engine.Cycle_limit -> -2
  | Captive.Engine.Block_limit -> -3

(* Boot a Captive engine on one program and run it to the end.  Worker
   domains are shut down before it returns. *)
let boot ?(config = Captive.Engine.default_config) ?opt_level ?(max_cycles = 2_000_000_000)
    (program : program) =
  let e =
    match program with
    | `Arm_user user ->
      let e = Captive.Engine.create ~config (Guest_arm.Arm.ops ?opt_level ()) in
      Kernel.install (Kernel.captive_target e) ~user;
      e
    | `Riscv_mmu ->
      let e = Captive.Engine.create ~config (Guest_riscv.Riscv.ops ?opt_level ()) in
      Captive.Engine.load_image e ~addr:Mmu_stress.riscv_entry (Mmu_stress.riscv_image ());
      Captive.Engine.set_entry e Mmu_stress.riscv_entry;
      e
  in
  Fun.protect
    ~finally:(fun () -> Captive.Engine.shutdown e)
    (fun () -> (e, exit_of (Captive.Engine.run ~max_cycles e)))

(* The `boot` subcommand's user program: a banner over putchar
   syscalls, then exit 0. *)
let demo_user () =
  let a = A.create ~base:Kernel.user_va () in
  String.iter
    (fun ch ->
      A.movz a A.x0 (Char.code ch);
      A.movz a A.x8 1;
      A.svc a 0)
    "captive mini-OS: up at EL0 with paging, syscalls and a timer\n";
  A.movz a A.x0 0;
  A.movz a A.x8 0;
  A.svc a 0;
  A.assemble a

let spec ~scale name : program = `Arm_user ((Spec.find name).Spec.build ~scale)

let arm_mmu =
  {
    w_name = "armv8-a-mmu";
    w_exit = Mmu_stress.arm_expected_exit;
    w_program = (fun () -> `Arm_user (Mmu_stress.arm_user ()));
  }

let riscv_mmu =
  { w_name = "rv64im-mmu"; w_exit = Mmu_stress.riscv_expected_exit; w_program = (fun () -> `Riscv_mmu) }

let mmu_stress = [ arm_mmu; riscv_mmu ]

(* The demo boot, both MMU-stress images and seven SPEC proxies at
   scale 1, named armv8-a-<proxy> ("462.libquantum" -> libquantum). *)
let check_matrix =
  let proxy name exit =
    let dot = String.index name '.' in
    let short = String.sub name (dot + 1) (String.length name - dot - 1) in
    { w_name = "armv8-a-" ^ short; w_exit = exit; w_program = (fun () -> spec ~scale:1 name) }
  in
  ({ w_name = "armv8-a-boot"; w_exit = 0; w_program = (fun () -> `Arm_user (demo_user ())) }
   :: arm_mmu
   :: List.map2 proxy
        [ "462.libquantum"; "429.mcf"; "400.perlbench"; "458.sjeng"; "445.gobmk"; "471.omnetpp";
          "483.xalancbmk" ]
        [ 8; 0; 212; 35; 64; 220; 0 ])
  @ [ riscv_mmu ]
