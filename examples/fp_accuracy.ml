(* Bit-accurate floating point (paper Sec. 2.5 / Table 2).

     dune exec examples/fp_accuracy.exe

   The guest executes FSQRT over the corner cases of Table 2.  Captive
   executes the host square-root instruction plus an inline fix-up; the
   QEMU-style engine calls a softfloat helper.  Both must produce the
   bit-exact ARMv8 results, including the NaN sign that differs from the
   host's SQRTSD. *)

module A = Guest_arm.Arm_asm

let inputs =
  [
    ("0.0", Int64.bits_of_float 0.0);
    ("-0.0", Int64.bits_of_float (-0.0));
    ("inf", Int64.bits_of_float infinity);
    ("-inf", Int64.bits_of_float neg_infinity);
    ("0.5", Int64.bits_of_float 0.5);
    ("-0.5", Int64.bits_of_float (-0.5));
    ("NaN", 0x7FF8000000000000L);
    ("-NaN", 0xFFF8000000000000L);
  ]

(* The guest computes fsqrt of each input and stores the result bits. *)
let program () =
  let a = A.create ~base:0x80000L () in
  List.iteri
    (fun i (_, bits) ->
      A.mov_const a A.x1 bits;
      A.fmov_x_to_d a A.d1 A.x1;
      A.fsqrt_d a A.d2 A.d1;
      A.fmov_d_to_x a A.x2 A.d2;
      A.mov_const a A.x3 (Int64.of_int (0x100000 + (8 * i)));
      A.str a A.x2 A.x3)
    inputs;
  A.mov_const a A.x10 0x0930_0000L;
  A.str a A.xzr A.x10;
  A.label a "hang";
  A.b a "hang";
  A.assemble a

let run_captive ~hw_fp =
  let config = { Captive.Engine.default_config with Captive.Engine.hw_fp } in
  let e = Captive.Engine.create ~config (Guest_arm.Arm.ops ()) in
  Captive.Engine.load_image e ~addr:0x80000L (program ());
  Captive.Engine.set_entry e 0x80000L;
  ignore (Captive.Engine.run ~max_cycles:50_000_000 e);
  List.mapi
    (fun i _ -> Hvm.Mem.read64 e.Captive.Engine.machine.Hvm.Machine.mem (Int64.of_int (0x100000 + (8 * i))))
    inputs

let run_qemu () =
  let e = Qemu_ref.Qemu_engine.create (Guest_arm.Arm.ops ()) in
  Qemu_ref.Qemu_engine.load_image e ~addr:0x80000L (program ());
  Qemu_ref.Qemu_engine.set_entry e 0x80000L;
  ignore (Qemu_ref.Qemu_engine.run ~max_cycles:50_000_000 e);
  List.mapi
    (fun i _ -> Hvm.Mem.read64 e.Captive.Engine.machine.Hvm.Machine.mem (Int64.of_int (0x100000 + (8 * i))))
    inputs

let () =
  let hw = run_captive ~hw_fp:true in
  let soft = run_captive ~hw_fp:false in
  let qemu = run_qemu () in
  let host_sqrtsd = List.map (fun (_, b) -> Softfloat.Archfp.x86_sqrtsd b) inputs in
  Printf.printf "%-6s %-18s %-18s %-18s %-8s\n" "input" "host SQRTSD" "guest FSQRT (hw)" "guest (softfloat)" "agree?";
  List.iteri
    (fun i (name, _) ->
      let h = List.nth hw i and s = List.nth soft i and q = List.nth qemu i in
      let x86 = List.nth host_sqrtsd i in
      Printf.printf "%-6s 0x%016Lx 0x%016Lx 0x%016Lx %s%s\n" name x86 h s
        (if h = s && s = q then "yes" else "NO!")
        (if h <> x86 then "   <- fix-up applied" else ""))
    inputs;
  if List.for_all2 (fun a b -> a = b) hw qemu && List.for_all2 (fun a b -> a = b) hw soft then
    print_endline "\nall three configurations are bit-identical (ARMv8 semantics)"
  else print_endline "\nBIT-ACCURACY VIOLATION"
