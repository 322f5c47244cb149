(* Relocation-cleanliness analyzer (Hostir.Reloc) and persistent AOT
   cache (Captive.Aotcache + the engine's warm-boot path) tests:

   - QCheck properties: encode -> decode_program -> re-encode is
     byte-identical on randomized allocated streams, and encoding the
     same stream twice reproduces the bytes (the determinism the
     content-keyed cache relies on);
   - one seeded-violation fixture per finding class, each rejected by
     [Reloc.certify] with exactly the expected class;
   - the [Encode.Encode_error] payload (instruction index + byte
     offset) on both the encode and decode sides;
   - Aotcache serialization roundtrip, corruption rejection, and
     disk-backed store/reload;
   - a mini warm-boot determinism check: the ARM MMU-stress workload
     cold then warm against the same cache directory must agree on the
     exit code and guest-visible execution cycles bit-for-bit, with the
     warm boot translating a fraction of the cold boot's cycles;
   - a flagged region entry on disk is refused at the warm boot's
     re-certification and the region re-translated. *)

open Hostir
module Hir = Hostir.Hir
module R = Reloc
module AC = Captive.Aotcache
module CE = Captive.Engine
module MS = Workloads.Mmu_stress
module W = Workloads.Registry

let env ?(n_exits = 0) ?(n_helpers = 8) ?(n_slots = 4) ?(rf_bytes = 1024) () =
  { R.n_exits; n_helpers; n_slots; rf_bytes }

let ra_of instrs =
  { Regalloc.instrs;
    dead = Array.make (Array.length instrs) false;
    n_slots = 4;
    n_spilled = 0;
    n_dead = 0
  }

let classes_of = function
  | Ok _ -> []
  | Error fs -> List.sort_uniq compare (List.map (fun f -> f.R.f_class) fs)

let check_rejected what expected result =
  match result with
  | Ok _ -> Alcotest.failf "%s: certified clean, expected %s" what (R.class_name expected)
  | Error fs ->
    if not (List.exists (fun f -> f.R.f_class = expected) fs) then
      Alcotest.failf "%s: findings %s lack %s" what
        (String.concat "; " (List.map R.finding_to_string fs))
        (R.class_name expected)

(* --- seeded violations: one fixture per finding class ----------------------- *)

let test_seeded_abs_host_addr () =
  let open Hir in
  (* A window value dereferenced is a leaked host pointer... *)
  let code = Encode.encode (ra_of [| Mem_ld (64, Preg 0, Imm 0x7F00_0000_0000_0000L); Exit 0 |]) in
  check_rejected "window load" R.Abs_host_addr (R.certify ~env:(env ()) code);
  let code = Encode.encode (ra_of [| Mem_st (64, Imm 0x7FFF_0000_0000_0000L, Preg 1); Exit 0 |]) in
  check_rejected "window store" R.Abs_host_addr (R.certify ~env:(env ()) code);
  (* ...but the same numeric range as plain data pins nothing: INT64_MAX
     is a legitimate guest constant (perlbench uses it). *)
  let code = Encode.encode (ra_of [| Mov (Preg 0, Imm Int64.max_int); Exit 0 |]) in
  (match R.certify ~env:(env ()) code with
  | Ok _ -> ()
  | Error fs ->
    Alcotest.failf "data immediate INT64_MAX flagged: %s"
      (String.concat "; " (List.map R.finding_to_string fs)))

let test_seeded_unnumbered_exit () =
  let open Hir in
  (* Chain slot above everything the installer binds. *)
  let code = Encode.encode (ra_of [| Exit 3 |]) in
  check_rejected "exit slot 3 of 0" R.Unnumbered_exit (R.certify ~env:(env ~n_exits:0 ()) code);
  (* Control falls off the end with no site to re-bind. *)
  let code = Encode.encode (ra_of [| Mov (Preg 0, Imm 1L) |]) in
  check_rejected "fall off the end" R.Unnumbered_exit (R.certify ~env:(env ()) code);
  (* A reachable branch to the very end is the same hole. *)
  let code =
    Encode.encode_stream [| Br (Preg 0, 0, 1); Label 0; Exit 0; Label 1 |]
  in
  check_rejected "branch past the end" R.Unnumbered_exit (R.certify ~env:(env ()) code)

let test_seeded_env_immediate () =
  let open Hir in
  let code = Encode.encode (ra_of [| Strf (4096, Preg 0); Exit 0 |]) in
  check_rejected "register-file store out of bounds" R.Env_immediate
    (R.certify ~env:(env ~rf_bytes:1024 ()) code);
  let code = Encode.encode (ra_of [| Strf (12, Preg 0); Exit 0 |]) in
  check_rejected "misaligned register-file store" R.Env_immediate
    (R.certify ~env:(env ()) code);
  let code = Encode.encode (ra_of [| Mov (Slot 9, Preg 0); Exit 0 |]) in
  check_rejected "frame slot outside the frame" R.Env_immediate
    (R.certify ~env:(env ~n_slots:4 ()) code);
  let code = Encode.encode (ra_of [| Mov (Preg 17, Imm 0L); Exit 0 |]) in
  check_rejected "host register outside the file" R.Env_immediate
    (R.certify ~env:(env ()) code)

let test_seeded_helper_by_addr () =
  let open Hir in
  let code = Encode.encode (ra_of [| Call (999, [||], None); Exit 0 |]) in
  check_rejected "helper index 999 of 8" R.Helper_by_addr
    (R.certify ~env:(env ~n_helpers:8 ()) code)

let test_seeded_nondet_encoding () =
  (* Hand-built non-canonical stream: Mov (Preg 0, Imm 5) with the
     immediate carried as imm32 (tag 2) where the canonical encoder
     picks imm8 (tag 1), then Exit 0.  It decodes fine but re-encodes
     shorter, so the content key would not be a function of the
     program. *)
  let non_canonical =
    Bytes.of_string "\x01\x00\x00\x02\x05\x00\x00\x00\x1B\x00\x00"
  in
  check_rejected "non-canonical imm width" R.Nondet_encoding
    (R.certify ~env:(env ()) non_canonical);
  (* An undecodable stream can never be audited, so it is flagged too. *)
  check_rejected "undecodable stream" R.Nondet_encoding
    (R.certify ~env:(env ()) (Bytes.of_string "\xFF"))

(* --- certificates on clean programs ----------------------------------------- *)

let test_certificate_shape () =
  let open Hir in
  let instrs =
    [| Ldrf (Preg 0, 16);
       Alu (Aadd, Preg 0, Preg 0, Imm 1L);
       Strf (16, Preg 0);
       Poll 1;
       Exit 2
    |]
  in
  let ra = ra_of instrs in
  let code = Encode.encode ra in
  match R.certify ~env:(env ~n_exits:2 ()) ~ra code with
  | Error fs ->
    Alcotest.failf "clean program rejected: %s"
      (String.concat "; " (List.map R.finding_to_string fs))
  | Ok cert ->
    Alcotest.(check int64) "content hash" (R.hash64 code) cert.R.c_hash;
    Alcotest.(check int) "byte size" (Bytes.length code) cert.R.c_byte_size;
    Alcotest.(check int) "exit sites" 2 (Array.length cert.R.c_sites);
    let s0 = cert.R.c_sites.(0) and s1 = cert.R.c_sites.(1) in
    Alcotest.(check bool) "first site is the poll" true (s0.R.s_kind = R.S_poll);
    Alcotest.(check int) "poll slot" 1 s0.R.s_slot;
    Alcotest.(check bool) "second site is the exit" true (s1.R.s_kind = R.S_exit);
    Alcotest.(check int) "exit slot" 2 s1.R.s_slot;
    Alcotest.(check bool) "site offsets ascend" true (s0.R.s_offset < s1.R.s_offset)

(* --- Encode_error payload ---------------------------------------------------- *)

let test_encode_error_payload () =
  let open Hir in
  (* Mov (Preg 0, Imm 1) is 5 bytes; the Vreg is hit after the second
     Mov's opcode and dest operand, 3 bytes further in. *)
  let instrs = [| Mov (Preg 0, Imm 1L); Mov (Preg 1, Vreg 3) |] in
  (match Encode.encode (ra_of instrs) with
  | exception Encode.Encode_error { index; offset; _ } ->
    Alcotest.(check int) "faulting instruction index" 1 index;
    Alcotest.(check int) "faulting byte offset" 8 offset
  | _ -> Alcotest.fail "Vreg reached the encoder without an error");
  match Encode.decode_program (Bytes.of_string "\xFF") with
  | exception Encode.Encode_error { index; offset; msg } ->
    Alcotest.(check int) "decode index" 0 index;
    Alcotest.(check int) "decode offset" 0 offset;
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "mentions the opcode" true (contains msg "opcode")
  | _ -> Alcotest.fail "bad opcode decoded without an error"

(* --- QCheck: encoding is canonical and deterministic -------------------------- *)

let gen_operand =
  QCheck2.Gen.(
    oneof
      [ map (fun r -> Hir.Preg r) (int_range 0 15);
        map (fun v -> Hir.Imm (Int64.of_int v)) (int_range (-200) 200);
        map (fun v -> Hir.Imm v) (map Int64.of_int int);
        map (fun v -> Hir.Imm (Int64.of_int32 (Int32.of_int v))) (int_range (-70000) 70000);
        map (fun s -> Hir.Slot s) (int_range 0 3)
      ])

let gen_instr =
  QCheck2.Gen.(
    let op2 f = map2 f gen_operand gen_operand in
    let op3 f = map3 f gen_operand gen_operand gen_operand in
    oneof
      [ op2 (fun d s -> Hir.Mov (d, s));
        map2
          (fun k (d, a, b) -> Hir.Alu (k, d, a, b))
          (oneofl Hir.[ Aadd; Asub; Aand; Aor; Axor; Ashl; Ashr; Asar; Amul ])
          (triple gen_operand gen_operand gen_operand);
        map2
          (fun k (d, a, b) -> Hir.Setcc (k, d, a, b))
          (oneofl Hir.[ Ceq; Cne; Cult; Cslt; Csge ])
          (triple gen_operand gen_operand gen_operand);
        map3 (fun s (d, src) bits -> Hir.Ext (s, bits, d, src)) bool
          (pair gen_operand gen_operand) (oneofl [ 8; 16; 32 ]);
        op2 (fun d s -> Hir.Neg (d, s));
        map2
          (fun k (d, s) -> Hir.Bit1 (k, d, s))
          (oneofl Hir.[ Bclz32; Bclz64; Bpopcnt; Bswap64 ])
          (pair gen_operand gen_operand);
        op3 (fun d c a -> Hir.Cmov (d, c, a, Hir.Preg 0));
        map2 (fun d off -> Hir.Ldrf (d, 8 * off)) gen_operand (int_range 0 63);
        map2 (fun s off -> Hir.Strf (8 * off, s)) gen_operand (int_range 0 63);
        map2 (fun w (d, a) -> Hir.Mem_ld (w, d, a)) (oneofl [ 8; 16; 32; 64 ])
          (pair gen_operand gen_operand);
        map2 (fun w (a, v) -> Hir.Mem_st (w, a, v)) (oneofl [ 8; 16; 32; 64 ])
          (pair gen_operand gen_operand);
        map (fun n -> Hir.Inc_pc n) (int_range 0 64);
        map2
          (fun h args -> Hir.Call (h, Array.of_list args, Some (Hir.Preg 1)))
          (int_range 0 7)
          (list_size (int_range 0 3) gen_operand)
      ])

let gen_program =
  QCheck2.Gen.(
    map2
      (fun body deads ->
        let instrs = Array.of_list (body @ [ Hir.Exit 0 ]) in
        let dead = Array.make (Array.length instrs) false in
        List.iteri (fun i d -> if i < Array.length dead - 1 then dead.(i) <- d) deads;
        { Regalloc.instrs; dead; n_slots = 4; n_spilled = 0; n_dead = 0 })
      (list_size (int_range 1 24) gen_instr)
      (list_size (int_range 0 24) bool))

let prop_roundtrip_canonical =
  QCheck2.Test.make ~name:"encode -> decode -> re-encode is byte-identical" ~count:300
    gen_program (fun ra ->
      let code = Encode.encode ra in
      let p = Encode.decode_program ~n_slots:ra.Regalloc.n_slots code in
      Bytes.equal code (R.reencode p))

let prop_encode_deterministic =
  QCheck2.Test.make ~name:"encoding the same allocated stream twice is identical" ~count:300
    gen_program (fun ra -> Bytes.equal (Encode.encode ra) (Encode.encode ra))

let prop_clean_certifies =
  (* The generated streams only use in-env operands, so certification
     must succeed and the audits must find nothing. *)
  QCheck2.Test.make ~name:"canonical in-env streams certify clean" ~count:150 gen_program
    (fun ra ->
      let code = Encode.encode ra in
      match R.certify ~env:(env ~n_slots:4 ~rf_bytes:1024 ()) ~ra code with
      | Ok cert -> Int64.equal cert.R.c_hash (R.hash64 code)
      | Error _ -> false)

(* --- Aotcache ----------------------------------------------------------------- *)

let mk_entry () =
  let code = Encode.encode (ra_of [| Hir.Mov (Hir.Preg 0, Hir.Imm 7L); Hir.Exit 0 |]) in
  { AC.e_kind = 0;
    e_va = 0x400000L;
    e_pa = 0x2000000L;
    e_el = 0;
    e_mmu = true;
    e_cfg = 0xDEADBEEFL;
    e_members = [| (0x400000L, 8) |];
    e_guest = Bytes.make 8 'g';
    e_n_slots = 2;
    e_n_exits = 0;
    e_n_guest = 2;
    e_n_host = 2;
    e_code = code;
    e_hash = R.hash64 code
  }

let test_aotcache_roundtrip () =
  let e = mk_entry () in
  let buf = Buffer.create 64 in
  AC.write_entry buf e;
  let e' = AC.read_entry (Buffer.to_bytes buf) in
  Alcotest.(check bool) "roundtrip preserves the entry" true (e = e')

let test_aotcache_corruption () =
  let e = mk_entry () in
  let buf = Buffer.create 64 in
  AC.write_entry buf e;
  let b = Buffer.to_bytes buf in
  (* Flip a byte inside the stored host code: the content hash no longer
     matches and the entry must be refused, not installed. *)
  let pos = Bytes.length b - 10 in
  Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor 0xFF);
  (match AC.read_entry b with
  | _ -> Alcotest.fail "corrupted entry parsed"
  | exception AC.Malformed _ -> ());
  (* Truncation is refused too. *)
  match AC.read_entry (Bytes.sub b 0 (Bytes.length b / 2)) with
  | _ -> Alcotest.fail "truncated entry parsed"
  | exception AC.Malformed _ -> ()

let test_aotcache_store_reload () =
  Temp_dir.with_dir
    (fun dir ->
      let t = AC.open_dir dir in
      Alcotest.(check int) "fresh cache is empty" 0 (AC.entry_count t);
      let e = mk_entry () in
      AC.store t e;
      AC.store t e;
      Alcotest.(check int) "store is idempotent" 1 (AC.entry_count t);
      (* A second open sees the persisted entry... *)
      let t2 = AC.open_dir dir in
      Alcotest.(check int) "reloaded" 1 (AC.stats t2).AC.loaded;
      (match
         AC.candidates t2 ~kind:0 ~va:e.AC.e_va ~pa:e.AC.e_pa ~el:0 ~mmu:true
           ~cfg:e.AC.e_cfg
       with
      | [ e' ] -> Alcotest.(check bool) "same entry" true (e = e')
      | l -> Alcotest.failf "expected 1 candidate, got %d" (List.length l));
      (* ...a different config signature misses... *)
      Alcotest.(check int) "other config misses" 0
        (List.length
           (AC.candidates t2 ~kind:0 ~va:e.AC.e_va ~pa:e.AC.e_pa ~el:0 ~mmu:true ~cfg:1L));
      (* ...and garbage on disk is counted malformed, never loaded. *)
      let oc = open_out_bin (Filename.concat dir "junk.aot") in
      output_string oc "not an entry";
      close_out oc;
      let t3 = AC.open_dir dir in
      Alcotest.(check int) "garbage counted malformed" 1 (AC.stats t3).AC.malformed;
      Alcotest.(check int) "garbage not loaded" 1 (AC.stats t3).AC.loaded)

(* --- warm boot: the payoff, in miniature -------------------------------------- *)

let test_aot_warm_boot () =
  Temp_dir.with_dir
    (fun dir ->
      let config = { CE.default_config with CE.aot_dir = Some dir } in
      let boot () = W.boot ~config (W.arm_mmu.W.w_program ()) in
      let e_c, code_c = boot () in
      let e_w, code_w = boot () in
      Alcotest.(check int) "cold exit" MS.arm_expected_exit code_c;
      Alcotest.(check int) "warm exit" MS.arm_expected_exit code_w;
      (* Where the code came from must be invisible to the guest. *)
      Alcotest.(check int) "guest execution cycles bit-identical"
        (CE.exec_cycles e_c) (CE.exec_cycles e_w);
      let sc = e_c.CE.stats and sw = e_w.CE.stats in
      Alcotest.(check int) "no relocation findings (cold)" 0 sc.CE.reloc_findings;
      Alcotest.(check int) "no relocation findings (warm)" 0 sw.CE.reloc_findings;
      Alcotest.(check int) "warm boot rejects nothing" 0 sw.CE.aot_rejects;
      Alcotest.(check bool) "cold boot stored translations" true (sc.CE.aot_stores > 0);
      Alcotest.(check bool) "warm boot reloaded translations" true (sw.CE.aot_hits > 0);
      if sw.CE.translate_cycles * 4 > sc.CE.translate_cycles then
        Alcotest.failf "warm boot translated too much: %d vs cold %d" sw.CE.translate_cycles
          sc.CE.translate_cycles)

(* A flagged entry is refused and re-translated: rewrite the cold
   boot's region entry (the RISC-V image forms none) with one exit site
   too few.  The content hash covers only the code, so the file still
   loads, and it is the warm boot's Reloc re-certification that flags
   the region's last exit as unnumbered.  The guest must not see it;
   the refusal shows only in [aot_rejects] and [reloc_findings], and
   [regions_certified] counts the fresh region alone. *)
let test_aot_flagged_entry () =
  Temp_dir.with_dir (fun dir ->
      let config = { CE.default_config with CE.aot_dir = Some dir } in
      let boot () = W.boot ~config (W.arm_mmu.W.w_program ()) in
      let e_c, _ = boot () in
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          let entry =
            AC.read_entry (Bytes.of_string (In_channel.with_open_bin path In_channel.input_all))
          in
          if entry.AC.e_kind = 1 then begin
            let buf = Buffer.create 256 in
            AC.write_entry buf { entry with AC.e_n_exits = entry.AC.e_n_exits - 1 };
            Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf)
          end)
        (Sys.readdir dir);
      let e_w, code_w = boot () in
      let sc = e_c.CE.stats and sw = e_w.CE.stats in
      Alcotest.(check int) "warm exit" MS.arm_expected_exit code_w;
      Alcotest.(check int) "guest execution cycles" (CE.exec_cycles e_c) (CE.exec_cycles e_w);
      Alcotest.(check int) "entry refused" 1 sw.CE.aot_rejects;
      Alcotest.(check int) "one relocation finding" 1 sw.CE.reloc_findings;
      Alcotest.(check int) "refused entry not certified" sc.CE.regions_certified
        sw.CE.regions_certified;
      let unnumbered (_, detail) = String.starts_with ~prefix:"unnumbered-exit" detail in
      Alcotest.(check int) "one unnumbered-exit line" 1
        (List.length (List.filter unnumbered (CE.log_of e_w CE.Reloc))))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "reloc",
    [ Alcotest.test_case "seeded abs-host-addr" `Quick test_seeded_abs_host_addr;
      Alcotest.test_case "seeded unnumbered-exit" `Quick test_seeded_unnumbered_exit;
      Alcotest.test_case "seeded env-immediate" `Quick test_seeded_env_immediate;
      Alcotest.test_case "seeded helper-by-addr" `Quick test_seeded_helper_by_addr;
      Alcotest.test_case "seeded nondet-encoding" `Quick test_seeded_nondet_encoding;
      Alcotest.test_case "certificate shape" `Quick test_certificate_shape;
      Alcotest.test_case "Encode_error payload" `Quick test_encode_error_payload;
      q prop_roundtrip_canonical;
      q prop_encode_deterministic;
      q prop_clean_certifies;
      Alcotest.test_case "aotcache roundtrip" `Quick test_aotcache_roundtrip;
      Alcotest.test_case "aotcache corruption" `Quick test_aotcache_corruption;
      Alcotest.test_case "aotcache store/reload" `Quick test_aotcache_store_reload;
      Alcotest.test_case "warm boot determinism" `Slow test_aot_warm_boot;
      Alcotest.test_case "flagged AOT entry refused" `Slow test_aot_flagged_entry
    ] )
