(* HVM substrate tests: physical memory, page tables, TLB, devices. *)

module Mem = Hvm.Mem
module Pt = Hvm.Pagetable
module Tlb = Hvm.Tlb
module Machine = Hvm.Machine

let test_mem_widths () =
  let m = Mem.create 4096 in
  Mem.write64 m 0L 0x1122334455667788L;
  Alcotest.(check int64) "read64" 0x1122334455667788L (Mem.read64 m 0L);
  Alcotest.(check int64) "read32 low" 0x55667788L (Mem.read32 m 0L);
  Alcotest.(check int64) "read32 high" 0x11223344L (Mem.read32 m 4L);
  Alcotest.(check int64) "read16" 0x7788L (Mem.read16 m 0L);
  Alcotest.(check int64) "read8" 0x88L (Mem.read8 m 0L);
  Mem.write8 m 1L 0xFFL;
  Alcotest.(check int64) "byte patch" 0x112233445566FF88L (Mem.read64 m 0L);
  Alcotest.check_raises "oob read" (Mem.Bus_error { addr = 4096L; bits = 8; write = false })
    (fun () -> ignore (Mem.read8 m 4096L));
  Alcotest.check_raises "oob write carries width and direction"
    (Mem.Bus_error { addr = 4092L; bits = 64; write = true })
    (fun () -> Mem.write64 m 4092L 0L);
  Alcotest.(check bool) "bus error printer" true
    (try
       ignore (Mem.read32 m 8000L);
       false
     with e ->
       let s = Printexc.to_string e in
       s = "Mem.Bus_error(read of 32 bits at 0x1f40)")

(* Flat-Bytes reference model of [Mem]: one contiguous buffer, the same
   bounds checks and little-endian layout. *)
module Flat = struct
  let check b addr len ~write =
    let a = Int64.to_int addr in
    if addr < 0L || Int64.compare addr (Int64.of_int (Bytes.length b)) >= 0 || a + len > Bytes.length b then
      raise (Mem.Bus_error { addr; bits = 8 * len; write });
    a

  let read b ~bits addr =
    let a = check b addr (bits / 8) ~write:false in
    match bits with
    | 8 -> Int64.of_int (Bytes.get_uint8 b a)
    | 16 -> Int64.of_int (Bytes.get_uint16_le b a)
    | 32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b a)) 0xFFFFFFFFL
    | _ -> Bytes.get_int64_le b a

  let write b ~bits addr v =
    let a = check b addr (bits / 8) ~write:true in
    match bits with
    | 8 -> Bytes.set_uint8 b a (Int64.to_int v land 0xFF)
    | 16 -> Bytes.set_uint16_le b a (Int64.to_int v land 0xFFFF)
    | 32 -> Bytes.set_int32_le b a (Int64.to_int32 v)
    | _ -> Bytes.set_int64_le b a v

  let blit_in b ~addr src =
    let a = check b addr (String.length src) ~write:true in
    Bytes.blit_string src 0 b a (String.length src)

  let zero_range b ~addr ~len =
    let a = check b addr len ~write:true in
    Bytes.fill b a len '\000'
end

type mem_op =
  | Read of int * int64
  | Write of int * int64 * int64
  | Blit of int64 * string
  | Zero of int64 * int

let show_mem_op = function
  | Read (bits, a) -> Printf.sprintf "read%d 0x%Lx" bits a
  | Write (bits, a, v) -> Printf.sprintf "write%d 0x%Lx 0x%Lx" bits a v
  | Blit (a, s) -> Printf.sprintf "blit 0x%Lx (%d bytes)" a (String.length s)
  | Zero (a, n) -> Printf.sprintf "zero 0x%Lx %d" a n

(* Four whole frames and half of a fifth, so the last frame is partial. *)
let model_size = (4 * 4096) + 2048

let gen_mem_ops =
  let open QCheck2.Gen in
  let at_frame lo hi = map2 (fun f o -> Int64.of_int ((f * 4096) + o)) (int_range 0 5) (int_range lo hi) in
  let addr =
    oneof
      [
        at_frame 4089 4095 (* straddles into the next frame *);
        at_frame 0 7;
        map Int64.of_int (int_range 0 (model_size + 64));
        oneofl [ -1L; -4096L; Int64.of_int (model_size - 1); Int64.of_int model_size; 0x4000_0000_0000L ];
      ]
  in
  let width = oneofl [ 8; 16; 32; 64 ] in
  let op =
    frequency
      [
        (4, map2 (fun bits a -> Read (bits, a)) width addr);
        (4, map3 (fun bits a v -> Write (bits, a, v)) width addr int64);
        ( 1,
          map2
            (fun a s -> Blit (a, s))
            (oneof [ addr; at_frame 0 4095 ])
            (string_size ~gen:char (oneof [ int_range 0 16; int_range 4097 (3 * 4096) ])) );
        ( 2,
          map2
            (fun a n -> Zero (a, n))
            (oneof [ at_frame 0 0; addr ])
            (oneof [ return 4096; int_range 0 100; int_range 4096 (3 * 4096); map (( * ) 4096) (int_range 1 3) ]) );
      ]
  in
  list_size (int_range 1 40) op

(* Property: sparse [Mem] and the flat model agree on every read result,
   every [Bus_error] payload and, at the end, every byte. *)
let prop_mem_matches_flat =
  QCheck2.Test.make ~name:"sparse Mem matches a flat-Bytes model" ~count:1000
    ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
    gen_mem_ops
    (fun ops ->
      let m = Mem.create model_size in
      let b = Bytes.make model_size '\000' in
      let outcome f =
        try Ok (f ()) with Mem.Bus_error { addr; bits; write } -> Error (addr, bits, write)
      in
      let step = function
        | Read (bits, a) -> outcome (fun () -> Mem.read m ~bits a) = outcome (fun () -> Flat.read b ~bits a)
        | Write (bits, a, v) ->
          outcome (fun () -> Mem.write m ~bits a v; 0L) = outcome (fun () -> Flat.write b ~bits a v; 0L)
        | Blit (a, s) ->
          outcome (fun () -> Mem.blit_in m ~addr:a (Bytes.of_string s); 0L)
          = outcome (fun () -> Flat.blit_in b ~addr:a s; 0L)
        | Zero (a, len) ->
          outcome (fun () -> Mem.zero_range m ~addr:a ~len; 0L)
          = outcome (fun () -> Flat.zero_range b ~addr:a ~len; 0L)
      in
      List.for_all step ops
      && List.for_all
           (fun a -> Mem.read8 m (Int64.of_int a) = Int64.of_int (Bytes.get_uint8 b a))
           (List.init model_size Fun.id))

(* Writes (including frame-straddling and bulk ones) land in private
   frames: the shared zero frame is never written through, so a fresh
   [Mem] still reads zero everywhere the first one was written. *)
let test_mem_zero_frame_isolation () =
  let m = Mem.create (1 lsl 20) in
  let addrs = [ 0L; 0x1000L; 0x1FFCL; 0x2FF9L; 0x5000L; 0xFFFF8L ] in
  List.iter (fun a -> Mem.write64 m a (-1L)) addrs;
  Mem.write8 m 0x7000L 0xFFL;
  Mem.write16 m 0x7FFFL 0xFFFFL;
  Mem.write32 m 0x9FFEL 0xFFFFFFFFL;
  Mem.blit_in m ~addr:0xAF00L (Bytes.make 8192 '\xff');
  Alcotest.(check int64) "untouched frame of the written Mem" 0L (Mem.read64 m 0x40000L);
  let fresh = Mem.create (1 lsl 20) in
  List.iter
    (fun a -> Alcotest.(check int64) (Printf.sprintf "fresh Mem at 0x%Lx" a) 0L (Mem.read64 fresh a))
    (addrs @ [ 0x7000L; 0x7FFFL; 0x9FFEL; 0xAF00L; 0xBF00L; 0xCEF8L ]);
  Alcotest.(check int) "fresh Mem has no resident frames" 0 (Mem.resident_frames fresh)

let test_mem_sparse () =
  let m = Mem.create (256 * 1024 * 1024) in
  Alcotest.(check int) "fresh 256 MiB Mem" 0 (Mem.resident_frames m);
  Mem.write64 m 0x3000L 1L;
  Mem.write64 m 0x4FFCL 1L;
  Alcotest.(check int) "one frame, then a straddling write" 3 (Mem.resident_frames m);
  Mem.zero_range m ~addr:0x3000L ~len:0x2000;
  Alcotest.(check int) "whole-frame zero_range releases" 1 (Mem.resident_frames m);
  Mem.zero_range m ~addr:0x5000L ~len:8;
  Alcotest.(check int) "partial zero_range keeps the frame" 1 (Mem.resident_frames m);
  Alcotest.(check int64) "partial zero_range zeroes" 0L (Mem.read64 m 0x4FFCL);
  let config = { Captive.Engine.default_config with domains = 1 } in
  let e, code = Workloads.Registry.(boot ~config (arm_mmu.w_program ())) in
  Alcotest.(check int) "ARM MMU-stress exit" 31 code;
  let resident = Mem.resident_frames e.Captive.Engine.machine.Machine.mem in
  Alcotest.(check bool) (Printf.sprintf "ARM MMU-stress boot touches %d frames (< 8192)" resident) true (resident < 8192)

let mk_machine () = Machine.create ~mem_size:(16 * 1024 * 1024) ()

let test_pagetable_map_walk () =
  let m = mk_machine () in
  let root = Hvm.Palloc.alloc m.Machine.palloc in
  let flags = { Pt.writable = true; user = false; executable = true } in
  Pt.map m.Machine.mem m.Machine.palloc ~root 0x7000_0000L 0x1000L flags;
  (match fst (Pt.walk m.Machine.mem ~root 0x7000_0000L) with
  | Some (_, pte) ->
    Alcotest.(check int64) "frame" 0x1000L (Pt.frame_of pte);
    let f = Pt.flags_of_bits pte in
    Alcotest.(check bool) "writable" true f.Pt.writable;
    Alcotest.(check bool) "not user" false f.Pt.user;
    Alcotest.(check bool) "exec" true f.Pt.executable
  | None -> Alcotest.fail "mapping not found");
  Alcotest.(check bool) "unmapped va misses" true (fst (Pt.walk m.Machine.mem ~root 0x7000_1000L) = None);
  Pt.unmap m.Machine.mem ~root 0x7000_0000L;
  Alcotest.(check bool) "unmap works" true (fst (Pt.walk m.Machine.mem ~root 0x7000_0000L) = None)

let test_pagetable_protect_and_clear () =
  let m = mk_machine () in
  let root = Hvm.Palloc.alloc m.Machine.palloc in
  let rw = { Pt.writable = true; user = true; executable = false } in
  (* one low-half and one high-half mapping *)
  Pt.map m.Machine.mem m.Machine.palloc ~root 0x1000L 0x2000L rw;
  Pt.map m.Machine.mem m.Machine.palloc ~root 0x0000_8000_0000_0000L 0x3000L rw;
  Pt.protect m.Machine.mem ~root 0x1000L { rw with Pt.writable = false };
  (match fst (Pt.walk m.Machine.mem ~root 0x1000L) with
  | Some (_, pte) -> Alcotest.(check bool) "downgraded" false (Pt.flags_of_bits pte).Pt.writable
  | None -> Alcotest.fail "lost mapping");
  Pt.clear_low_half m.Machine.mem m.Machine.palloc ~root;
  Alcotest.(check bool) "low half cleared" true (fst (Pt.walk m.Machine.mem ~root 0x1000L) = None);
  Alcotest.(check bool) "high half survives" true
    (fst (Pt.walk m.Machine.mem ~root 0x0000_8000_0000_0000L) <> None)

let test_tlb_pcid () =
  let tlb = Tlb.create ~size:64 () in
  let flags = { Pt.writable = true; user = true; executable = true } in
  Tlb.insert tlb ~pcid:0 ~vpn:5L ~frame:0x5000L ~flags ~global:false;
  Alcotest.(check bool) "hit pcid0" true (Tlb.lookup tlb ~pcid:0 5L <> None);
  Alcotest.(check bool) "miss pcid1" true (Tlb.lookup tlb ~pcid:1 5L = None);
  Tlb.insert tlb ~pcid:1 ~vpn:6L ~frame:0x6000L ~flags ~global:false;
  Tlb.flush_pcid tlb 0;
  Alcotest.(check bool) "pcid0 flushed" true (Tlb.lookup tlb ~pcid:0 5L = None);
  Alcotest.(check bool) "pcid1 survives pcid0 flush" true (Tlb.lookup tlb ~pcid:1 6L <> None);
  Tlb.flush_all tlb;
  Alcotest.(check bool) "all flushed" true (Tlb.lookup tlb ~pcid:1 6L = None)

(* invlpg semantics: flush_page must drop the translation under *every*
   PCID and also global entries, but leave entries for other VPNs that
   merely alias the same direct-mapped slot alone. *)
let test_tlb_flush_page_pcid_blind () =
  let tlb = Tlb.create ~size:64 () in
  let flags = { Pt.writable = true; user = true; executable = true } in
  Tlb.insert tlb ~pcid:3 ~vpn:5L ~frame:0x5000L ~flags ~global:false;
  Tlb.flush_page tlb 5L;
  Alcotest.(check bool) "flushed under a foreign pcid" true (Tlb.lookup tlb ~pcid:3 5L = None);
  Tlb.insert tlb ~pcid:0 ~vpn:7L ~frame:0x7000L ~flags ~global:true;
  Tlb.flush_page tlb 7L;
  Alcotest.(check bool) "global entry flushed" true (Tlb.lookup tlb ~pcid:9 7L = None);
  Tlb.insert tlb ~pcid:0 ~vpn:9L ~frame:0x9000L ~flags ~global:false;
  Tlb.flush_page tlb (Int64.of_int (9 + 64)); (* aliases slot 9, different vpn *)
  Alcotest.(check bool) "slot-aliasing vpn survives" true (Tlb.lookup tlb ~pcid:0 9L <> None)

(* Frame accounting: map/unmap/clear cycles must return every intermediate
   table frame to the allocator exactly once (no leak, no double free). *)
let prop_frame_accounting =
  QCheck2.Test.make ~name:"map/unmap/clear returns every table frame exactly once" ~count:50
    QCheck2.Gen.(list_size (int_range 1 30) (int_range 0 2_000_000))
    (fun pages ->
      let m = mk_machine () in
      let p = m.Machine.palloc in
      let root = Hvm.Palloc.alloc p in
      let flags = { Pt.writable = true; user = true; executable = false } in
      let no_dups l = List.length (List.sort_uniq compare l) = List.length l in
      let cycle () =
        List.iter
          (fun pg -> Pt.map m.Machine.mem p ~root (Int64.mul (Int64.of_int pg) 4096L) 0x1000L flags)
          pages;
        (* unmap half of them first: leaves clear but tables remain *)
        List.iteri
          (fun i pg ->
            if i mod 2 = 0 then Pt.unmap m.Machine.mem ~root (Int64.mul (Int64.of_int pg) 4096L))
          pages;
        Pt.clear_low_half m.Machine.mem p ~root
      in
      cycle ();
      let ok1 = Hvm.Palloc.frames_used p = 1 && no_dups p.Hvm.Palloc.free in
      (* A second cycle re-allocates from the free list and must balance again. *)
      cycle ();
      ok1 && Hvm.Palloc.frames_used p = 1 && no_dups p.Hvm.Palloc.free)

let test_free_subtree_accounting () =
  let m = mk_machine () in
  let p = m.Machine.palloc in
  let root = Hvm.Palloc.alloc p in
  let flags = { Pt.writable = true; user = true; executable = false } in
  let high = 0x0000_8000_0000_0000L in
  Pt.map m.Machine.mem p ~root high 0x2000L flags;
  Pt.map m.Machine.mem p ~root 0x1000L 0x3000L flags;
  Alcotest.(check int) "root + 2x3 tables" 7 (Hvm.Palloc.frames_used p);
  Pt.clear_low_half m.Machine.mem p ~root;
  Alcotest.(check int) "high-half tables survive clear" 4 (Hvm.Palloc.frames_used p);
  Alcotest.(check bool) "high mapping still walks" true
    (fst (Pt.walk m.Machine.mem ~root high) <> None);
  Pt.free_subtree m.Machine.mem p root 3;
  Alcotest.(check int) "free_subtree releases everything" 0 (Hvm.Palloc.frames_used p);
  Alcotest.(check bool) "no double free" true
    (List.length (List.sort_uniq compare p.Hvm.Palloc.free) = List.length p.Hvm.Palloc.free)

let test_machine_translate_rings () =
  let m = mk_machine () in
  let root = Hvm.Palloc.alloc m.Machine.palloc in
  m.Machine.cr3 <- root;
  m.Machine.paging <- true;
  Pt.map m.Machine.mem m.Machine.palloc ~root 0x4000L 0x8000L
    { Pt.writable = false; user = false; executable = true };
  m.Machine.ring <- 0;
  Alcotest.(check int64) "kernel read ok" 0x8123L (Machine.translate m ~access:Machine.Read 0x4123L);
  Alcotest.check_raises "kernel write to RO faults"
    (Machine.Host_fault { va = 0x4123L; access = Machine.Write }) (fun () ->
      ignore (Machine.translate m ~access:Machine.Write 0x4123L));
  m.Machine.ring <- 3;
  Alcotest.check_raises "user access to kernel page faults"
    (Machine.Host_fault { va = 0x4123L; access = Machine.Read }) (fun () ->
      ignore (Machine.translate m ~access:Machine.Read 0x4123L))

let test_devices () =
  let intc = Hvm.Device.Intc.create () in
  let uart = Hvm.Device.Uart.create () in
  let timer = Hvm.Device.Timer.create intc in
  let udev = Hvm.Device.Uart.device uart in
  udev.Hvm.Device.write 0 8 (Int64.of_int (Char.code 'h'));
  udev.Hvm.Device.write 0 8 (Int64.of_int (Char.code 'i'));
  Alcotest.(check string) "uart collects" "hi" (Hvm.Device.Uart.output uart);
  Alcotest.(check int64) "tx ready" 1L (udev.Hvm.Device.read 4 32);
  let tdev = Hvm.Device.Timer.device timer in
  tdev.Hvm.Device.write 0 32 100L; (* load *)
  tdev.Hvm.Device.write 8 32 3L; (* enable + irq *)
  Alcotest.(check bool) "no irq yet" false (Hvm.Device.Intc.asserted intc);
  intc.Hvm.Device.Intc.enabled <- 2;
  tdev.Hvm.Device.tick 150;
  Alcotest.(check bool) "irq raised" true (Hvm.Device.Intc.asserted intc);
  Alcotest.(check int) "fired once" 1 timer.Hvm.Device.Timer.fired;
  tdev.Hvm.Device.write 12 32 0L; (* ack *)
  Alcotest.(check bool) "irq cleared" false (Hvm.Device.Intc.asserted intc)

(* One tick spanning several periods fires once per period and leaves
   the remainder in the counter: 35 cycles of a 10-cycle timer. *)
let test_timer_multi_period_tick () =
  let intc = Hvm.Device.Intc.create () in
  let timer = Hvm.Device.Timer.create intc in
  let tdev = Hvm.Device.Timer.device timer in
  tdev.Hvm.Device.write 0 32 10L;
  tdev.Hvm.Device.write 8 32 3L;
  tdev.Hvm.Device.tick 35;
  Alcotest.(check int) "fired three times" 3 timer.Hvm.Device.Timer.fired;
  Alcotest.(check int) "remainder" 5 timer.Hvm.Device.Timer.value

(* Every region [Poll] asks [irq_pending], which advances the devices:
   the poll path must not allocate. *)
let test_irq_poll_allocates_nothing () =
  let intc = Hvm.Device.Intc.create () in
  let timer = Hvm.Device.Timer.create intc in
  let tdev = Hvm.Device.Timer.device timer in
  tdev.Hvm.Device.write 0 32 7L;
  tdev.Hvm.Device.write 8 32 3L;
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~devices:[ tdev ] ~intc () in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Machine.charge m 3;
    ignore (Machine.irq_pending m)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words < 100" words) true (words < 100.);
  Alcotest.(check bool) "timer ran" true (timer.Hvm.Device.Timer.fired > 0)

(* Property: [irq_pending]'s quiet window is exact.  A machine that
   syncs its devices at every step, and answers every poll from a fresh
   sync, sees the same interrupt answers, register reads and final timer
   state as the lazy one, over random cycle advances, timer and
   interrupt-controller writes, WFIs and polls. *)
type dev_op =
  | Advance of int
  | Advance_jit of int
  | Timer_write of int * int (* register offset, value *)
  | Intc_write of int * int
  | Timer_read of int
  | Wfi
  | Poll

let show_dev_op = function
  | Advance n -> Printf.sprintf "Advance %d" n
  | Advance_jit n -> Printf.sprintf "Advance_jit %d" n
  | Timer_write (o, v) -> Printf.sprintf "Timer_write (0x%x, %d)" o v
  | Intc_write (o, v) -> Printf.sprintf "Intc_write (0x%x, %d)" o v
  | Timer_read o -> Printf.sprintf "Timer_read 0x%x" o
  | Wfi -> "Wfi"
  | Poll -> "Poll"

let prop_quiet_window_exact =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (* short advances and periods, so that polls land on a timer
           event's exact cycle *)
        (4, map (fun n -> Advance n) (oneof [ int_range 1 4; int_range 1 300 ]));
        (1, map (fun n -> Advance_jit n) (int_range 1 300));
        ( 2,
          map2
            (fun o v -> Timer_write (o, v))
            (oneofl [ 0x0; 0x8; 0xC ])
            (oneof [ int_range 0 8; int_range 0 400 ]) );
        (1, map2 (fun o v -> Intc_write (o, v)) (oneofl [ 0x4; 0x8; 0xC ]) (int_range 0 3));
        (1, map (fun o -> Timer_read o) (oneofl [ 0x4; 0xC ]));
        (1, pure Wfi);
        (4, pure Poll);
      ]
  in
  QCheck2.Test.make ~name:"lazy irq polling = syncing at every step" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_dev_op ops))
    (list_size (int_range 1 80) op)
    (fun ops ->
      let run ~eager =
        let m, _, timer, _ = Machine.board ~mem_size:(1024 * 1024) in
        let step = function
          | Advance n -> Machine.charge m n; None
          | Advance_jit n -> Machine.charge_jit m n; None
          | Timer_write (o, v) ->
            Machine.phys_write m ~bits:32 (Int64.add 0x0920_0000L (Int64.of_int o)) (Int64.of_int v); None
          | Intc_write (o, v) ->
            Machine.phys_write m ~bits:32 (Int64.add 0x0900_0000L (Int64.of_int o)) (Int64.of_int v); None
          | Timer_read o -> Some (Machine.phys_read m ~bits:32 (Int64.add 0x0920_0000L (Int64.of_int o)))
          | Wfi -> Machine.wfi m timer; None
          | Poll ->
            let irq =
              if eager then begin
                Machine.sync_devices m;
                Hvm.Device.Intc.asserted m.Machine.intc
              end
              else Machine.irq_pending m
            in
            Some (if irq then 1L else 0L)
        in
        let seen =
          List.filter_map
            (fun op ->
              let r = step op in
              if eager then Machine.sync_devices m;
              r)
            ops
        in
        Machine.sync_devices m;
        ( seen,
          timer.Hvm.Device.Timer.value,
          timer.Hvm.Device.Timer.fired,
          m.Machine.intc.Hvm.Device.Intc.pending )
      in
      run ~eager:true = run ~eager:false)

(* Property: any mapping installed is returned by the walk with its exact
   frame and flags. *)
let prop_map_walk =
  QCheck2.Test.make ~name:"pagetable map/walk roundtrip" ~count:200
    QCheck2.Gen.(triple (int_range 0 100000) bool bool)
    (fun (page, writable, user) ->
      let m = mk_machine () in
      let root = Hvm.Palloc.alloc m.Machine.palloc in
      let va = Int64.mul (Int64.of_int page) 4096L in
      let pa = Int64.of_int (0x100000 + (page mod 64) * 4096) in
      let flags = { Pt.writable; user; executable = true } in
      Pt.map m.Machine.mem m.Machine.palloc ~root va pa flags;
      match fst (Pt.walk m.Machine.mem ~root va) with
      | Some (_, pte) -> Pt.frame_of pte = pa && Pt.flags_of_bits pte = flags
      | None -> false)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "hvm",
    [
      Alcotest.test_case "memory widths" `Quick test_mem_widths;
      Alcotest.test_case "zero frame is never written through" `Quick test_mem_zero_frame_isolation;
      Alcotest.test_case "memory is sparse" `Quick test_mem_sparse;
      q prop_mem_matches_flat;
      Alcotest.test_case "pagetable map/walk" `Quick test_pagetable_map_walk;
      Alcotest.test_case "protect and clear-low-half" `Quick test_pagetable_protect_and_clear;
      Alcotest.test_case "tlb pcid tagging" `Quick test_tlb_pcid;
      Alcotest.test_case "tlb flush_page is pcid-blind" `Quick test_tlb_flush_page_pcid_blind;
      Alcotest.test_case "free_subtree/clear_low_half accounting" `Quick test_free_subtree_accounting;
      Alcotest.test_case "machine rings" `Quick test_machine_translate_rings;
      Alcotest.test_case "devices" `Quick test_devices;
      Alcotest.test_case "timer tick spanning periods" `Quick test_timer_multi_period_tick;
      Alcotest.test_case "irq poll allocates nothing" `Quick test_irq_poll_allocates_nothing;
      q prop_quiet_window_exact;
      q prop_map_walk;
      q prop_frame_accounting;
    ] )
