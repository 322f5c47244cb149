(* The host virtual machine: physical memory, the hardware-MMU model, the
   device bus, and the global cycle counter that all execution charges. *)

type access = Read | Write | Exec

exception Host_fault of { va : int64; access : access }

(* Raised when host execution must stop (guest powered off, etc.). *)
exception Powered_off of int

type t = {
  mem : Mem.t;
  tlb : Tlb.t;
  palloc : Palloc.t;
  devices : Device.t list;
  (* MMIO routing, fixed at creation: device [base, limit) ranges sorted by
     base for binary search, and the lowest MMIO base so the overwhelmingly
     common plain-RAM access skips the search entirely. *)
  dev_ranges : (int64 * int64 * Device.t) array;
  dev_floor : int64;
  ram_limit : int;
      (* every physical address below it is plain RAM: the smaller of
         [dev_floor] (unsigned) and the RAM size *)
  intc : Device.Intc.state;
  mutable cr3 : int64; (* current page-table root *)
  mutable pcid : int;
  mutable ring : int; (* 0 = kernel, 3 = user *)
  mutable paging : bool; (* generated code uses the host MMU *)
  mutable cycles : int;
  mutable jit_cycles : int;
  (* translation-side cycles (JIT, AOT-cache loads): part of [cycles] for
     wall-clock totals, but excluded from guest-visible device time so the
     guest's observable execution is independent of how its code was
     produced (cold translation vs. warm AOT load). *)
  mutable async_jit_cycles : int;
  (* the share of [jit_cycles] charged for translations produced on
     worker domains (concurrent JIT): the work happened off the vCPU
     critical path, so this ledger is the translate-stall reduction a
     multi-domain run buys.  Always <= jit_cycles; 0 when --domains 1. *)
  (* statistics *)
  mutable mem_ops : int;
  mutable faults : int;
  mutable devs_ticked_at : int; (* in guest time (cycles - jit_cycles) *)
  mutable quiet_until : int;
      (* guest time before which no device can raise a line, so
         [irq_pending] is false without syncing; 0 when unknown *)
}

let charge t n = t.cycles <- t.cycles + n

(* Charge to the translation-side ledger: counted in wall-clock [cycles]
   but invisible to guest time (devices, timers). *)
let charge_jit t n =
  t.cycles <- t.cycles + n;
  t.jit_cycles <- t.jit_cycles + n

(* Charge translation work that a worker domain performed while the vCPU
   kept executing.  Deterministic virtual-time accounting: the charge is
   applied at install time on the vCPU, to exactly the same ledgers as a
   synchronous translation ([cycles] + [jit_cycles]), so guest-visible
   time ([guest_cycles], device ticks) is bit-identical regardless of
   how many domains produced the code — only the [async_jit_cycles]
   split records that the vCPU never stalled for it. *)
let charge_jit_async t n =
  charge_jit t n;
  t.async_jit_cycles <- t.async_jit_cycles + n

(* Guest-visible time: everything the guest's own execution charged. *)
let guest_cycles t = t.cycles - t.jit_cycles

(* Lazy device time: devices are advanced to the current guest cycle count
   when something might observe them (MMIO access, interrupt poll).  Guest
   time excludes JIT charges, so a timer interrupt lands at the same guest
   instruction whether the code was translated cold or loaded warm.
   A region [Poll] outside the quiet window reaches this through
   [irq_pending], so the walk over the device list is a top-level
   function: no closure per call. *)
let rec tick_devices delta = function
  | [] -> ()
  | d :: ds ->
    d.Device.tick delta;
    tick_devices delta ds

let sync_devices t =
  let now = guest_cycles t in
  let delta = now - t.devs_ticked_at in
  if delta > 0 then begin
    tick_devices delta t.devices;
    t.devs_ticked_at <- now
  end

let create ?(mem_size = 256 * 1024 * 1024) ?(devices = []) ?(intc = Device.Intc.create ()) () =
  let mem = Mem.create mem_size in
  (* The top of physical memory (32 MiB, or a quarter for small machines)
     is reserved for hypervisor structures (page tables). *)
  let pt_reserve = min (32 * 1024 * 1024) (mem_size / 4) in
  let pt_base = Int64.of_int (mem_size - pt_reserve) in
  let dev_ranges =
    devices
    |> List.map (fun d ->
           (d.Device.base, Int64.add d.Device.base (Int64.of_int d.Device.size), d))
    |> List.sort (fun (a, _, _) (b, _, _) -> Int64.unsigned_compare a b)
    |> Array.of_list
  in
  let dev_floor =
    if Array.length dev_ranges = 0 then -1L
    else (fun (b, _, _) -> b) dev_ranges.(0)
  in
  let ram_limit =
    if Int64.unsigned_compare dev_floor (Int64.of_int mem_size) < 0 then Int64.to_int dev_floor else mem_size
  in
  {
    mem;
    tlb = Tlb.create ();
    palloc = Palloc.create mem ~base:pt_base ~limit:(Int64.of_int mem_size);
    devices;
    dev_ranges;
    dev_floor;
    ram_limit;
    intc;
    cr3 = 0L;
    pcid = 0;
    ring = 0;
    paging = false;
    cycles = 0;
    jit_cycles = 0;
    async_jit_cycles = 0;
    mem_ops = 0;
    faults = 0;
    devs_ticked_at = 0;
    quiet_until = 0;
  }

(* The board every engine boots: interrupt controller, UART, timer and
   system controller on the device bus of a [mem_size]-byte machine. *)
let board ~mem_size =
  let intc = Device.Intc.create () in
  let uart = Device.Uart.create () in
  let timer = Device.Timer.create intc in
  let syscon = Device.Syscon.create () in
  let devices =
    [ Device.Intc.device intc; Device.Uart.device uart; Device.Timer.device timer;
      Device.Syscon.device syscon ]
  in
  (create ~mem_size ~devices ~intc (), uart, timer, syscon)

(* RAM sits below the MMIO window, so nearly every access resolves with a
   single compare against [dev_floor]; the rare MMIO hit binary-searches the
   sorted range array for the greatest base <= pa. *)
let find_device t pa =
  if Int64.unsigned_compare pa t.dev_floor < 0 then None
  else begin
    let a = t.dev_ranges in
    let lo = ref 0 and hi = ref (Array.length a - 1) in
    let found = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let base, limit, d = a.(mid) in
      if Int64.unsigned_compare pa base < 0 then hi := mid - 1
      else begin
        if Int64.unsigned_compare pa limit < 0 then found := Some d;
        lo := mid + 1
      end
    done;
    !found
  end

(* The one path to a device register: a read when [value] is [None],
   else a write of the value (answering 0).  The devices are synced to
   now first, and the quiet window closes, since the access may change
   when a device next raises a line. *)
let device_access t (d : Device.t) ~bits pa value =
  sync_devices t;
  t.quiet_until <- 0;
  let off = Int64.to_int (Int64.sub pa d.Device.base) in
  match value with
  | None -> d.Device.read off bits
  | Some v ->
    d.Device.write off bits v;
    0L

(* Translate a virtual address through the host MMU model: TLB lookup, then
   hardware page walk on miss; permission checks against the current ring.
   Raises [Host_fault]; the DBT engine installs the handler that services
   these (populating host page tables from guest page tables). *)
let translate t ~(access : access) va =
  if not t.paging then va
  else begin
    let vpn = Int64.shift_right_logical va 12 in
    let check ~writable ~user ~executable frame =
      (match access with
      | Write when not writable -> raise (Host_fault { va; access })
      | Exec when not executable -> raise (Host_fault { va; access })
      | _ -> ());
      if t.ring = 3 && not user then raise (Host_fault { va; access });
      Int64.logor frame (Int64.logand va 0xFFFL)
    in
    match Tlb.lookup t.tlb ~pcid:t.pcid vpn with
    | Some e -> check ~writable:e.Tlb.writable ~user:e.Tlb.user ~executable:e.Tlb.executable e.Tlb.frame
    | None -> (
      charge t Cost.tlb_miss_walk;
      match fst (Pagetable.walk t.mem ~root:t.cr3 va) with
      | None ->
        t.faults <- t.faults + 1;
        raise (Host_fault { va; access })
      | Some (_, pte) ->
        let flags = Pagetable.flags_of_bits pte in
        let frame = Pagetable.frame_of pte in
        let result =
          check ~writable:flags.Pagetable.writable ~user:flags.Pagetable.user
            ~executable:flags.Pagetable.executable frame
        in
        Tlb.insert t.tlb ~pcid:t.pcid ~vpn ~frame ~flags ~global:false;
        result)
  end

(* Physical (ring-independent) access, with MMIO routed to devices. *)
let phys_read t ~bits pa =
  match find_device t pa with
  | Some d -> device_access t d ~bits pa None
  | None -> Mem.read t.mem ~bits pa

let phys_write t ~bits pa v =
  match find_device t pa with
  | Some d -> ignore (device_access t d ~bits pa (Some v))
  | None -> Mem.write t.mem ~bits pa v

(* Memory access from generated code: translation plus the physical
   access.  [Hostir.Exec] completes TLB hits on plain RAM itself and
   bumps the same counters; everything else comes here. *)
let mem_read t ~bits va =
  t.mem_ops <- t.mem_ops + 1;
  charge t Cost.mem_access;
  phys_read t ~bits (translate t ~access:Read va)

let mem_write t ~bits va v =
  t.mem_ops <- t.mem_ops + 1;
  charge t Cost.mem_access;
  phys_write t ~bits (translate t ~access:Write va) v

(* Switch page-table root.  With [pcid] the TLB entries of the previous
   address space stay resident (paper Sec. 2.7.5); without it the current
   PCID's entries are flushed, as a plain CR3 write would. *)
let set_page_table t ~root ~pcid ~keep_tlb =
  t.cr3 <- root;
  if keep_tlb then begin
    t.pcid <- pcid;
    charge t Cost.pcid_switch
  end
  else begin
    t.pcid <- pcid;
    Tlb.flush_pcid t.tlb pcid;
    charge t Cost.tlb_flush
  end

(* The guest time at which the first device can next raise a line. *)
let rec next_irq_at now acc = function
  | [] -> acc
  | d :: ds ->
    let n = d.Device.until_irq () in
    next_irq_at now (if n < max_int && now + n < acc then now + n else acc) ds

(* Is an interrupt line asserted?  After a false answer no device changes
   a line until [quiet_until] or a device access, so until then the
   answer stays false without syncing.  That is exact because ticking is
   additive ([tick a; tick b] = [tick (a + b)]): a later sync lands every
   device in the state that syncing at each poll would have. *)
let irq_pending t =
  if guest_cycles t < t.quiet_until then false
  else begin
    sync_devices t;
    Device.Intc.asserted t.intc
    || begin
      t.quiet_until <- next_irq_at t.devs_ticked_at max_int t.devices;
      false
    end
  end

(* Wait-for-interrupt: fast-forward guest time to one cycle past the
   timer's next expiry, or by 1000 cycles when the timer cannot raise an
   interrupt.  The devices are synced first, so the skip is measured from
   the timer's value now, not at the last device sync. *)
let wfi t (timer : Device.Timer.state) =
  sync_devices t;
  charge t (if timer.enabled && timer.irq_enabled then timer.value + 1 else 1000)
