(* Host page-fault handling (paper Sec. 2.7.3): guest page tables are
   mapped onto host page tables on demand, TLB-flush intercepts drop
   those mappings, and self-modifying code is caught by write-protecting
   the host mappings of guest pages that hold translated code (Sec. 2.6). *)

open State

(* A regime change (exception entry/return, MMU/TLB state change, SMC
   invalidation) poisons in-flight regions: tier-1 region translations
   test this host flag at every member-entry safepoint and bail out to
   the dispatcher, which re-validates (EL, MMU regime) itself.  Cleared
   on every block entry. *)
let poison_regions (e : t) = Exec.set_reg e.ctx Hir.region_poison_preg 1L

(* Shadow-oracle checkpoint (config.check): sweep the real MMU state
   against the sanitizer's shadow.  Free by construction when off. *)
let sanitize_check (e : t) ~reason =
  match e.sanitizer with
  | Some s ->
    Hvm.Sanitize.check s ~machine:e.machine ~roots:e.roots
      ~code_keys:(Some (Codecache.keys e.cache)) ~reason
  | None -> ()

(* Invalidate all host page-table mappings of the guest halves (the
   paper's TLB-flush intercept: clear the low 256 PML4 entries of each
   set and flush the host TLB). *)
let flush_host_mappings (e : t) =
  poison_regions e;
  Array.iter (fun root -> Hvm.Pagetable.clear_low_half e.machine.Machine.mem e.machine.Machine.palloc ~root) e.roots;
  Hvm.Tlb.flush_all e.machine.Machine.tlb;
  Machine.charge e.machine Cost.tlb_flush;
  Hashtbl.reset e.mappings;
  Hashtbl.reset e.itlb;
  (match e.sanitizer with Some s -> Hvm.Sanitize.record_clear_mappings s | None -> ());
  sanitize_check e ~reason:"flush"


(* Unlink every chain and exit edge into [dead] (a chain hit bypasses
   the cache, so a surviving edge would re-enter replaced or stale
   code), and the dead records' own outgoing edges: the dispatch loop
   may still hold one of them as its current block (a block that
   rewrote its own page), and must not chain onward from it. *)
let unlink (e : t) (dead : translation list) =
  let cut = function Some (_, _, tgt) when List.memq tgt dead -> None | edge -> edge in
  Codecache.iter
    (fun _ tr ->
      tr.t_chain <- cut tr.t_chain;
      Array.iteri (fun i edge -> tr.t_exits.(i) <- cut edge) tr.t_exits)
    e.cache;
  List.iter
    (fun tr ->
      tr.t_chain <- None;
      Array.fill tr.t_exits 0 (Array.length tr.t_exits) None)
    dead

let invalidate_page e phys_page =
  poison_regions e;
  (* Cancel in-flight region jobs translating from this page: a pending
     job was enqueued against the pre-write bytes.  Jobs already running
     on a worker domain can't be stopped mid-flight — their install is
     rejected instead, by the page-generation tombstone ([publish_if])
     and the guest-byte re-check in [install]. *)
  (match e.pool with
  | None -> ()
  | Some p ->
    let n = Pool.cancel p (fun j -> Int64.equal (Bits.align_down j.j_req.rq_pa 4096) phys_page) in
    e.stats.jobs_cancelled <- e.stats.jobs_cancelled + n);
  (* [invalidate_page] bumps the page generation even when no key is
     published — the tombstone must outlive the cache contents. *)
  let removed = Codecache.invalidate_page e.cache phys_page in
  if removed <> [] then begin
    unlink e removed;
    e.stats.smc_invalidations <- e.stats.smc_invalidations + 1
  end;
  (* Static-analysis staleness audit: unlike chain edges, there is no
     per-translation analysis state to drop here.  Abstract facts and
     obligation findings are consumed at translate time (counters plus
     the capped finding log); helper effect summaries are pure
     functions of the helper index ([Effects.summarize]); neither is
     keyed by translation, so an invalidated page cannot leave a stale
     fact behind.  A re-translation after SMC re-runs the analyzer from
     scratch (regression-tested in test_engine). *)
  (match e.sanitizer with Some s -> Hvm.Sanitize.record_invalidate_page s ~pa_page:phys_page | None -> ());
  sanitize_check e ~reason:"invalidate"

(* Write-protect a page that has just begun to hold code (a page holds
   code while the code cache has a translation on it). *)
let protect_page e phys_page =
  (match e.sanitizer with Some s -> Hvm.Sanitize.record_protect_page s ~pa_page:phys_page | None -> ());
  (* Downgrade any existing writable host mapping of this guest page. *)
  match Hashtbl.find_opt e.mappings phys_page with
  | Some lst ->
    List.iter
      (fun (asid, va_page) ->
        let root = e.roots.(asid) in
        match fst (Hvm.Pagetable.walk e.machine.Machine.mem ~root va_page) with
        | Some (pte_addr, pte) when Int64.logand pte Hvm.Pagetable.pte_present <> 0L ->
          let flags = Hvm.Pagetable.flags_of_bits pte in
          Hvm.Pagetable.protect e.machine.Machine.mem ~root va_page
            { flags with Hvm.Pagetable.writable = false };
          ignore pte_addr;
          Hvm.Tlb.flush_page e.machine.Machine.tlb (Int64.shift_right_logical va_page 12)
        | _ -> ())
      !lst
  | None -> ()

let handle_fault (e : t) ctx (access : Machine.access) va ~bits ~value : Exec.fault_response =
  trace e "FAULT va=%Lx access=%s as=%d ring=%d pc=%Lx tag=%Lx\n%!" va
    (match access with Machine.Read -> "R" | Machine.Write -> "W" | Machine.Exec -> "X")
    e.current_as e.machine.Machine.ring (Exec.get_pc ctx) (Exec.get_reg ctx Dag.as_tag_preg);
  let sys = Common.sys_ctx e.guest ctx in
  (* Reconstruct the full guest VA from the masked lower-half address. *)
  let gva = if e.current_as = 1 then Int64.logor va 0xFFFF_8000_0000_0000L else va in
  match e.guest.Ops.mmu_translate sys ~access:(Common.access_of access) gva with
  | Error fault ->
    Machine.charge e.machine Cost.guest_fault_bookkeeping;
    sanitize_check e ~reason:"guest-fault";
    e.guest.Ops.data_abort sys ~va:gva ~access:(Common.access_of access) ~fault;
    raise Ops.Guest_trap
  | Ok (pa, perms) -> (
    let el = e.guest.Ops.privilege_level sys in
    let allowed =
      (el > 0 || perms.Ops.puser)
      && (access <> Machine.Write || perms.Ops.pw)
    in
    if not allowed then begin
      Machine.charge e.machine Cost.guest_fault_bookkeeping;
      sanitize_check e ~reason:"guest-fault";
      e.guest.Ops.data_abort sys ~va:gva ~access:(Common.access_of access)
        ~fault:(Ops.Gf_permission 3);
      raise Ops.Guest_trap
    end;
    match Machine.find_device e.machine pa with
    | Some d ->
      (* MMIO: emulated by the hypervisor (an exit from the HVM). *)
      Machine.charge e.machine Cost.soft_interrupt;
      (match access with
      | Machine.Write ->
        ignore (Machine.device_access e.machine d ~bits pa (Some (Option.value value ~default:0L)));
        Exec.Mmio_done
      | Machine.Read | Machine.Exec -> Exec.Mmio_value (Machine.device_access e.machine d ~bits pa None))
    | None ->
      let phys_page = Bits.align_down pa 4096 in
      let va_page = Bits.align_down va 4096 in
      (* Self-modifying code: a permitted write to a protected code page
         invalidates that page's translations and restores write access. *)
      if access = Machine.Write && Codecache.holds_code e.cache phys_page then
        invalidate_page e phys_page;
      let writable = perms.Ops.pw && not (Codecache.holds_code e.cache phys_page) in
      let flags =
        {
          Hvm.Pagetable.writable;
          user = perms.Ops.puser;
          executable = perms.Ops.px;
        }
      in
      let root = e.roots.(e.current_as) in
      Hvm.Pagetable.map e.machine.Machine.mem e.machine.Machine.palloc ~root va_page phys_page flags;
      (* The PTE just changed: shoot down any stale hardware-TLB entry
         for this page, or the retry re-faults through the old
         translation forever — e.g. an SMC write to a code page that was
         previously read (TLB-resident, read-only) and has just been
         remapped writable. *)
      Hvm.Tlb.flush_page e.machine.Machine.tlb (Int64.shift_right_logical va_page 12);
      (let lst =
         match Hashtbl.find_opt e.mappings phys_page with
         | Some l -> l
         | None ->
           let l = ref [] in
           Hashtbl.replace e.mappings phys_page l;
           l
       in
       if not (List.mem (e.current_as, va_page) !lst) then lst := (e.current_as, va_page) :: !lst);
      (match e.sanitizer with
      | Some s -> Hvm.Sanitize.record_map s ~asid:e.current_as ~va_page ~pa_page:phys_page ~flags
      | None -> ());
      sanitize_check e ~reason:"fault";
      Exec.Retry)
