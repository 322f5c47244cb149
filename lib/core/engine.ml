(* The Captive DBT hypervisor engine (paper Sec. 2.3-2.7): construction
   and the public face of the private modules behind it, which DESIGN.md
   maps.  Two host page-table sets cover the guest's lower (TTBR0) and
   upper (TTBR1) address spaces; generated code checks the VA split and
   switches sets under distinct PCIDs (Sec. 2.7.5). *)

include Tally
include State.Config
open State

type exit_reason = Dispatch.exit_reason = Poweroff of int | Cycle_limit | Block_limit

(* Captive's helpers: guest system operations run inside the ring-0
   execution engine, and a page-table or TLB change drops the host
   mappings but keeps every translation. *)
let captive_helpers (guest : Ops.ops) (engine : unit -> State.t) : (int * Exec.helper) list =
  let sys ctx = Common.sys_ctx guest ctx in
  let charge_int ctx = Machine.charge ctx.Exec.machine Cost.soft_interrupt in
  (* The TLB-flush intercept; a single-page invalidation conservatively
     flushes everything too. *)
  let flush ctx _ =
    charge_int ctx;
    Fault.flush_host_mappings (engine ());
    0L
  in
  let h i cost fn = (i, { Exec.fn; cost }) in
  [
    h Common.h_coproc_read 30 (fun ctx args -> guest.Ops.coproc_read (sys ctx) args.(0));
    h Common.h_coproc_write 30 (fun ctx args ->
        charge_int ctx;
        (match guest.Ops.coproc_write (sys ctx) args.(0) args.(1) with
        | Ops.Ce_none -> ()
        | Ops.Ce_mmu_changed | Ops.Ce_tlb_flush -> Fault.flush_host_mappings (engine ()));
        0L);
    (* Guest exception entry/return is a direct transfer inside the
       ring-0 execution engine - no software interrupt needed. *)
    h Common.h_take_exception 60 (fun ctx args ->
        Fault.poison_regions (engine ());
        guest.Ops.take_exception (sys ctx) ~ec:args.(0) ~iss:args.(1);
        0L);
    h Common.h_eret 60 (fun ctx _ ->
        Fault.poison_regions (engine ());
        guest.Ops.eret (sys ctx);
        0L);
    h Common.h_tlb_flush 40 flush;
    h Common.h_tlb_flush_page 40 flush;
    h Common.h_as_switch 5 (fun ctx args ->
        let e = engine () in
        let target_as = if args.(0) = 0L then 0 else 1 in
        e.current_as <- target_as;
        Machine.set_page_table ctx.Exec.machine ~root:e.roots.(target_as) ~pcid:target_as
          ~keep_tlb:e.config.pcid;
        Exec.set_reg ctx Dag.as_tag_preg (as_tag_value target_as);
        trace e "SWITCH as=%d pc=%Lx\n%!" target_as (Exec.get_pc ctx);
        0L);
  ]

(* An engine of either design over a fresh board: Captive's with host
   paging, or, given [baseline], the QEMU-style one without.  The helper
   table holds the helpers both designs share, then the design's own;
   the helpers reach the engine through [engine_ref], set last. *)
let create_core ?baseline config (guest : Ops.ops) design_helpers : State.t =
  let machine, uart, timer, syscon = Machine.board ~mem_size:config.mem_size in
  let paging = Option.is_none baseline in
  machine.Machine.paging <- paging;
  let roots =
    if paging then [| Hvm.Palloc.alloc machine.Machine.palloc; Hvm.Palloc.alloc machine.Machine.palloc |]
    else [||]
  in
  if paging then machine.Machine.cr3 <- roots.(0);
  let engine_ref = ref None in
  let engine () = Option.get !engine_ref in
  let helpers =
    Array.make (Common.first_softfloat + List.length Common.softfloat_names)
      { Exec.fn = (fun _ _ -> 0L); cost = 0 }
  in
  let set h cost fn = helpers.(h) <- { Exec.fn; cost } in
  set Common.h_halt 0 (fun _ _ -> raise (Machine.Powered_off 0));
  (* Fast-forward to the next timer event if one is pending. *)
  set Common.h_wfi 10 (fun ctx _ ->
      Machine.wfi ctx.Exec.machine timer;
      0L);
  List.iteri
    (fun i name -> helpers.(Common.first_softfloat + i) <- Common.softfloat_helper name)
    Common.softfloat_names;
  List.iter (fun (i, h) -> helpers.(i) <- h) (design_helpers engine);
  let fault_handler ctx access va ~bits ~value = Fault.handle_fault (engine ()) ctx access va ~bits ~value in
  let ctx = Exec.create ~machine ~helpers ~fault_handler in
  let jenv =
    {
      je_guest = guest;
      je_config = config;
      je_n_helpers = Array.length helpers;
      je_rf_bytes = Bytes.length ctx.Exec.regfile;
    }
  in
  let e =
    {
      guest;
      config;
      machine;
      ctx;
      cache = Codecache.create ();
      baseline;
      mappings = Hashtbl.create 1024;
      roots;
      current_as = 0;
      itlb = Hashtbl.create 256;
      sanitizer = (if config.check then Some (Hvm.Sanitize.create ()) else None);
      stats = new_phase_stats ();
      uart;
      timer;
      syscon;
      tracing = Sys.getenv_opt "CAPTIVE_TRACE" <> None;
      trace_events = 0;
      findings = [];
      aot = Option.map Aotcache.open_dir config.aot_dir;
      jenv;
      pool = None;
      stress_prng = Option.map Dbt_util.Prng.create config.stress_seed;
      templates = None;
      template_miss = Hashtbl.create 32;
    }
  in
  engine_ref := Some e;
  guest.Ops.reset (Common.sys_ctx guest ctx) ~entry:0L;
  e

type core = State.t

(* The public record: the counters, the machine and the executor
   context are read directly; everything else stays behind [core]. *)
type t = { stats : phase_stats; machine : Machine.t; ctx : Exec.ctx; core : core }

let public (c : core) = { stats = c.stats; machine = c.machine; ctx = c.ctx; core = c }
let create ?(config = default_config) guest = public (create_core config guest (captive_helpers guest))

(* --- the QEMU-style baseline over the same dispatcher ---------------------------------- *)

include State.Baseline

(* All floating point goes through softfloat helpers, and nothing is
   tiered, stitched or promoted. *)
let create_baseline ~chaining baseline ~helpers guest =
  let config =
    { default_config with chaining; hw_fp = false; tiering = false; templates = false; promote = false }
  in
  public (create_core ~baseline config guest (fun _ -> helpers))

let flush_translations (e : t) =
  Codecache.clear e.core.cache;
  Hashtbl.reset e.core.itlb

let holds_code (e : t) page = Codecache.holds_code e.core.cache page
let invalidate_page (e : t) page = Fault.invalidate_page e.core page

let run ?max_cycles ?max_blocks (e : t) = Dispatch.run ?max_cycles ?max_blocks e.core

(* Stop the worker pool: discard pending jobs, join the domains.  Safe
   to call repeatedly and on a [domains = 1] engine (no-op); the pool
   respawns on the next enqueue. *)
let shutdown (e : t) =
  Option.iter (fun p -> Pool.stop p; e.core.pool <- None) e.core.pool

(* --- guest setup utilities -------------------------------------------------------------- *)

let load_image (e : t) ~addr (image : bytes) = Hvm.Mem.blit_in e.machine.Machine.mem ~addr image

let set_entry (e : t) entry = e.core.guest.Ops.reset (Common.sys_ctx e.core.guest e.ctx) ~entry

let uart_output (e : t) = Hvm.Device.Uart.output e.core.uart
let cycles (e : t) = e.machine.Machine.cycles

(* The virtual-time split: [cycles] = wall clock; [jit_cycles] is the
   translation-side share (JIT + AOT loads); [exec_cycles] the
   guest-visible remainder that device time follows.  A warm boot must
   reproduce [exec_cycles] bit-for-bit. *)
let jit_cycles (e : t) = e.machine.Machine.jit_cycles
let exec_cycles (e : t) = Machine.guest_cycles e.machine

(* The share of [jit_cycles] spent on worker domains (0 when
   [domains = 1]): translate work the concurrent JIT removed from the
   vCPU's critical path. *)
let async_jit_cycles (e : t) = e.machine.Machine.async_jit_cycles

(* One checker's logged findings, [(what, detail)] in discovery order. *)
let log_of (e : t) checker =
  List.filter_map
    (fun f -> if f.fi_checker = checker then Some (f.fi_what, f.fi_detail) else None)
    e.core.findings

let aot_entry_count (e : t) = match e.core.aot with Some c -> Aotcache.entry_count c | None -> 0

(* Per-translation execution statistics, for the Fig. 21 code-quality
   analysis: (translation VA, guest instrs, host instrs, executions,
   accumulated cycles, tier). *)
let block_stats (e : t) =
  Codecache.fold
    (fun _ tr acc ->
      (tr.t_va, tr.t_n_guest, tr.t_n_host, tr.t_exec_count, tr.t_cycles, tr.t_tier) :: acc)
    e.core.cache []

(* Per-opcode template miss counts, heaviest first (the [templates]
   subcommand's miss table). *)
let template_miss_table (e : t) : (string * int) list =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) e.core.template_miss []
  |> List.sort (fun (n1, c1) (n2, c2) ->
       if c1 <> c2 then compare c2 c1 else compare n1 n2)

let sanitizer (e : t) = e.core.sanitizer
let sanitize_check (e : t) ~reason = Fault.sanitize_check e.core ~reason

module Internal = struct
  type job = region_job
  type result = State.result

  let job (e : t) =
    let plain tr = tr.t_n_guest > 1 && tr.t_members = 1 && Array.length tr.t_exits = 0 in
    Codecache.fold (fun _ tr found -> if Option.is_none found && plain tr then Some tr else found) e.core.cache None
    |> Option.map (fun head ->
           let members, _ = Dispatch.select_members e.core head in
           Dispatch.make_region_job e.core ~head ~members)

  let head_pa (j : job) = j.j_req.rq_pa
  let head_tier (j : job) = j.j_head.t_tier
  let job_members (j : job) = List.length j.j_members
  let translate (e : t) (j : job) = Translate.region_front e.core.jenv j.j_req
  let install (e : t) j res = Dispatch.install_job e.core j res
  let published_members (e : t) (j : job) =
    Option.map
      (fun tr -> tr.t_members)
      (Codecache.lookup e.core.cache ~page:(Bits.align_down j.j_req.rq_pa 4096) j.j_head.t_key)

  let log_findings (e : t) checker fs =
    let acc = new_acc () in
    run_checker acc checker ~region:false (fun () -> (fs, ()));
    Translate.merge e.core acc

  let timer (e : t) = e.core.timer
end
