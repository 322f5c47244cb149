(* The execution engine and dispatch loop (paper Sec. 2.3) with its
   chaining, profiling and promotion: blocks run from the code cache,
   chain to their successors while no check intervenes, and hot tier-0
   blocks are promoted to tier-1 regions, inline or on the worker pool.
   The whole per-block hot path ([run], [enter_block], [prepare_as],
   [lookup_fetch], [record_succ]) stays in this one module. *)

open Tally
open State

(* --- tiered translation: hot-region formation (tier 1) ---------------------------- *)

(* Bounded successor profile (space-saving, k = 4): recorded free of
   charge in the run loop while a block is still tier 0; drives member
   selection and dispatch ordering when the block is promoted. *)
let record_succ (tr : translation) va el =
  let rec bump = function
    | [] -> None
    | (v, e_, c) :: rest when Int64.equal v va && e_ = el -> Some ((v, e_, c + 1) :: rest)
    | x :: rest -> Option.map (fun r -> x :: r) (bump rest)
  in
  match bump tr.t_succs with
  | Some l -> tr.t_succs <- l
  | None ->
    if List.length tr.t_succs < 4 then tr.t_succs <- (va, el, 1) :: tr.t_succs
    else begin
      (* replace the coldest entry, inheriting its count *)
      let min_c = List.fold_left (fun m (_, _, c) -> min m c) max_int tr.t_succs in
      let replaced = ref false in
      tr.t_succs <-
        List.map
          (fun (v, e_, c) ->
            if (not !replaced) && c = min_c then begin
              replaced := true;
              (va, el, min_c + 1)
            end
            else (v, e_, c))
          tr.t_succs
    end

(* Profiled successor VAs of [tr] at exception level [el], hottest first;
   the recorded chain edge counts as the hottest observation. *)
let succs_by_heat (tr : translation) ~el =
  let base = List.filter (fun (_, e_, _) -> e_ = el) tr.t_succs in
  let base =
    match tr.t_chain with
    | Some (cva, cel, _)
      when cel = el && not (List.exists (fun (v, _, _) -> Int64.equal v cva) base) ->
      (cva, el, max_int) :: base
    | _ -> base
  in
  List.sort (fun (_, _, a) (_, _, b) -> compare b a) base |> List.map (fun (v, _, _) -> v)

(* Member selection: breadth-first over the recorded chain edge plus the
   bounded taken-target profile — limited to [region_max_blocks] members
   on the head's guest page (so physical code-cache indexing and
   page-granular SMC invalidation stay exact) and to the head's
   exception level and MMU regime.  Also reports whether the head
   self-loops: a single-member region is still worth translating when
   the head loops back to itself — the self-edge becomes an in-region
   transfer with no dispatch, no per-iteration block entry and a
   deferred PC sync, the hottest shape in loop kernels. *)
let select_members (e : t) (head : translation) : translation list * bool =
  let pa_head, el, mmu_on = head.t_key in
  let va_page = Bits.align_down head.t_va 4096 in
  let pa_page = Bits.align_down pa_head 4096 in
  let members = ref [ head ] in
  let queue = Queue.create () in
  Queue.add head queue;
  while (not (Queue.is_empty queue)) && List.length !members < region_max_blocks do
    let m = Queue.pop queue in
    List.iter
      (fun va ->
        if
          List.length !members < region_max_blocks
          && Int64.equal (Bits.align_down va 4096) va_page
          && not (List.exists (fun m' -> Int64.equal m'.t_va va) !members)
        then
          let pa = Int64.logor pa_page (Int64.logand va 0xFFFL) in
          match Codecache.lookup e.cache ~page:pa_page (pa, el, mmu_on) with
          | Some tr
            when tr.t_n_guest > 0 && tr.t_members = 1
                 && Array.length tr.t_exits = 0
                 && Int64.equal tr.t_va va ->
            members := !members @ [ tr ];
            Queue.add tr queue
          | _ -> ())
      (succs_by_heat m ~el)
  done;
  let self_loop =
    List.exists (fun va -> Int64.equal va head.t_va) (succs_by_heat head ~el)
  in
  (!members, self_loop)

(* Capture a region-formation job: copy the members' guest bytes into
   the request, freeze the member descriptors and successor profiles,
   and record the page invalidation generation that gates an async
   install. *)
let make_region_job (e : t) ~(head : translation) ~(members : translation list) : region_job =
  let pa_head, el, mmu_on = head.t_key in
  let off = ref 0 in
  let descs =
    List.map
      (fun m ->
        let len = e.guest.Ops.insn_size * m.t_n_guest in
        let md = { md_va = m.t_va; md_off = !off; md_len = len; md_succs = succs_by_heat m ~el } in
        off := !off + len;
        md)
      members
  in
  let req =
    {
      rq_va = head.t_va;
      rq_pa = pa_head;
      rq_el = el;
      rq_mmu = mmu_on;
      rq_region = true;
      rq_members = descs;
      rq_guest = Bytes.empty;
    }
  in
  {
    j_req = { req with rq_guest = Translate.guest_now e req };
    j_head = head;
    j_members = members;
    j_gen = Codecache.page_gen e.cache (Bits.align_down pa_head 4096);
  }

(* --- the worker pool ------------------------------------------------------------- *)

let job_queue_depth = 16

(* The pool is spawned lazily on the first enqueue, so a [domains = 1]
   engine (and every engine until its first hot crossing) never pays
   for domain creation.  Workers never touch the engine: they run
   [region_front] on a job's request alone, and the vCPU installs their
   results from [drain_jobs] at dispatch granularity. *)
let ensure_pool (e : t) =
  match e.pool with
  | Some p -> p
  | None ->
    let je = e.jenv in
    let p =
      Pool.create ~workers:(max 1 (e.config.domains - 1)) ~depth:job_queue_depth (fun job ->
          Translate.region_front je job.j_req)
    in
    e.pool <- Some p;
    p

(* Queue a job for the worker pool.  The queue is bounded, so a burst
   of hot crossings cannot pile up unbounded translation work; a
   dropped job demotes the head (and takes back its promotion count),
   so the block re-crosses the threshold later and retries. *)
let enqueue_job (e : t) (job : region_job) : unit =
  let s = e.stats in
  if Pool.submit (ensure_pool e) job then s.jobs_enqueued <- s.jobs_enqueued + 1
  else begin
    s.jobs_dropped <- s.jobs_dropped + 1;
    s.promotions <- s.promotions - 1;
    job.j_head.t_tier <- 0;
    job.j_head.t_exec_count <- 0
  end

(* Install a finished region job's result, replacing its head. *)
let install_job (e : t) (job : region_job) res =
  ignore
    (Translate.install ~async:true ~gen:job.j_gen ~replaces:job.j_head ~members:job.j_members e
       job.j_req res)

(* Install whatever the workers have finished.  Called from the run
   loop at dispatch granularity — the vCPU is the only publisher and
   invalidator, so every interleaving of install with lookup and SMC
   invalidation happens at this one well-defined point.  Under
   [stress_seed], a seeded PRNG jitters how many completions are taken
   per call, deterministically exploring install/invalidate/lookup
   orderings for the stress harness. *)
let drain_jobs (e : t) : unit =
  match e.pool with
  | None -> ()
  | Some p ->
    let n_take n_avail =
      match e.stress_prng with
      | None -> n_avail
      | Some rng ->
        if n_avail = 0 then 0
        else if Dbt_util.Prng.bool rng then 0 (* hold every completion this tick *)
        else Dbt_util.Prng.int rng (n_avail + 1)
    in
    List.iter
      (fun (job, outcome) ->
        e.stats.jobs_completed <- e.stats.jobs_completed + 1;
        match outcome with Ok res -> install_job e job res | Error exn -> raise exn)
      (Pool.take p n_take)

(* Promote a hot tier-0 (or template) block: select members, then
   install the region from the AOT cache, translate it inline
   ([domains <= 1] — bit-identical in cycles and stats to the
   pre-concurrency engine), or enqueue the formation job and keep
   executing the current code while a worker domain translates.  The
   region re-translates every member from guest bytes through the full
   pipeline, so the hot path (region entry + chained exits) runs
   pipeline-built code.  A lone hot template head with no region to
   form is re-translated through the pipeline instead: the template
   tier is a cold-boot device, not a steady-state one. *)
let promote_block (e : t) (head : translation) : unit =
  let s = e.stats in
  s.promotions <- s.promotions + 1;
  let was_template = head.t_tier < 0 in
  head.t_tier <- 1;
  let members, self_loop = select_members e head in
  if List.length members > 1 || self_loop then begin
    let job = make_region_job e ~head ~members in
    let acc = new_acc () in
    match Translate.aot_front e acc job.j_req ~kind:1 with
    | Some res -> ignore (Translate.install ~replaces:head ~members e job.j_req res)
    | None ->
      Translate.merge e acc;
      if e.config.domains <= 1 then
        ignore
          (Translate.install ~replaces:head ~members e job.j_req
             (Translate.region_front e.jenv job.j_req))
      else enqueue_job e job
  end
  else if was_template then begin
    (* Its record stays published: the replacement inherits the
       profile at the promoted tier. *)
    let pa, el, mmu_on = head.t_key in
    let fresh = Translate.translate_block ~pipeline:true ~replaces:head e ~va:head.t_va ~pa ~el ~mmu_on in
    fresh.t_exec_count <- head.t_exec_count;
    fresh.t_succs <- head.t_succs;
    fresh.t_tier <- 1
  end

(* --- dispatch loop ------------------------------------------------------------------- *)

type exit_reason = Poweroff of int | Cycle_limit | Block_limit

let fetch_translate (e : t) sys va : (int64, unit) Stdlib.result =
  (* Translate a fetch VA to PA via the guest MMU; takes the guest
     instruction-abort path on failure. *)
  match e.guest.Ops.mmu_translate sys ~access:Ops.Afetch va with
  | Error fault ->
    e.guest.Ops.insn_abort sys ~va ~fault;
    Error ()
  | Ok (pa, perms) ->
    let el = e.guest.Ops.privilege_level sys in
    if (el = 0 && not perms.Ops.puser) || not perms.Ops.px then begin
      e.guest.Ops.insn_abort sys ~va ~fault:(Ops.Gf_permission 3);
      Error ()
    end
    else Ok pa

let lookup_fetch (e : t) sys va ~el ~mmu_on =
  let va_page = Bits.align_down va 4096 in
  match Hashtbl.find_opt e.itlb (va_page, el, mmu_on) with
  | Some pa_page -> Ok (Int64.logor pa_page (Int64.logand va 0xFFFL))
  | None -> (
    match fetch_translate e sys va with
    | Error () -> Error ()
    | Ok pa ->
      Hashtbl.replace e.itlb (va_page, el, mmu_on) (Bits.align_down pa 4096);
      Ok pa)

(* Enter a block at [va] under exception level [el]: set the host ring
   (guest EL0 runs in host ring 3, everything else ring 0) and, when
   sanitizing, audit the ring/user-bit invariant.  Also called at chain
   transitions, where the exception level may have changed mid-chain. *)
let enter_block (e : t) ~el ~va =
  (* The dispatcher re-validated (EL, MMU regime): clear the region
     poison flag so tier-1 regions run until the next regime change. *)
  Exec.set_reg e.ctx Hir.region_poison_preg 0L;
  e.machine.Machine.ring <- (if el = 0 then 3 else 0);
  match e.sanitizer with
  | None -> ()
  | Some s ->
    let asid = if Int64.shift_right_logical va 47 = 0L then 0 else 1 in
    Hvm.Sanitize.audit_ring s ~machine:e.machine ~roots:e.roots ~asid ~guest_el:el ~pc:va

let prepare_as (e : t) va =
  (* Set the active page-table set to match the next PC's half. *)
  let target_as = if Int64.shift_right_logical va 47 = 0L then 0 else 1 in
  if target_as <> e.current_as then begin
    e.current_as <- target_as;
    Machine.set_page_table e.machine ~root:e.roots.(target_as) ~pcid:target_as
      ~keep_tlb:e.config.pcid
  end;
  trace e "PREPARE va=%Lx as=%d\n%!" va target_as;
  Exec.set_reg e.ctx Dag.as_tag_preg (as_tag_value target_as)

(* One loop for both designs.  Where the QEMU-style baseline differs,
   it differs by policy: its cache is keyed by VA ([key_of]), and
   without host paging there is no address-space switch to prepare, so
   a chain edge may cross the VA halves. *)
let run ?(max_cycles = max_int) ?(max_blocks = max_int) (e : t) : exit_reason =
  let sys = Common.sys_ctx e.guest e.ctx in
  let paging = e.machine.Machine.paging in
  (* Region safepoints honour this run's cycle ceiling. *)
  e.ctx.Exec.poll_deadline <- max_cycles;
  let result = ref None in
  (try
     while !result = None do
       if e.syscon.Hvm.Device.Syscon.poweroff then
         result := Some (Poweroff e.syscon.Hvm.Device.Syscon.exit_code)
       else if e.machine.Machine.cycles > max_cycles then result := Some Cycle_limit
       else if e.stats.blocks_executed > max_blocks then result := Some Block_limit
       else begin
         (* Install any translations the worker domains finished: the
            vCPU is the only publisher, so completed jobs land at
            dispatch granularity — one well-defined interleaving point
            against lookups and SMC invalidation. *)
         if Option.is_some e.pool then drain_jobs e;
         (* Interrupts are taken at block boundaries.  One the guest
            masks is held: the next region safepoint ignores it once,
            so a region entered here runs at least one member instead
            of bailing straight back to this refusal forever. *)
         e.ctx.Exec.irq_held <- Machine.irq_pending e.machine && not (e.guest.Ops.deliver_irq sys);
         let el = e.guest.Ops.privilege_level sys in
         let mmu_on = e.guest.Ops.mmu_enabled sys in
         let va = Exec.get_pc e.ctx in
         enter_block e ~el ~va;
         Machine.charge e.machine Cost.dispatch_lookup;
         match lookup_fetch e sys va ~el ~mmu_on with
         | Error () -> () (* instruction abort redirected the PC *)
         | Ok pa -> (
           let key = key_of e ~va ~pa ~el ~mmu_on in
           let tr =
             match Codecache.lookup e.cache ~page:(Bits.align_down pa 4096) key with
             | Some tr -> tr
             | None -> Translate.translate_block e ~va ~pa ~el ~mmu_on
           in
           if paging then prepare_as e va;
           (* Execute, following chain links while they hit. *)
           try
             let cur = ref tr in
             let continue_chain = ref true in
             while !continue_chain do
               let c0 = e.machine.Machine.cycles in
               Machine.charge e.machine Cost.block_entry;
               let slot = ref 0 in
               (* A region unit is exactly a translation with exit sites
                  (a self-loop region has t_members = 1 but one site). *)
               if Array.length !cur.t_exits > 0 then begin
                 (* Region unit: each member entry polls a block-budget
                    safepoint, so the run loop's max_blocks bound holds
                    at block granularity even without dispatching. *)
                 let budget =
                   if max_blocks = max_int then max_int
                   else max 1 (max_blocks - e.stats.blocks_executed)
                 in
                 e.ctx.Exec.poll_budget <- budget;
                 slot := Exec.run e.ctx !cur.t_code;
                 let consumed = max 1 (budget - e.ctx.Exec.poll_budget) in
                 e.stats.blocks_executed <- e.stats.blocks_executed + consumed;
                 e.stats.region_entries <- e.stats.region_entries + 1;
                 e.stats.region_block_execs <- e.stats.region_block_execs + consumed
               end
               else begin
                 ignore (Exec.run e.ctx !cur.t_code);
                 e.stats.blocks_executed <- e.stats.blocks_executed + 1
               end;
               !cur.t_exec_count <- !cur.t_exec_count + 1;
               !cur.t_cycles <- !cur.t_cycles + (e.machine.Machine.cycles - c0);
               let next_va = Exec.get_pc e.ctx in
               let next_el = e.guest.Ops.privilege_level sys in
               if e.config.tiering && !cur.t_tier <= 0 then begin
                 record_succ !cur next_va next_el;
                 if !cur.t_n_guest > 0 && !cur.t_exec_count >= e.config.hot_threshold then
                   promote_block e !cur
               end;
               if
                 e.config.chaining
                 && (not (Machine.irq_pending e.machine))
                 && e.stats.blocks_executed <= max_blocks
                 && e.machine.Machine.cycles <= max_cycles
               then begin
                 (* No IRQ pending: nothing is held across a chain edge. *)
                 e.ctx.Exec.irq_held <- false;
                 (* Regions chain per exit site (each member's dispatch
                    chunk has its own patchable slot); plain blocks keep
                    the single chain edge.  Slot 0 is the safepoint bail
                    path and is never patched: the bail reasons (poison,
                    budget, irq) all need the checks above or the full
                    dispatcher. *)
                 let site =
                   if Array.length !cur.t_exits > 0 then
                     if !slot >= 1 && !slot <= Array.length !cur.t_exits then Some (!slot - 1)
                     else None
                   else Some (-1) (* plain block: the t_chain edge *)
                 in
                 let edge =
                   match site with
                   | Some s when s >= 0 -> !cur.t_exits.(s)
                   | Some _ -> !cur.t_chain
                   | None -> None
                 in
                 match edge with
                 | Some (cva, cel, target) when cva = next_va && cel = next_el ->
                   Machine.charge e.machine Cost.branch;
                   e.stats.chain_hits <- e.stats.chain_hits + 1;
                   enter_block e ~el:next_el ~va:next_va;
                   cur := target
                 | _ -> (
                   (* Try to link: only when the target is already
                      translated and the MMU regime is unchanged (and,
                      with host paging, the address space too). *)
                   let mmu_on' = e.guest.Ops.mmu_enabled sys in
                   if
                     mmu_on' = mmu_on
                     && ((not paging)
                        || Int64.shift_right_logical next_va 47 = Int64.shift_right_logical va 47)
                   then begin
                     match Hashtbl.find_opt e.itlb (Bits.align_down next_va 4096, next_el, mmu_on') with
                     | Some pa_page -> (
                       let npa = Int64.logor pa_page (Int64.logand next_va 0xFFFL) in
                       match
                         Codecache.lookup e.cache ~page:pa_page
                           (key_of e ~va:next_va ~pa:npa ~el:next_el ~mmu_on:mmu_on')
                       with
                       | Some target ->
                         (match site with
                         | Some s when s >= 0 -> !cur.t_exits.(s) <- Some (next_va, next_el, target)
                         | Some _ -> !cur.t_chain <- Some (next_va, next_el, target)
                         | None -> ());
                         Machine.charge e.machine Cost.dispatch_lookup;
                         enter_block e ~el:next_el ~va:next_va;
                         cur := target
                       | None -> continue_chain := false)
                     | None -> continue_chain := false
                   end
                   else continue_chain := false)
               end
               else continue_chain := false
             done
           with Ops.Guest_trap -> () (* guest exception taken mid-block *))
       end
     done
   with Machine.Powered_off code -> result := Some (Poweroff code));
  Option.get !result
