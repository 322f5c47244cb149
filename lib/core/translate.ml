(* The JIT (paper Sec. 2.4): every tier turns a [request] (a guest-PA
   site, its regime and a copy of the guest bytes it decodes) into one
   [result] through one back end (decode -> translate -> register
   allocation -> encode, each phase timed for Fig. 20), and [install] is
   the one place a result becomes a published translation record, keyed
   by guest *physical* address, exception level and MMU regime. *)

open Tally
open State

(* --- translation requests ---------------------------------------------------------- *)

let field_of ~el (d : Adl.Decode.decoded) =
  let el = Int64.of_int el in
  fun name ->
    if name = "__el" then el
    else
      match List.assoc_opt name d.Adl.Decode.field_values with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "no field %s in %s" name d.Adl.Decode.name)

(* Guest code bytes currently at [pa] (both guests use 32-bit
   instruction words).  [Machine.phys_read] of RAM is charge-free, so
   making a request costs no guest cycles. *)
let read_guest_bytes (e : t) ~pa ~len : bytes =
  let b = Bytes.create len in
  let words = len / 4 in
  for i = 0 to words - 1 do
    let w = Machine.phys_read e.machine ~bits:32 (Int64.add pa (Int64.of_int (4 * i))) in
    Bytes.set_int32_le b (4 * i) (Int64.to_int32 w)
  done;
  for i = 4 * words to len - 1 do
    Bytes.set_uint8 b i
      (Int64.to_int (Machine.phys_read e.machine ~bits:8 (Int64.add pa (Int64.of_int i))))
  done;
  b

(* A member's guest PA: every member lives on the head's page. *)
let member_pa (req : request) va =
  Int64.logor (Bits.align_down req.rq_pa 4096) (Int64.logand va 0xFFFL)

(* The members' guest bytes as they are in memory right now. *)
let guest_now (e : t) (req : request) : bytes =
  Bytes.concat Bytes.empty
    (List.map
       (fun md -> read_guest_bytes e ~pa:(member_pa req md.md_va) ~len:md.md_len)
       req.rq_members)

(* A block request copies the words a block's decode can reach: at
   most [max_block], never past the page end. *)
let block_request (e : t) ~va ~pa ~el ~mmu_on : request =
  let off = Int64.to_int (Int64.logand pa 0xFFFL) in
  let len = 4 * min max_block ((0x1000 - off + 3) / 4) in
  {
    rq_va = va;
    rq_pa = pa;
    rq_el = el;
    rq_mmu = mmu_on;
    rq_region = false;
    rq_members = [ { md_va = va; md_off = 0; md_len = len; md_succs = [] } ];
    rq_guest = read_guest_bytes e ~pa ~len;
  }

(* Decode one guest basic block from its slice of the request's bytes,
   which bounds it (the request stops at [max_block] words and the page
   end).  Returns the decoded instructions in order, up to a
   block-ending one, or [(..., true)] when the very first word is
   undefined (the caller emits an exception stub). *)
let decode (je : jit_env) (req : request) (md : member_desc) : Adl.Decode.decoded list * bool =
  let rec go n acc =
    if 4 * (n + 1) > md.md_len then (List.rev acc, n = 0)
    else
      let word = Bytes.get_int32_le req.rq_guest (md.md_off + (4 * n)) in
      let word = Int64.logand 0xFFFF_FFFFL (Int64.of_int32 word) in
      match Ssa.Offline.decode je.je_guest.Ops.model word with
      | None -> (List.rev acc, n = 0)
      | Some d when d.Adl.Decode.ends_block -> (List.rev (d :: acc), false)
      | Some d -> go (n + 1) (d :: acc)
  in
  go 0 []

let inc_pc (je : jit_env) (d : Adl.Decode.decoded) =
  if d.Adl.Decode.ends_block then None else Some je.je_guest.Ops.insn_size

(* Generator-function translation of one decoded instruction. *)
let gen_insn (je : jit_env) em ~el (d : Adl.Decode.decoded) =
  Ssa.Gen.translate em
    (Ssa.Offline.action je.je_guest.Ops.model d.Adl.Decode.name)
    ~field:(field_of ~el d) ~inc_pc:(inc_pc je d)

let equiv_items (je : jit_env) ~el decoded : Hostir.Equiv.item list =
  List.map
    (fun d ->
      {
        Hostir.Equiv.it_action = Ssa.Offline.action je.je_guest.Ops.model d.Adl.Decode.name;
        it_field = field_of ~el d;
        it_inc_pc = inc_pc je d;
      })
    decoded

let dag_config (je : jit_env) ~mmu_on =
  Common.dag_config je.je_guest ~hw_fp:je.je_config.hw_fp ~mmu_on

(* The per-guest template table, created on first use (the Dag config
   helpers above are not in scope at engine construction). *)
let templates_of (e : t) : Hostir.Template.t =
  match e.templates with
  | Some tt -> tt
  | None ->
    let tt =
      Hostir.Template.create
        ~config:(fun ~mmu_on -> dag_config e.jenv ~mmu_on)
        ~rf_bytes:e.jenv.je_rf_bytes
    in
    e.templates <- Some tt;
    tt

(* Log context for a request's findings. *)
let describe ?(prefix = "") (req : request) =
  if req.rq_region then
    Printf.sprintf "%sregion pa=0x%Lx va=0x%Lx members=%d" prefix req.rq_pa req.rq_va
      (List.length req.rq_members)
  else
    Printf.sprintf "%sblock pa=0x%Lx va=0x%Lx el=%d mmu=%b" prefix req.rq_pa req.rq_va req.rq_el
      req.rq_mmu

let merge (e : t) (acc : acc) =
  add_stats e.stats acc.a_stats;
  e.findings <- append_capped e.findings acc.a_findings

(* Reloc: certify one encoded translation relocation-clean
   (operand/control classification + encoding-determinism audit);
   [Some] carries the certificate the AOT cache persists. *)
let certify (je : jit_env) (acc : acc) ~what ~region ~n_exits ~n_slots ?ra (code : bytes) =
  run_checker acc Reloc ~region (fun () ->
      let env =
        { Hostir.Reloc.n_exits; n_helpers = je.je_n_helpers; n_slots; rf_bytes = je.je_rf_bytes }
      in
      match Hostir.Reloc.certify ~env ?ra code with
      | Ok c -> ([], Some c)
      | Error fs -> (List.map (fun f -> (what, Hostir.Reloc.finding_to_string f)) fs, None))

(* --- simulated translate costs ------------------------------------------------------- *)

(* Captive's pipeline makes several passes (DAG build, liveness,
   allocation, encode), costed per guest instruction and per emitted
   host instruction.  The resulting translation is ~2-3x more expensive
   than the QEMU-style engine's single direct pass (paper Sec. 3.4). *)
let pipeline_cost ~n_guest ~n_host = (1400 * n_guest) + (260 * n_host)

(* A template-stitched block: per-guest hole evaluation/patching plus
   per-host-instruction copy/encode.  No SSA walk, DAG build, liveness
   or linear scan happens per block, so the charge is roughly an order
   of magnitude below the pipeline's.  Mining itself is charged zero:
   a fragment is a pure function of the guest model, so the table is
   an offline per-opcode artifact that mining merely memoizes (the
   "deterministic mining" test pins this). *)
let template_install_cost ~n_guest ~n_host = 40 + (150 * n_guest) + (25 * n_host)

(* Installing from the AOT cache still costs cycles (read, verify,
   re-bind the numbered sites) — a small fraction of a fresh
   translation's charge. *)
let aot_load_cost ~n_host = 50 + (n_host / 4)

(* --- the shared back end ------------------------------------------------------------- *)

(* Every tier's pre-allocation stream [pre] and allocation [ra] pass
   the same trust stack in one fixed order: [Verify] the allocation,
   [Equiv] validation against a per-instruction reference emission
   from the same decode, [Absint] obligations, encode, [Reloc]
   certification.  Pure, so region jobs run it on worker domains.  A
   [Verify] violation raises [Verify.Invalid]: the template tier falls
   back to the pipeline on it, for the pipeline tiers it is a
   miscompile. *)
let back_end (je : jit_env) (acc : acc) (req : request) ~kind ~equiv ?(promoted = [])
    ~n_guest ~cost (pre : Hir.instr array) (ra : Regalloc.result) : result =
  let s = acc.a_stats and cfg = je.je_config and region = req.rq_region in
  let what = describe ~prefix:(if kind = 2 then "template " else "") req in
  (match Hostir.Verify.check ~original:pre ra with
  | [] -> ()
  | vs -> raise (Hostir.Verify.Invalid (what, vs)));
  if cfg.check then begin
    (match equiv with
    | `Stub -> ()
    | (`Block _ | `Region _) as reference ->
      run_checker acc Equiv ~region (fun () ->
          let config = dag_config je ~mmu_on:req.rq_mmu in
          let init_pc = Hostir.Symexec.Const req.rq_va in
          let classify = Common.helper_kind in
          let r =
            match reference with
            | `Block decoded ->
              Hostir.Equiv.check_block ~classify ~config ~init_pc ~opt:pre
                (equiv_items je ~el:req.rq_el decoded)
            | `Region members -> Hostir.Equiv.check_region ~classify ~config ~init_pc ~opt:pre members
          in
          if not r.Hostir.Equiv.complete then s.validations_bounded <- s.validations_bounded + 1;
          ( List.map
              (fun (f : Hostir.Equiv.finding) ->
                (Printf.sprintf "%s: %s" what f.Hostir.Equiv.f_name, f.Hostir.Equiv.f_detail))
              r.Hostir.Equiv.findings,
            () )));
    (* Absint: the pre-allocation stream carries the register-file and
       writeback-discipline obligations, the allocated stream the
       spill-frame bounds. *)
    run_checker acc Absint ~region (fun () ->
        ( List.map
            (fun f -> (what, Hostir.Absint.finding_to_string f))
            (Hostir.Absint.check_translation ~classify:Common.helper_kind ~promoted pre
            @ Hostir.Absint.check_frame ~n_slots:ra.Regalloc.n_slots ra.Regalloc.instrs),
          () ))
  end;
  let t3 = now () in
  let code = Encode.encode ra in
  let program = Encode.decode_program ~n_slots:ra.Regalloc.n_slots code in
  s.t_encode <- s.t_encode +. (now () -. t3);
  let n_host = Array.length pre in
  let n_exits = if region then List.length req.rq_members else 0 in
  let cert =
    if cfg.check || cfg.aot_dir <> None then
      certify je acc ~what ~region ~n_exits ~n_slots:ra.Regalloc.n_slots ~ra code
    else None
  in
  {
    r_kind = kind;
    r_fresh = true;
    r_program = program;
    r_code = code;
    r_cert = cert;
    r_n_guest = n_guest;
    r_n_host = n_host;
    r_n_slots = ra.Regalloc.n_slots;
    r_n_exits = n_exits;
    r_cost = cost ~n_guest ~n_host;
    r_acc = acc;
  }

(* --- tier front ends ------------------------------------------------------------------ *)

(* One decoded block through a backend's emitter — generator functions
   per instruction, then register allocation — at translate cost
   [cost].  An undefined first instruction gets a cached stub that
   raises the guest's undefined-instruction exception.  Captive's tier 0
   emits through the invocation DAG; the QEMU-style baseline through its
   own single-pass emitter. *)
let block_front (je : jit_env) (acc : acc) (req : request) (b : _ block_emitter) ~cost
    (decoded, undefined) : result =
  let s = acc.a_stats in
  let t1 = now () in
  let em = b.em in
  if undefined then
    em.Ssa.Emitter.effect "take_exception" [ em.Ssa.Emitter.const 0L; em.Ssa.Emitter.const 0L ]
  else List.iter (gen_insn je em ~el:req.rq_el) decoded;
  b.raw (Hir.Exit 0);
  let instrs = b.finish () in
  s.t_translate <- s.t_translate +. (now () -. t1);
  s.t_tier0 <- s.t_tier0 +. (now () -. t1);
  let t2 = now () in
  let ra = Regalloc.run instrs in
  s.t_regalloc <- s.t_regalloc +. (now () -. t2);
  s.dead_marked <- s.dead_marked + ra.Regalloc.n_dead;
  s.spills <- s.spills + ra.Regalloc.n_spilled;
  back_end je acc req ~kind:0
    ~equiv:(if undefined then `Stub else `Block decoded)
    ~n_guest:(List.length decoded) ~cost instrs ra

(* Tier 0: the translation pipeline over the invocation DAG. *)
let pipeline_front (je : jit_env) (acc : acc) (req : request) block : result =
  let dag = Dag.create (dag_config je ~mmu_on:req.rq_mmu) in
  let b = { em = Dag.emitter dag; raw = Dag.raw dag; finish = (fun () -> Dag.finish dag) } in
  block_front je acc req b ~cost:pipeline_cost block

(* Tier minus one: stitch per-instruction template fragments instead of
   running the pipeline.  [None] (the caller goes to the pipeline) when
   any instruction's form is untemplatable, a hole fails to patch, or
   the fabricated allocation fails [Verify]. *)
let template_front (e : t) (acc : acc) (req : request) (decoded, undefined) : result option =
  if undefined || decoded = [] then None
  else begin
    let s = acc.a_stats in
    let je = e.jenv in
    let t1 = now () in
    let tt = templates_of e in
    (* Look up (or mine, first time per form+pins) one fragment per
       decoded instruction; any miss sends the whole block cold. *)
    let rec gather frags = function
      | [] -> Some (List.rev frags)
      | d :: rest -> (
        let name = d.Adl.Decode.name in
        let action = Ssa.Offline.action je.je_guest.Ops.model name in
        let field = field_of ~el:req.rq_el d in
        match
          Hostir.Template.fragment tt ~action ~name ~inc_pc:(inc_pc je d) ~mmu_on:req.rq_mmu
            ~field
        with
        | Hostir.Template.Hit f -> gather ((f, field) :: frags) rest
        | Hostir.Template.Mined f ->
          s.templates_mined <- s.templates_mined + 1;
          gather ((f, field) :: frags) rest
        | Hostir.Template.Miss _ ->
          s.template_misses <- s.template_misses + 1;
          Hashtbl.replace e.template_miss name
            (1 + (try Hashtbl.find e.template_miss name with Not_found -> 0));
          None)
    in
    let stitched = Option.bind (gather [] decoded) (Hostir.Template.assemble tt) in
    s.t_translate <- s.t_translate +. (now () -. t1);
    s.t_template <- s.t_template +. (now () -. t1);
    let res =
      Option.bind stitched (fun (pre, ra) ->
          try
            Some
              (back_end je acc req ~kind:2 ~equiv:(`Block decoded)
                 ~n_guest:(List.length decoded) ~cost:template_install_cost pre ra)
          with Hostir.Verify.Invalid _ -> None)
    in
    if Option.is_none res then s.template_fallback_blocks <- s.template_fallback_blocks + 1;
    res
  end

(* Tier 1: translate a region of blocks on one page as one unit.
   Intra-region control flow becomes a PC-compare dispatch per member,
   straightened into direct jumps where the target is static, with no
   per-block prologue.  Members keep their own tier-0 cache entries
   (the region replaces only the head's), so a mid-region exit falls
   back to block-at-a-time execution; every member entry begins with a
   [Poll] safepoint, so interrupts, regime changes (the poison
   register) and the run loop's cycle/block budgets are honoured at
   block granularity exactly like the baseline dispatch loop.  Reads
   nothing but [je] and [req], so it runs on a worker domain or inline
   on the vCPU.  Exceptions (a writeback-discipline violation from
   [Verify.check_wb_exn]) propagate to the caller; on the async path
   the pool hands them back as [Error]. *)
let region_front (je : jit_env) (req : request) : result =
  let acc = new_acc () in
  let s = acc.a_stats in
  let cfg = je.je_config in
  let el = req.rq_el in
  let t1 = now () in
  let dag = Dag.create (dag_config je ~mmu_on:req.rq_mmu) in
  let em = Dag.emitter dag in
  let entries = List.map (fun md -> (md, em.Ssa.Emitter.create_block ())) req.rq_members in
  let entry_label va =
    List.find_map (fun (md, l) -> if Int64.equal md.md_va va then Some l else None) entries
  in
  let dispatch = ref [] in
  let n_guest = ref 0 in
  (* Per-member decode record, kept only when validation is on: enough
     for Hostir.Equiv to re-create the member/dispatch skeleton. *)
  let member_refs = ref [] in
  let keep_ref mr = if cfg.check then member_refs := mr :: !member_refs in
  List.iteri
    (fun mi (md, l) ->
      em.Ssa.Emitter.set_block l;
      Dag.raw dag (Hir.Poll 0);
      let decoded, undef = decode je req md in
      if undef || decoded = [] then begin
        (* cannot happen for an already-translated member; bail to the
           dispatcher rather than mistranslate *)
        keep_ref
          { Hostir.Equiv.mb_va = md.md_va; mb_items = []; mb_undef = true; mb_targets = [] };
        Dag.raw dag (Hir.Exit 0)
      end
      else begin
        n_guest := !n_guest + List.length decoded;
        List.iter (gen_insn je em ~el) decoded;
        (* Member epilogue: PC-compare dispatch to the profiled
           in-region successors, hottest first; anything else exits to
           the engine dispatcher. *)
        let l_d = em.Ssa.Emitter.create_block () in
        Dag.raw dag (Hir.Jmp l_d);
        em.Ssa.Emitter.set_block l_d;
        let targets =
          List.filter_map
            (fun va -> Option.map (fun lt -> (va, lt)) (entry_label va))
            md.md_succs
        in
        keep_ref
          {
            Hostir.Equiv.mb_va = md.md_va;
            mb_items = equiv_items je ~el decoded;
            mb_undef = false;
            mb_targets = List.map fst targets;
          };
        let pc = Dag.fresh_vreg dag in
        if targets <> [] then Dag.raw dag (Hir.Load_pc pc);
        let l_exit =
          List.fold_left
            (fun _ (va_t, lt) ->
              let c = Dag.fresh_vreg dag in
              Dag.raw dag (Hir.Setcc (Hir.Ceq, c, pc, Hir.Imm va_t));
              let l_next = em.Ssa.Emitter.create_block () in
              Dag.raw dag (Hir.Br (c, lt, l_next));
              em.Ssa.Emitter.set_block l_next;
              l_next)
            l_d targets
        in
        dispatch := (l_d, List.map fst targets, l_exit) :: !dispatch;
        (* Slot mi+1: this member's own exit site, labelled [l_exit],
           so the engine can patch a per-site chain edge (slot 0 =
           safepoint bail, never chained). *)
        Dag.raw dag (Hir.Exit (mi + 1))
      end)
    entries;
  let module P = Hostir.Pipeline in
  let env =
    {
      P.dispatch = !dispatch;
      member_entry = List.map (fun (md, l) -> (md.md_va, l)) entries;
      classify = Common.helper_kind;
      max_regs = promote_max_regs;
    }
  in
  (* Each pipeline count is the engine counter of the same name. *)
  let tally (st : P.state) = List.iter (fun (name, v) -> bump (count name) s v) st.P.counts in
  let shaped = P.run P.Shape env (P.start (Dag.finish dag)) in
  tally shaped;
  s.t_translate <- s.t_translate +. (now () -. t1);
  s.t_region <- s.t_region +. (now () -. t1);
  let t2 = now () in
  let t_simplify = ref 0. in
  let instrs, ra, promoted =
    if not cfg.promote then (shaped.P.instrs, Regalloc.run shaped.P.instrs, [])
    else begin
      (* Promotion widens live ranges across the whole region, and a
         promoted access through a spill slot costs more than the
         [Ldrf] it replaced — so promotion is only accepted when
         allocation stays spill-free relative to the unpromoted
         stream, narrowing the candidate set until it does.  Width 0
         still runs the promotion stage's cleanup and absint-simplify. *)
      let ra0 = Regalloc.run shaped.P.instrs in
      let rec attempt k =
        let pst = P.run P.Promote { env with max_regs = k } (P.start shaped.P.instrs) in
        let ts = now () in
        let sst = P.run P.Simplify env pst in
        t_simplify := !t_simplify +. (now () -. ts);
        let ra' = Regalloc.run sst.P.instrs in
        if ra'.Regalloc.n_spilled <= ra0.Regalloc.n_spilled then begin
          (* Always-on safety net: a region whose safepoint, exit or
             faulting access is reachable with an uncovered dirty
             promoted register would silently corrupt guest state.
             Checked on the promotion stage's output first — a
             promotion bug must surface here, before simplify's
             dead-code pass can delete the dirty definition that would
             incriminate it — and again on the simplified stream the
             engine actually runs. *)
          let wb_what pass = Printf.sprintf "%s pass=%s" (describe req) pass in
          let promoted = sst.P.promoted in
          Hostir.Verify.check_wb_exn ~what:(wb_what "promote") ~classify:Common.helper_kind
            ~promoted pst.P.instrs;
          Hostir.Verify.check_wb_exn ~what:(wb_what "absint-simplify")
            ~classify:Common.helper_kind ~promoted sst.P.instrs;
          tally sst;
          (sst.P.instrs, ra', promoted)
        end
        else if k = 0 then (shaped.P.instrs, ra0, [])
        else attempt (k - 1)
      in
      attempt promote_max_regs
    end
  in
  s.spills <- s.spills + ra.Regalloc.n_spilled;
  (* The simplify stage runs inside the allocation window; account it
     to the analysis phase so the bench breakdown separates them. *)
  s.t_regalloc <- s.t_regalloc +. (now () -. t2 -. !t_simplify);
  s.t_analyze <- s.t_analyze +. !t_simplify;
  back_end je acc req ~kind:1 ~equiv:(`Region (List.rev !member_refs))
    ~promoted ~n_guest:!n_guest ~cost:pipeline_cost instrs ra

(* --- relocation-cleanliness certification + persistent AOT cache ------------------- *)

(* Signature over everything that changes generated code for the same
   guest bytes: guest model identity (name, offline opt level, total SSA
   size) plus every config field the translator consults.  Two boots may
   exchange cache entries iff their signatures agree. *)
let aot_cfg_sig (e : t) : int64 =
  let c = e.config in
  Hostir.Reloc.hash64
    (Bytes.of_string
       (Printf.sprintf "%s|%d|%d|%d|%b|%b|%b|%b|%d|%d|%b|%d|%b" e.guest.Ops.name
          e.guest.Ops.model.Ssa.Offline.opt_level
          (Ssa.Offline.total_size e.guest.Ops.model)
          e.guest.Ops.insn_size c.hw_fp c.chaining c.pcid c.tiering
          c.hot_threshold region_max_blocks c.promote promote_max_regs c.templates))

(* The AOT front end: an entry of [kind] whose guest bytes match the
   request's and whose stored code re-certifies becomes the result a
   fresh translation would have produced.  A block entry matches when
   its bytes are a prefix of the request's; a region entry must cover
   exactly the members runtime profiling selected (same VAs, same
   lengths — member selection is deterministic because guest execution
   is).  A flagged or corrupted entry is rejected and the request falls
   through to the next candidate, then to translation.  The kind-2
   (template) probe leaves misses uncounted: the kind-0 probe behind it
   is the final cache fallback. *)
let aot_front (e : t) (acc : acc) (req : request) ~kind : result option =
  match e.aot with
  | None -> None
  | Some cache ->
    let s = acc.a_stats in
    let what = describe ~prefix:"aot " req in
    let matches (entry : Aotcache.entry) =
      let g = entry.Aotcache.e_guest in
      let len = Bytes.length g in
      if req.rq_region then
        entry.Aotcache.e_members
        = Array.of_list (List.map (fun md -> (md.md_va, md.md_len)) req.rq_members)
        && Bytes.equal g req.rq_guest
      else
        len > 0 && len <= Bytes.length req.rq_guest
        && Bytes.equal g (Bytes.sub req.rq_guest 0 len)
    in
    let load (entry : Aotcache.entry) =
      if not (matches entry) then None
      else
        let n_slots = entry.Aotcache.e_n_slots and n_host = entry.Aotcache.e_n_host in
        match
          certify e.jenv acc ~what ~region:req.rq_region ~n_exits:entry.Aotcache.e_n_exits ~n_slots
            entry.Aotcache.e_code
        with
        | None ->
          s.aot_rejects <- s.aot_rejects + 1;
          None
        | Some cert ->
          s.aot_hits <- s.aot_hits + 1;
          Some
            {
              r_kind = kind;
              r_fresh = false;
              r_program = Encode.decode_program ~n_slots entry.Aotcache.e_code;
              r_code = entry.Aotcache.e_code;
              r_cert = Some cert;
              r_n_guest = entry.Aotcache.e_n_guest;
              r_n_host = n_host;
              r_n_slots = n_slots;
              r_n_exits = entry.Aotcache.e_n_exits;
              r_cost = aot_load_cost ~n_host;
              r_acc = acc;
            }
    in
    let res =
      List.find_map load
        (Aotcache.candidates cache ~kind ~va:req.rq_va ~pa:req.rq_pa ~el:req.rq_el ~mmu:req.rq_mmu
           ~cfg:(aot_cfg_sig e))
    in
    if kind <> 2 && Option.is_none res then s.aot_misses <- s.aot_misses + 1;
    res

(* --- install ------------------------------------------------------------------------- *)

(* Install a result: the one place a translation record is built,
   published, page-protected, recorded with the sanitizer, charged and
   persisted.  A region result replaces its head ([replaces]) and
   promotes its [members]; a re-pipelined block replaces its template
   record.  Chain and exit edges into the replaced record are unlinked,
   so predecessors relink through the cache (one dispatch lookup) into
   the new code instead of chaining into the orphan forever.  An
   [async] result (finished on a worker domain) publishes only if its
   members' guest bytes are unchanged since the request was made and,
   through [publish_if], the page was not invalidated since [gen];
   otherwise it is dropped as stale and the head demoted so profiling
   can retry against the current bytes.  Returns the published record,
   [None] when stale. *)
let install ?(async = false) ?(gen = 0) ?replaces ?(members = []) (e : t) (req : request)
    (res : result) : translation option =
  let s = e.stats in
  let region = res.r_kind = 1 in
  let t0 = now () in
  let code = Exec.compile res.r_program in
  s.t_encode <- s.t_encode +. (now () -. t0);
  let tr =
    {
      t_key = key_of e ~va:req.rq_va ~pa:req.rq_pa ~el:req.rq_el ~mmu_on:req.rq_mmu;
      t_va = req.rq_va;
      t_code = code;
      t_n_guest = res.r_n_guest;
      t_n_host = res.r_n_host;
      t_chain = None;
      t_exec_count = 0;
      t_cycles = 0;
      t_tier = (match res.r_kind with 1 -> 1 | 2 -> -1 | _ -> 0);
      t_members = (if region then List.length members else 1);
      t_succs = [];
      t_exits = Array.make res.r_n_exits None;
    }
  in
  (* A region's head entry covers the whole unit: all members live on
     the head's page, so one SMC invalidation sweeps the region and
     every member, demoting the whole page to tier 0. *)
  let page = Bits.align_down req.rq_pa 4096 in
  let new_code_page = not (Codecache.holds_code e.cache page) in
  let published =
    if not async then begin
      Codecache.publish e.cache ~page tr.t_key tr;
      true
    end
    else
      Bytes.equal (guest_now e req) req.rq_guest
      && Codecache.publish_if e.cache ~page tr.t_key ~gen tr
  in
  if not published then begin
    s.jobs_stale <- s.jobs_stale + 1;
    Option.iter
      (fun head ->
        head.t_tier <- 0;
        head.t_exec_count <- 0)
      replaces;
    None
  end
  else begin
    merge e res.r_acc;
    if region then begin
      s.regions_formed <- s.regions_formed + 1;
      s.region_blocks <- s.region_blocks + List.length members;
      s.region_host_instrs <- s.region_host_instrs + res.r_n_host
    end
    else begin
      s.blocks_translated <- s.blocks_translated + 1;
      s.guest_instrs_translated <- s.guest_instrs_translated + res.r_n_guest;
      s.host_instrs_emitted <- s.host_instrs_emitted + res.r_n_host;
      s.host_bytes_emitted <- s.host_bytes_emitted + Bytes.length res.r_code;
      if res.r_kind = 2 then begin
        s.template_blocks <- s.template_blocks + 1;
        s.template_instrs <- s.template_instrs + res.r_n_guest
      end
    end;
    (* Translation-side cycle charge: wall-clock cycles the guest pays
       for JIT/AOT work, kept out of guest-visible device time so the
       guest's observable execution is identical whether its code was
       translated cold or installed warm.  The per-tier ledgers split
       template installs from the full pipeline; cycles a worker domain
       spent while the vCPU kept executing also land in the async
       sub-ledger. *)
    if async then begin
      Machine.charge_jit_async e.machine res.r_cost;
      s.jobs_installed <- s.jobs_installed + 1
    end
    else Machine.charge_jit e.machine res.r_cost;
    s.translate_cycles <- s.translate_cycles + res.r_cost;
    if res.r_kind = 2 then
      s.translate_cycles_template <- s.translate_cycles_template + res.r_cost
    else s.translate_cycles_pipeline <- s.translate_cycles_pipeline + res.r_cost;
    List.iter (fun m -> m.t_tier <- 1) members;
    if new_code_page && e.machine.Machine.paging then Fault.protect_page e page;
    Option.iter (fun old -> Fault.unlink e [ old ]) replaces;
    (* The guest bytes the result covers, per member: a block covers
       what it decoded, a region its members. *)
    let covered =
      if region then List.map (fun md -> (md, md.md_len)) req.rq_members
      else List.map (fun md -> (md, e.guest.Ops.insn_size * res.r_n_guest)) req.rq_members
    in
    (match e.sanitizer with
    | Some sa ->
      List.iter
        (fun (md, len) ->
          Hvm.Sanitize.record_translation sa ~mem:e.machine.Machine.mem
            ~pa:(member_pa req md.md_va) ~el:req.rq_el ~mmu:req.rq_mmu ~len)
        covered;
      if (not region) && s.blocks_translated mod sanitize_every = 0 then Fault.sanitize_check e ~reason:"periodic"
    | None -> ());
    (* Persistence of a fresh certified translation, keyed by the
       covered members' VAs and lengths: a warm boot reuses a region
       only when runtime profiling selects the identical member set.
       Undefined-instruction stubs cover no guest bytes, and regions
       whose members failed to re-decode cover fewer than their
       members, so neither is persisted. *)
    (match (e.aot, res.r_cert) with
    | Some cache, Some cert
      when res.r_fresh
           && List.for_all (fun (_, len) -> len > 0) covered
           && List.fold_left (fun a (_, len) -> a + len) 0 covered
              = e.guest.Ops.insn_size * res.r_n_guest ->
      Aotcache.store cache
        {
          Aotcache.e_kind = res.r_kind;
          e_va = req.rq_va;
          e_pa = req.rq_pa;
          e_el = req.rq_el;
          e_mmu = req.rq_mmu;
          e_cfg = aot_cfg_sig e;
          e_members = Array.of_list (List.map (fun (md, len) -> (md.md_va, len)) covered);
          e_guest =
            Bytes.concat Bytes.empty
              (List.map (fun (md, len) -> Bytes.sub req.rq_guest md.md_off len) covered);
          e_n_slots = res.r_n_slots;
          e_n_exits = res.r_n_exits;
          e_n_guest = res.r_n_guest;
          e_n_host = res.r_n_host;
          e_code = res.r_code;
          e_hash = cert.Hostir.Reloc.c_hash;
        };
      s.aot_stores <- s.aot_stores + 1
    | _ -> ());
    Some tr
  end

(* Translate and install one block: the AOT cache, then (with
   [templates] and [tiering]) the template tier, then the pipeline, or
   the QEMU-style baseline's front end for that engine.  [pipeline]
   skips the template tier — promotion re-translates a hot template
   block through the full pipeline — and [replaces] names the record
   the new one supersedes.  The block is decoded at most once,
   and not at all on an AOT hit. *)
let translate_block ?(pipeline = false) ?replaces (e : t) ~va ~pa ~el ~mmu_on : translation =
  let req = block_request e ~va ~pa ~el ~mmu_on in
  let acc = new_acc () in
  let s = acc.a_stats in
  let decoded =
    lazy
      (let t0 = now () in
       let d = decode e.jenv req (List.hd req.rq_members) in
       s.t_decode <- s.t_decode +. (now () -. t0);
       d)
  in
  let through_pipeline () =
    match (aot_front e acc req ~kind:0, e.baseline) with
    | Some res, _ -> res
    | None, None -> pipeline_front e.jenv acc req (Lazy.force decoded)
    | None, Some b -> block_front e.jenv acc req (b.emitter ~el) ~cost:b.cost (Lazy.force decoded)
  in
  let res =
    if e.config.templates && e.config.tiering && not pipeline then begin
      let t0 = now () in
      match aot_front e acc req ~kind:2 with
      | Some res ->
        s.t_template <- s.t_template +. (now () -. t0);
        res
      | None -> (
        match template_front e acc req (Lazy.force decoded) with
        | Some res -> res
        | None -> through_pipeline ())
    end
    else through_pipeline ()
  in
  Option.get (install ?replaces e req res)
