(* The Captive DBT hypervisor engine (paper Sec. 2.3, 2.4, 2.6, 2.7).

   - Translations are produced by the four-phase pipeline: decode ->
     translate (generator functions over the invocation DAG) -> register
     allocation -> encode; each phase is timed for Fig. 20.
   - The code cache is indexed by guest *physical* address (plus exception
     level and MMU regime); guest page-table changes do not invalidate it.
   - Guest page tables are mapped onto host page tables on demand by the
     host-page-fault handler; guest user code runs in host ring 3.
   - Two host page-table sets cover the guest's lower (TTBR0) and upper
     (TTBR1) address spaces; generated code checks the VA split and
     switches sets under distinct PCIDs (Sec. 2.7.5).
   - Self-modifying code is caught by write-protecting host mappings of
     guest pages that contain translated code (Sec. 2.6). *)

module Exec = Hostir.Exec
module Encode = Hostir.Encode
module Dag = Hostir.Dag
module Regalloc = Hostir.Regalloc
module Hir = Hostir.Hir
module Machine = Hvm.Machine
module Cost = Hvm.Cost
module Ops = Guest.Ops
module Bits = Dbt_util.Bits

type config = {
  hw_fp : bool; (* hardware FP (Captive) vs softfloat helpers (Sec. 3.6.2) *)
  chaining : bool;
  pcid : bool; (* use PCIDs when switching address-space roots *)
  split_va_check : bool; (* 64-bit guest address-space split handling *)
  mem_size : int;
  sanitize : bool; (* shadow-oracle MMU invariant checking (Hvm.Sanitize) *)
  tiering : bool; (* tiered translation: profile tier-0 blocks, form hot regions *)
  templates : bool; (* tier minus one: template-stitched cold translation
                       (Hostir.Template); active only with [tiering], since
                       promotion is what buys back code quality *)
  hot_threshold : int; (* executions of a tier-0 block before promotion *)
  promote : bool; (* region-scoped register promotion + memory redundancy elim *)
  (* symbolic translation validation (Hostir.Equiv): every accepted
     translation is re-derived as an unoptimized reference emission and
     checked for exit-point equivalence; any finding is a miscompile *)
  validate_translations : bool;
  (* static obligation checking (Hostir.Absint): every translation the
     engine produces is analyzed at translate time — register-file
     offsets in-bounds and aligned, spill slots inside the frame,
     promoted-register discipline and writeback coverage *)
  analyze_translations : bool;
  (* relocation-cleanliness certification (Hostir.Reloc): every encoded
     translation is analyzed at translate time — operands and control
     transfers classified relocatable or pinned, encoding determinism
     audited; any finding means the translation can't be persisted *)
  reloc_check : bool;
  (* persistent AOT translation cache directory: certified translations
     are stored here and reinstalled (guest bytes verified, certificate
     re-checked, chain/exit sites re-bound) instead of re-translated.
     Implies certification of every translation. *)
  aot_dir : string option;
  (* concurrent JIT (OCaml 5 domains): total domains the engine may use.
     1 = fully synchronous, bit-identical to the historical engine;
     N > 1 spawns N-1 JIT worker domains that execute region-formation
     jobs while the vCPU keeps running tier-0 code.  Not part of the
     AOT config signature: the generated code is identical either way. *)
  domains : int;
  (* deterministic schedule jitter for the stress harness: seeds a PRNG
     that perturbs when completed translation jobs are drained and
     installed, widening the publish/invalidate race window without
     giving up reproducibility. *)
  stress_seed : int64 option;
}

(* Maximum members in one region (all on one page), and register-file
   offsets cached per region by promotion. *)
let region_max_blocks = 8
let promote_max_regs = 4

(* With [sanitize], an extra periodic checkpoint every this many
   translated blocks. *)
let sanitize_every = 32

let default_config =
  {
    hw_fp = true;
    chaining = true;
    pcid = true;
    split_va_check = true;
    mem_size = 256 * 1024 * 1024;
    sanitize = false;
    tiering = true;
    templates = true;
    hot_threshold = 64;
    promote = true;
    validate_translations = false;
    analyze_translations = false;
    reloc_check = false;
    aot_dir = None;
    domains = 1;
    stress_seed = None;
  }

type phase_stats = {
  mutable t_decode : float;
  mutable t_translate : float;
  mutable t_regalloc : float;
  mutable t_encode : float;
  (* per-tier wall-time split of translation work: template stitching
     (tier -1), cold block pipeline (tier 0), region formation (tier 1);
     t_template covers mining + patching + stitching, the others cover
     the whole pipeline pass for their tier *)
  mutable t_template : float;
  mutable t_tier0 : float;
  mutable t_region : float;
  mutable blocks_translated : int;
  mutable guest_instrs_translated : int;
  mutable host_instrs_emitted : int;
  mutable host_bytes_emitted : int;
  mutable dead_marked : int;
  mutable spills : int;
  mutable blocks_executed : int;
  mutable chain_hits : int;
  mutable smc_invalidations : int;
  (* tiered translation *)
  mutable promotions : int; (* tier-0 blocks that crossed the hotness threshold *)
  mutable regions_formed : int; (* multi-block region translations built *)
  mutable region_blocks : int; (* total member blocks across formed regions *)
  mutable region_host_instrs : int; (* host instrs emitted for region units *)
  mutable region_entries : int; (* dispatches that entered a region unit *)
  mutable region_block_execs : int; (* member blocks executed inside regions *)
  mutable region_dead_stores : int; (* cross-block dead register-file stores removed *)
  (* register promotion / memory redundancy elimination (Promote) *)
  mutable rf_promoted : int; (* register-file offsets promoted across regions *)
  mutable region_wb_entries : int; (* writeback-map entries across regions *)
  mutable mem_loads_elided : int; (* Mem_lds satisfied by a previous load *)
  mutable stores_forwarded : int; (* Mem_lds satisfied by a previous store *)
  (* symbolic translation validation (Hostir.Equiv) *)
  mutable t_validate : float;
  mutable blocks_validated : int; (* tier-0 blocks checked against the oracle *)
  mutable regions_validated : int; (* tier-1 regions checked against the oracle *)
  mutable validation_findings : int; (* equivalence divergences (miscompiles) *)
  mutable validations_bounded : int; (* checks that hit a path/step bound *)
  (* static obligation checking + absint-simplify (Hostir.Absint) *)
  mutable t_analyze : float;
  mutable blocks_analyzed : int; (* tier-0 blocks obligation-checked *)
  mutable regions_analyzed : int; (* tier-1 regions obligation-checked *)
  mutable obligation_findings : int; (* static obligation violations *)
  mutable absint_branches_folded : int; (* Br with decided condition -> Jmp *)
  mutable absint_consts_folded : int; (* pure results proved constant *)
  mutable absint_masks_dropped : int; (* redundant masks/extensions elided *)
  mutable absint_divs_reduced : int; (* unsigned div/rem by 2^k reduced *)
  mutable absint_dead_deleted : int; (* cross-block dead definitions removed *)
  (* relocation-cleanliness certification (Hostir.Reloc) *)
  mutable t_reloc : float;
  mutable translate_cycles : int; (* simulated cycles charged to translation/AOT *)
  (* per-tier ledger split of [translate_cycles]: template installs
     (stitch + patch + kind-2 AOT loads) vs the full pipeline (cold
     blocks, regions, kind-0/1 AOT loads); the two always sum to
     [translate_cycles] *)
  mutable translate_cycles_template : int;
  mutable translate_cycles_pipeline : int;
  (* template tier (Hostir.Template) *)
  mutable template_blocks : int; (* blocks installed by template stitching *)
  mutable template_instrs : int; (* guest instructions those blocks cover *)
  mutable template_misses : int; (* instructions with no usable template *)
  mutable template_fallback_blocks : int; (* blocks that fell back to the cold pipeline *)
  mutable templates_mined : int; (* template variants mined this run *)
  mutable blocks_certified : int; (* tier-0 blocks certified relocation-clean *)
  mutable regions_certified : int; (* region units certified relocation-clean *)
  mutable reloc_findings : int; (* relocation-cleanliness violations *)
  (* persistent AOT translation cache (Aotcache) *)
  mutable aot_hits : int; (* translations installed from the cache *)
  mutable aot_misses : int; (* sites with no reusable entry *)
  mutable aot_stores : int; (* certified translations persisted *)
  mutable aot_rejects : int; (* disk entries refused (corrupt or flagged) *)
  (* concurrent JIT job accounting (domains > 1 only; all 0 when synchronous) *)
  mutable jobs_enqueued : int; (* region jobs handed to the worker pool *)
  mutable jobs_completed : int; (* worker results drained by the vCPU *)
  mutable jobs_installed : int; (* results published into the sharded cache *)
  mutable jobs_stale : int; (* results rejected at install: page generation or guest hash changed (SMC) *)
  mutable jobs_cancelled : int; (* queued jobs dropped by invalidate_page before a worker took them *)
  mutable jobs_dropped : int; (* enqueues refused because the bounded queue was full *)
}

let new_phase_stats () =
  {
    t_decode = 0.;
    t_translate = 0.;
    t_regalloc = 0.;
    t_encode = 0.;
    t_template = 0.;
    t_tier0 = 0.;
    t_region = 0.;
    blocks_translated = 0;
    guest_instrs_translated = 0;
    host_instrs_emitted = 0;
    host_bytes_emitted = 0;
    dead_marked = 0;
    spills = 0;
    blocks_executed = 0;
    chain_hits = 0;
    smc_invalidations = 0;
    promotions = 0;
    regions_formed = 0;
    region_blocks = 0;
    region_host_instrs = 0;
    region_entries = 0;
    region_block_execs = 0;
    region_dead_stores = 0;
    rf_promoted = 0;
    region_wb_entries = 0;
    mem_loads_elided = 0;
    stores_forwarded = 0;
    t_validate = 0.;
    blocks_validated = 0;
    regions_validated = 0;
    validation_findings = 0;
    validations_bounded = 0;
    t_analyze = 0.;
    blocks_analyzed = 0;
    regions_analyzed = 0;
    obligation_findings = 0;
    absint_branches_folded = 0;
    absint_consts_folded = 0;
    absint_masks_dropped = 0;
    absint_divs_reduced = 0;
    absint_dead_deleted = 0;
    t_reloc = 0.;
    translate_cycles = 0;
    translate_cycles_template = 0;
    translate_cycles_pipeline = 0;
    template_blocks = 0;
    template_instrs = 0;
    template_misses = 0;
    template_fallback_blocks = 0;
    templates_mined = 0;
    blocks_certified = 0;
    regions_certified = 0;
    reloc_findings = 0;
    aot_hits = 0;
    aot_misses = 0;
    aot_stores = 0;
    aot_rejects = 0;
    jobs_enqueued = 0;
    jobs_completed = 0;
    jobs_installed = 0;
    jobs_stale = 0;
    jobs_cancelled = 0;
    jobs_dropped = 0;
  }

(* The counter table: every [phase_stats] field once, in declaration
   order, with its name (JSON key and parity column), its kind (a count,
   or seconds printed as [<name>_ms]) and its accessors.  Merging, the
   parity rows and every JSON row are derived from it; only the record
   literal in [new_phase_stats] names the fields again. *)
type counter =
  | Count of string * (phase_stats -> int) * (phase_stats -> int -> unit)
  | Time of string * (phase_stats -> float) * (phase_stats -> float -> unit)

let counters =
  [
    Time ("t_decode", (fun s -> s.t_decode), fun s v -> s.t_decode <- v);
    Time ("t_translate", (fun s -> s.t_translate), fun s v -> s.t_translate <- v);
    Time ("t_regalloc", (fun s -> s.t_regalloc), fun s v -> s.t_regalloc <- v);
    Time ("t_encode", (fun s -> s.t_encode), fun s v -> s.t_encode <- v);
    Time ("t_template", (fun s -> s.t_template), fun s v -> s.t_template <- v);
    Time ("t_tier0", (fun s -> s.t_tier0), fun s v -> s.t_tier0 <- v);
    Time ("t_region", (fun s -> s.t_region), fun s v -> s.t_region <- v);
    Count ("blocks_translated", (fun s -> s.blocks_translated), fun s v -> s.blocks_translated <- v);
    Count ("guest_instrs_translated", (fun s -> s.guest_instrs_translated), fun s v -> s.guest_instrs_translated <- v);
    Count ("host_instrs_emitted", (fun s -> s.host_instrs_emitted), fun s v -> s.host_instrs_emitted <- v);
    Count ("host_bytes_emitted", (fun s -> s.host_bytes_emitted), fun s v -> s.host_bytes_emitted <- v);
    Count ("dead_marked", (fun s -> s.dead_marked), fun s v -> s.dead_marked <- v);
    Count ("spills", (fun s -> s.spills), fun s v -> s.spills <- v);
    Count ("blocks_executed", (fun s -> s.blocks_executed), fun s v -> s.blocks_executed <- v);
    Count ("chain_hits", (fun s -> s.chain_hits), fun s v -> s.chain_hits <- v);
    Count ("smc_invalidations", (fun s -> s.smc_invalidations), fun s v -> s.smc_invalidations <- v);
    Count ("promotions", (fun s -> s.promotions), fun s v -> s.promotions <- v);
    Count ("regions_formed", (fun s -> s.regions_formed), fun s v -> s.regions_formed <- v);
    Count ("region_blocks", (fun s -> s.region_blocks), fun s v -> s.region_blocks <- v);
    Count ("region_host_instrs", (fun s -> s.region_host_instrs), fun s v -> s.region_host_instrs <- v);
    Count ("region_entries", (fun s -> s.region_entries), fun s v -> s.region_entries <- v);
    Count ("region_block_execs", (fun s -> s.region_block_execs), fun s v -> s.region_block_execs <- v);
    Count ("region_dead_stores", (fun s -> s.region_dead_stores), fun s v -> s.region_dead_stores <- v);
    Count ("rf_promoted", (fun s -> s.rf_promoted), fun s v -> s.rf_promoted <- v);
    Count ("region_wb_entries", (fun s -> s.region_wb_entries), fun s v -> s.region_wb_entries <- v);
    Count ("mem_loads_elided", (fun s -> s.mem_loads_elided), fun s v -> s.mem_loads_elided <- v);
    Count ("stores_forwarded", (fun s -> s.stores_forwarded), fun s v -> s.stores_forwarded <- v);
    Time ("t_validate", (fun s -> s.t_validate), fun s v -> s.t_validate <- v);
    Count ("blocks_validated", (fun s -> s.blocks_validated), fun s v -> s.blocks_validated <- v);
    Count ("regions_validated", (fun s -> s.regions_validated), fun s v -> s.regions_validated <- v);
    Count ("validation_findings", (fun s -> s.validation_findings), fun s v -> s.validation_findings <- v);
    Count ("validations_bounded", (fun s -> s.validations_bounded), fun s v -> s.validations_bounded <- v);
    Time ("t_analyze", (fun s -> s.t_analyze), fun s v -> s.t_analyze <- v);
    Count ("blocks_analyzed", (fun s -> s.blocks_analyzed), fun s v -> s.blocks_analyzed <- v);
    Count ("regions_analyzed", (fun s -> s.regions_analyzed), fun s v -> s.regions_analyzed <- v);
    Count ("obligation_findings", (fun s -> s.obligation_findings), fun s v -> s.obligation_findings <- v);
    Count ("absint_branches_folded", (fun s -> s.absint_branches_folded), fun s v -> s.absint_branches_folded <- v);
    Count ("absint_consts_folded", (fun s -> s.absint_consts_folded), fun s v -> s.absint_consts_folded <- v);
    Count ("absint_masks_dropped", (fun s -> s.absint_masks_dropped), fun s v -> s.absint_masks_dropped <- v);
    Count ("absint_divs_reduced", (fun s -> s.absint_divs_reduced), fun s v -> s.absint_divs_reduced <- v);
    Count ("absint_dead_deleted", (fun s -> s.absint_dead_deleted), fun s v -> s.absint_dead_deleted <- v);
    Time ("t_reloc", (fun s -> s.t_reloc), fun s v -> s.t_reloc <- v);
    Count ("translate_cycles", (fun s -> s.translate_cycles), fun s v -> s.translate_cycles <- v);
    Count ("translate_cycles_template", (fun s -> s.translate_cycles_template), fun s v -> s.translate_cycles_template <- v);
    Count ("translate_cycles_pipeline", (fun s -> s.translate_cycles_pipeline), fun s v -> s.translate_cycles_pipeline <- v);
    Count ("template_blocks", (fun s -> s.template_blocks), fun s v -> s.template_blocks <- v);
    Count ("template_instrs", (fun s -> s.template_instrs), fun s v -> s.template_instrs <- v);
    Count ("template_misses", (fun s -> s.template_misses), fun s v -> s.template_misses <- v);
    Count ("template_fallback_blocks", (fun s -> s.template_fallback_blocks), fun s v -> s.template_fallback_blocks <- v);
    Count ("templates_mined", (fun s -> s.templates_mined), fun s v -> s.templates_mined <- v);
    Count ("blocks_certified", (fun s -> s.blocks_certified), fun s v -> s.blocks_certified <- v);
    Count ("regions_certified", (fun s -> s.regions_certified), fun s v -> s.regions_certified <- v);
    Count ("reloc_findings", (fun s -> s.reloc_findings), fun s v -> s.reloc_findings <- v);
    Count ("aot_hits", (fun s -> s.aot_hits), fun s v -> s.aot_hits <- v);
    Count ("aot_misses", (fun s -> s.aot_misses), fun s v -> s.aot_misses <- v);
    Count ("aot_stores", (fun s -> s.aot_stores), fun s v -> s.aot_stores <- v);
    Count ("aot_rejects", (fun s -> s.aot_rejects), fun s v -> s.aot_rejects <- v);
    Count ("jobs_enqueued", (fun s -> s.jobs_enqueued), fun s v -> s.jobs_enqueued <- v);
    Count ("jobs_completed", (fun s -> s.jobs_completed), fun s v -> s.jobs_completed <- v);
    Count ("jobs_installed", (fun s -> s.jobs_installed), fun s v -> s.jobs_installed <- v);
    Count ("jobs_stale", (fun s -> s.jobs_stale), fun s v -> s.jobs_stale <- v);
    Count ("jobs_cancelled", (fun s -> s.jobs_cancelled), fun s v -> s.jobs_cancelled <- v);
    Count ("jobs_dropped", (fun s -> s.jobs_dropped), fun s v -> s.jobs_dropped <- v);
  ]

(* Merge a stats delta that a pure translation job accumulated
   off-thread into the engine's totals.  Every counter is additive. *)
let add_stats (dst : phase_stats) (d : phase_stats) =
  List.iter
    (function
      | Count (_, get, set) -> set dst (get dst + get d)
      | Time (_, get, set) -> set dst (get dst +. get d))
    counters

(* The integer counters as (name, value), in declaration order. *)
let int_counters (s : phase_stats) =
  List.filter_map (function Count (n, get, _) -> Some (n, get s) | Time _ -> None) counters

(* Every counter as JSON object members ("key":value, comma-separated,
   no braces), keys prefixed with [prefix]; seconds print as
   milliseconds under [<name>_ms]. *)
let counters_json ?(prefix = "") (s : phase_stats) =
  String.concat ","
    (List.map
       (function
         | Count (n, get, _) -> Printf.sprintf "\"%s%s\":%d" prefix n (get s)
         | Time (n, get, _) -> Printf.sprintf "\"%s%s_ms\":%.2f" prefix n (1000. *. get s))
       counters)

type translation = {
  t_key : int64 * int * bool;
  t_va : int64; (* VA it was translated from (for per-block statistics) *)
  t_code : Exec.code; (* compiled once, at install *)
  t_n_guest : int;
  t_n_host : int;
  t_bytes : int;
  mutable t_chain : (int64 * int * translation) option; (* expected (va, el) -> target *)
  mutable t_exec_count : int;
  mutable t_cycles : int;
  (* tiered translation *)
  mutable t_tier : int;
      (* -1 = template-stitched block (profiled like tier 0);
         0 = profiled tier-0 block; 1 = promoted/region member *)
  t_members : int; (* 1 for plain blocks; number of member blocks for regions *)
  mutable t_succs : (int64 * int * int) list; (* bounded (va, el, count) profile *)
  (* Per-exit-site chain edges of a region unit, indexed by exit slot - 1:
     each member's dispatch chunk exits through its own slot, so each exit
     site patches to its own stable successor (classic trace-exit
     chaining) instead of flapping a single shared edge.  [||] for plain
     blocks, which keep the single [t_chain] edge. *)
  t_exits : (int64 * int * translation) option array;
}

(* --- translation requests and results ---------------------------------------------- *)

(* Blocks end after [max_block] guest instructions, at a block-ending
   instruction, at an undefined word, or at the page end. *)
let max_block = 64

(* Everything a tier may read besides its request: immutable
   configuration captured at engine creation.  A region job on a worker
   domain never touches the engine record, the machine, or live guest
   memory — translation is a function (request, config) -> result. *)
type jit_env = {
  je_guest : Ops.ops;
  je_config : config;
  je_n_helpers : int; (* helper symbol table size, for Reloc env bounds *)
  je_rf_bytes : int; (* guest register file size, for Reloc env bounds *)
}

(* One guest basic block of a request: its VA and the slice of the
   request's guest bytes its decode may read. *)
type member_desc = {
  md_va : int64;
  md_off : int; (* byte offset of the member's words in [rq_guest] *)
  md_len : int; (* bytes of [rq_guest] the member's decode may read *)
  md_succs : int64 list; (* profiled successor VAs, hottest first (regions) *)
}

(* A translation request: guest-PA site + EL/MMU regime in.  The guest
   bytes travel with the request, copied from guest memory when it is
   made, so no tier reads live memory and a region job stays pure while
   the vCPU keeps mutating guest memory.  A block request copies the
   words its decode can reach (at most [max_block], stopping at the page
   end); a region request copies its members' words, concatenated.
   Every member lives on the head's guest page. *)
type request = {
  rq_va : int64; (* head VA *)
  rq_pa : int64; (* head PA *)
  rq_el : int;
  rq_mmu : bool;
  rq_region : bool; (* one unit over [rq_members], one exit site per member *)
  rq_members : member_desc list;
  rq_guest : bytes;
}

(* The translate-time checkers that log findings ([Verify] raises
   instead), and one logged finding: its checker, the translation it
   concerns and the detail. *)
type checker = Equiv | Absint | Reloc

type finding = { fi_checker : checker; fi_what : string; fi_detail : string }

(* What one translation attempt accounts: a stats delta plus a capped
   finding log, merged into the engine when its result installs (or
   right away, for an AOT region probe that installed nothing). *)
type acc = { a_stats : phase_stats; mutable a_findings : finding list }

(* What every tier hands to [install].  [r_kind] is the AOT entry kind:
   0 = pipeline block, 1 = region unit, 2 = template-stitched block.  A
   result loaded from the AOT cache ([r_fresh = false]) is never stored
   back. *)
type result = {
  r_kind : int;
  r_fresh : bool;
  r_program : Encode.program;
  r_code : bytes;
  r_cert : Hostir.Reloc.certificate option;
  r_n_guest : int;
  r_n_host : int;
  r_n_slots : int;
  r_n_exits : int;
  r_cost : int; (* simulated translate cycles, charged at install *)
  r_acc : acc;
}

type job_outcome = R_ok of result | R_exn of exn

type region_job = {
  j_req : request; (* the pure part: all a worker reads *)
  j_head : translation; (* vCPU-side records, for install bookkeeping only *)
  j_members : translation list;
  j_gen : int; (* code-cache page generation at enqueue: the tombstone token *)
  mutable j_outcome : job_outcome option; (* written by the worker under the pool lock *)
}

(* Bounded work queue + completion list; one mutex covers both (the
   contention is one vCPU against a few workers at region-formation
   granularity). *)
type pool = {
  p_mu : Mutex.t;
  p_cv : Condition.t;
  mutable p_pending : region_job list; (* FIFO, newest last *)
  mutable p_done : region_job list; (* completion order, newest last *)
  mutable p_stop : bool;
  mutable p_domains : unit Domain.t list;
}

let job_queue_depth = 16

type t = {
  guest : Ops.ops;
  config : config;
  machine : Machine.t;
  mutable ctx : Exec.ctx;
  (* The code cache: PA-sharded, published-immutable (Codecache).  The
     vCPU is the only publisher and invalidator; worker domains never
     touch it — they hand results back and the vCPU installs them. *)
  cache : translation Codecache.t;
  protected : (int64, unit) Hashtbl.t; (* guest phys pages holding code *)
  mappings : (int64, (int * int64) list ref) Hashtbl.t; (* phys page -> (as, masked va page) *)
  roots : int64 array; (* host page-table roots: [|low; high|] *)
  mutable current_as : int;
  itlb : (int64 * int * bool, int64) Hashtbl.t; (* fetch va page -> pa page *)
  sanitizer : Hvm.Sanitize.t option;
  stats : phase_stats;
  (* devices *)
  uart : Hvm.Device.Uart.state;
  timer : Hvm.Device.Timer.state;
  syscon : Hvm.Device.Syscon.state;
  (* Optional fault/transition tracing for debugging guest bring-up.
     Per-engine so a traced run doesn't mute tracing for engines created
     later in the same process. *)
  tracing : bool;
  mutable trace_events : int;
  (* translate-time checkers *)
  mutable findings : finding list; (* every checker's, capped per checker *)
  aot : Aotcache.t option;
  (* concurrent JIT *)
  jenv : jit_env;
  mutable pool : pool option; (* spawned on first enqueue when domains > 1 *)
  stress_prng : Dbt_util.Prng.t option; (* drain-schedule jitter (stress_seed) *)
  (* template tier: the per-guest template table (mined lazily, on a
     form's first use) and the per-opcode miss table behind the
     coverage report *)
  mutable templates : Hostir.Template.t option;
  template_miss : (string, int) Hashtbl.t;
}

let now () = Unix.gettimeofday ()

let trace e fmt =
  if e.tracing && e.trace_events < 400 then begin
    e.trace_events <- e.trace_events + 1;
    Printf.eprintf fmt
  end
  else Printf.ifprintf stderr fmt

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

(* --- engine construction ------------------------------------------------------ *)

let as_tag_value = function 0 -> 0L | _ -> 0x1FFFFL (* va >> 47 for each half *)

let make_machine config =
  let intc = Hvm.Device.Intc.create () in
  let uart = Hvm.Device.Uart.create () in
  let timer = Hvm.Device.Timer.create intc in
  let syscon = Hvm.Device.Syscon.create () in
  let devices =
    [
      Hvm.Device.Intc.device intc;
      Hvm.Device.Uart.device uart;
      Hvm.Device.Timer.device timer;
      Hvm.Device.Syscon.device syscon;
    ]
  in
  let machine = Machine.create ~mem_size:config.mem_size ~devices ~intc () in
  (machine, uart, timer, syscon)

let lower_intrinsic config name : Dag.lowering =
  let is_fp = String.length name > 2 && (String.sub name 0 2 = "fp" || String.length name > 4 && String.sub name 0 4 = "sint" || String.sub name 0 4 = "uint") in
  if (not config.hw_fp) && is_fp then
    match Common.softfloat_index name with Some h -> Dag.L_helper h | None -> Dag.L_inline
  else Dag.L_inline

let rec create ?(config = default_config) (guest : Ops.ops) : t =
  let machine, uart, timer, syscon = make_machine config in
  machine.Machine.paging <- true;
  let roots = [| Hvm.Palloc.alloc machine.Machine.palloc; Hvm.Palloc.alloc machine.Machine.palloc |] in
  machine.Machine.cr3 <- roots.(0);
  let engine_ref = ref None in
  let engine () = Option.get !engine_ref in
  let sys ctx = Common.sys_ctx guest ctx in
  let charge_int ctx = Machine.charge ctx.Exec.machine Cost.soft_interrupt in
  let helpers = Array.make (Common.first_softfloat + List.length Common.softfloat_names)
      { Exec.fn = (fun _ _ -> 0L); cost = 0 } in
  helpers.(Common.h_coproc_read) <-
    { Exec.fn = (fun ctx args -> guest.Ops.coproc_read (sys ctx) args.(0)); cost = 30 };
  helpers.(Common.h_coproc_write) <-
    {
      Exec.fn =
        (fun ctx args ->
          charge_int ctx;
          (match guest.Ops.coproc_write (sys ctx) args.(0) args.(1) with
          | Ops.Ce_none -> ()
          | Ops.Ce_mmu_changed | Ops.Ce_tlb_flush ->
            let e = engine () in
            flush_host_mappings e);
          0L);
      cost = 30;
    };
  (* Guest exception entry/return is a direct transfer inside the
     ring-0 execution engine - no software interrupt needed. *)
  helpers.(Common.h_take_exception) <-
    {
      Exec.fn =
        (fun ctx args ->
          poison_regions (engine ());
          guest.Ops.take_exception (sys ctx) ~ec:args.(0) ~iss:args.(1);
          0L);
      cost = 60;
    };
  helpers.(Common.h_eret) <-
    {
      Exec.fn =
        (fun ctx _ ->
          poison_regions (engine ());
          guest.Ops.eret (sys ctx);
          0L);
      cost = 60;
    };
  helpers.(Common.h_tlb_flush) <-
    {
      Exec.fn =
        (fun ctx _ ->
          charge_int ctx;
          flush_host_mappings (engine ());
          0L);
      cost = 40;
    };
  helpers.(Common.h_tlb_flush_page) <-
    {
      Exec.fn =
        (fun ctx _args ->
          charge_int ctx;
          (* Single-page invalidation: conservatively flush everything. *)
          flush_host_mappings (engine ());
          0L);
      cost = 40;
    };
  helpers.(Common.h_halt) <- { Exec.fn = (fun _ _ -> raise (Machine.Powered_off 0)); cost = 0 };
  helpers.(Common.h_wfi) <-
    {
      Exec.fn =
        (fun ctx _ ->
          (* Fast-forward to the next timer event if one is pending. *)
          let e = engine () in
          let t = e.timer in
          if t.Hvm.Device.Timer.enabled && t.Hvm.Device.Timer.irq_enabled then
            Machine.charge ctx.Exec.machine (t.Hvm.Device.Timer.value + 1)
          else Machine.charge ctx.Exec.machine 1000;
          0L);
      cost = 10;
    };
  helpers.(Common.h_barrier) <- { Exec.fn = (fun _ _ -> 0L); cost = 0 };
  helpers.(Common.h_as_switch) <-
    {
      Exec.fn =
        (fun ctx args ->
          let e = engine () in
          let target_as = if args.(0) = 0L then 0 else 1 in
          e.current_as <- target_as;
          Machine.set_page_table ctx.Exec.machine ~root:e.roots.(target_as) ~pcid:target_as
            ~keep_tlb:e.config.pcid;
          Exec.set_reg ctx Dag.as_tag_preg (as_tag_value target_as);
          trace e "SWITCH as=%d pc=%Lx\n%!" target_as (Exec.get_pc ctx);
          0L);
      cost = 5;
    };
  List.iteri
    (fun i name -> helpers.(Common.first_softfloat + i) <- Common.softfloat_helper name)
    Common.softfloat_names;
  let fault_handler ctx access va ~bits ~value = handle_fault (engine ()) ctx access va ~bits ~value in
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
      protected = Hashtbl.create 64;
      mappings = Hashtbl.create 1024;
      roots;
      current_as = 0;
      itlb = Hashtbl.create 256;
      sanitizer = (if config.sanitize then Some (Hvm.Sanitize.create ()) else None);
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
  guest.Ops.reset (sys ctx) ~entry:0L;
  e

(* A regime change (exception entry/return, MMU/TLB state change, SMC
   invalidation) poisons in-flight regions: tier-1 region translations
   test this host flag at every member-entry safepoint and bail out to
   the dispatcher, which re-validates (EL, MMU regime) itself.  Cleared
   on every block entry. *)
and poison_regions (e : t) = Exec.set_reg e.ctx Hir.region_poison_preg 1L

(* Invalidate all host page-table mappings of the guest halves (the
   paper's TLB-flush intercept: clear the low 256 PML4 entries of each
   set and flush the host TLB). *)
and flush_host_mappings (e : t) =
  poison_regions e;
  Array.iter (fun root -> Hvm.Pagetable.clear_low_half e.machine.Machine.mem e.machine.Machine.palloc ~root) e.roots;
  Hvm.Tlb.flush_all e.machine.Machine.tlb;
  Machine.charge e.machine Cost.tlb_flush;
  Hashtbl.reset e.mappings;
  Hashtbl.reset e.itlb;
  (match e.sanitizer with Some s -> Hvm.Sanitize.record_clear_mappings s | None -> ());
  sanitize_check e ~reason:"flush"

(* Shadow-oracle checkpoint (config.sanitize): sweep the real MMU state
   against the sanitizer's shadow.  Free by construction when off. *)
and sanitize_check (e : t) ~reason =
  match e.sanitizer with
  | Some s ->
    Hvm.Sanitize.check s ~machine:e.machine ~roots:e.roots
      ~code_keys:(Some (Codecache.keys e.cache)) ~reason
  | None -> ()

(* --- host page fault handling (Sec. 2.7.3) --------------------------------------- *)

and device_of e pa = Machine.find_device e.machine pa

and invalidate_page e phys_page =
  poison_regions e;
  (* Cancel in-flight region jobs translating from this page: a pending
     job was enqueued against the pre-write bytes.  Jobs already running
     on a worker domain can't be stopped mid-flight — their install is
     rejected instead, by the page-generation tombstone ([publish_if])
     and the guest-byte re-check in [install]. *)
  (match e.pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.p_mu;
    let cancelled, kept =
      List.partition
        (fun j -> Int64.equal (Bits.align_down j.j_req.rq_pa 4096) phys_page)
        p.p_pending
    in
    p.p_pending <- kept;
    Mutex.unlock p.p_mu;
    e.stats.jobs_cancelled <- e.stats.jobs_cancelled + List.length cancelled);
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
  Hashtbl.remove e.protected phys_page;
  (match e.sanitizer with Some s -> Hvm.Sanitize.record_invalidate_page s ~pa_page:phys_page | None -> ());
  sanitize_check e ~reason:"invalidate"

and protect_page e phys_page =
  if not (Hashtbl.mem e.protected phys_page) then begin
    Hashtbl.replace e.protected phys_page ();
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
  end

and handle_fault (e : t) ctx (access : Machine.access) va ~bits ~value : Exec.fault_response =
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
    match device_of e pa with
    | Some d ->
      (* MMIO: emulated by the hypervisor (an exit from the HVM). *)
      Machine.charge e.machine Cost.soft_interrupt;
      Machine.sync_devices e.machine;
      let off = Int64.to_int (Int64.sub pa d.Hvm.Device.base) in
      (match access with
      | Machine.Write ->
        d.Hvm.Device.write off bits (Option.value value ~default:0L);
        Exec.Mmio_done
      | Machine.Read | Machine.Exec -> Exec.Mmio_value (d.Hvm.Device.read off bits))
    | None ->
      let phys_page = Bits.align_down pa 4096 in
      let va_page = Bits.align_down va 4096 in
      (* Self-modifying code: a permitted write to a protected code page
         invalidates that page's translations and restores write access. *)
      if access = Machine.Write && Hashtbl.mem e.protected phys_page then
        invalidate_page e phys_page;
      let writable = perms.Ops.pw && not (Hashtbl.mem e.protected phys_page) in
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

(* --- instruction fetch and translation requests ------------------------------------ *)

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
  {
    Dag.bank_offset = je.je_guest.Ops.bank_offset;
    slot_offset = je.je_guest.Ops.slot_offset;
    lower_intrinsic = lower_intrinsic je.je_config;
    effect_helper = Common.effect_helper_index;
    coproc_read_helper = Common.h_coproc_read;
    coproc_write_helper = Common.h_coproc_write;
    split_va_check = je.je_config.split_va_check && mmu_on;
    as_switch_helper = Common.h_as_switch;
  }

(* The per-guest template table, created on first use (the Dag config
   helpers above are not in scope at engine construction). *)
let templates_of (e : t) : Hostir.Template.t =
  match e.templates with
  | Some tt -> tt
  | None ->
    let tt =
      Hostir.Template.create
        ~config:(fun ~mmu_on -> dag_config e.jenv ~mmu_on)
        ~rf_bytes:e.jenv.je_rf_bytes ~insn_size:e.guest.Ops.insn_size
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

(* --- accounting: stats deltas and the capped finding log ------------------------------ *)

(* The finding log is capped per checker: counters keep exact totals,
   the log keeps each checker's first [log_cap] findings in discovery
   order. *)
let log_cap = 64

let append_capped (log : finding list) (extra : finding list) =
  List.fold_left
    (fun acc f ->
      let same = List.filter (fun g -> g.fi_checker = f.fi_checker) acc in
      if List.length same < log_cap then acc @ [ f ] else acc)
    log extra

let new_acc () = { a_stats = new_phase_stats (); a_findings = [] }

let merge (e : t) (acc : acc) =
  add_stats e.stats acc.a_stats;
  e.findings <- append_capped e.findings acc.a_findings

(* Count one checker's findings on one translation and log them:
   [(what, detail)] pairs, in discovery order. *)
let record_findings (acc : acc) checker (fs : (string * string) list) =
  let s = acc.a_stats and n = List.length fs in
  (match checker with
  | Equiv -> s.validation_findings <- s.validation_findings + n
  | Absint -> s.obligation_findings <- s.obligation_findings + n
  | Reloc -> s.reloc_findings <- s.reloc_findings + n);
  acc.a_findings <-
    append_capped acc.a_findings
      (List.map (fun (fi_what, fi_detail) -> { fi_checker = checker; fi_what; fi_detail }) fs)

(* One checker's counters: blocks and regions checked, findings,
   seconds. *)
let checker_stats (s : phase_stats) = function
  | Equiv -> (s.blocks_validated, s.regions_validated, s.validation_findings, s.t_validate)
  | Absint -> (s.blocks_analyzed, s.regions_analyzed, s.obligation_findings, s.t_analyze)
  | Reloc -> (s.blocks_certified, s.regions_certified, s.reloc_findings, s.t_reloc)

(* Account one Equiv outcome: counters, plus the logged findings (full
   detail, for the check subcommand's report). *)
let record_validation (acc : acc) ~what ~region (r : Hostir.Equiv.outcome) =
  let s = acc.a_stats in
  if region then s.regions_validated <- s.regions_validated + 1
  else s.blocks_validated <- s.blocks_validated + 1;
  if not r.Hostir.Equiv.complete then s.validations_bounded <- s.validations_bounded + 1;
  record_findings acc Equiv
    (List.map
       (fun (f : Hostir.Equiv.finding) ->
         (Printf.sprintf "%s: %s" what f.Hostir.Equiv.f_name, f.Hostir.Equiv.f_detail))
       r.Hostir.Equiv.findings)

(* Static obligation checking of one translation: the pre-allocation
   stream carries the register-file and writeback-discipline
   obligations, the allocated stream the spill-frame bounds. *)
let record_analysis (acc : acc) ~what ~region ~promoted ~(pre : Hir.instr array)
    (ra : Regalloc.result) =
  let s = acc.a_stats in
  let ta = now () in
  let findings =
    Hostir.Absint.check_translation ~classify:Common.helper_kind ~promoted pre
    @ Hostir.Absint.check_frame ~n_slots:ra.Regalloc.n_slots ra.Regalloc.instrs
  in
  if region then s.regions_analyzed <- s.regions_analyzed + 1
  else s.blocks_analyzed <- s.blocks_analyzed + 1;
  record_findings acc Absint
    (List.map (fun f -> (what, Hostir.Absint.finding_to_string f)) findings);
  s.t_analyze <- s.t_analyze +. (now () -. ta)

(* Certify one encoded translation relocation-clean (operand/control
   classification + encoding-determinism audit); [Some] carries the
   certificate the AOT cache persists. *)
let record_reloc (je : jit_env) (acc : acc) ~what ~region ~n_exits ~n_slots ?ra (code : bytes) :
    Hostir.Reloc.certificate option =
  let s = acc.a_stats in
  let t0 = now () in
  let env =
    { Hostir.Reloc.n_exits; n_helpers = je.je_n_helpers; n_slots; rf_bytes = je.je_rf_bytes }
  in
  let r = Hostir.Reloc.certify ~env ?ra code in
  (match r with
  | Ok _ ->
    if region then s.regions_certified <- s.regions_certified + 1
    else s.blocks_certified <- s.blocks_certified + 1
  | Error fs ->
    record_findings acc Reloc (List.map (fun f -> (what, Hostir.Reloc.finding_to_string f)) fs));
  s.t_reloc <- s.t_reloc +. (now () -. t0);
  match r with Ok c -> Some c | Error _ -> None

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
  (match equiv with
  | `Stub -> ()
  | (`Block _ | `Region _) as reference ->
    if cfg.validate_translations then begin
      let tv = now () in
      let config = dag_config je ~mmu_on:req.rq_mmu in
      let init_pc = Hostir.Symexec.Const req.rq_va in
      let classify = Common.helper_kind in
      let outcome =
        match reference with
        | `Block decoded ->
          Hostir.Equiv.check_block ~classify ~config ~init_pc ~opt:pre
            (equiv_items je ~el:req.rq_el decoded)
        | `Region members -> Hostir.Equiv.check_region ~classify ~config ~init_pc ~opt:pre members
      in
      record_validation acc ~what ~region outcome;
      s.t_validate <- s.t_validate +. (now () -. tv)
    end);
  if cfg.analyze_translations then record_analysis acc ~what ~region ~promoted ~pre ra;
  let t3 = now () in
  let code = Encode.encode ra in
  let program = Encode.decode_program ~n_slots:ra.Regalloc.n_slots code in
  s.t_encode <- s.t_encode +. (now () -. t3);
  let n_host = Array.length pre in
  let n_exits = if region then List.length req.rq_members else 0 in
  let cert =
    if cfg.reloc_check || cfg.aot_dir <> None then
      record_reloc je acc ~what ~region ~n_exits ~n_slots:ra.Regalloc.n_slots ~ra code
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

(* Tier 0: the translation pipeline over one decoded block — generator
   functions over the invocation DAG, then register allocation.  An
   undefined first instruction gets a cached stub that raises the
   guest's undefined-instruction exception. *)
let pipeline_front (je : jit_env) (acc : acc) (req : request) (decoded, undefined) :
    result =
  let s = acc.a_stats in
  let t1 = now () in
  let dag = Dag.create (dag_config je ~mmu_on:req.rq_mmu) in
  let em = Dag.emitter dag in
  if undefined then
    em.Ssa.Emitter.effect "take_exception" [ em.Ssa.Emitter.const 0L; em.Ssa.Emitter.const 0L ]
  else List.iter (gen_insn je em ~el:req.rq_el) decoded;
  Dag.raw dag (Hir.Exit 0);
  let instrs = Dag.finish dag in
  s.t_translate <- s.t_translate +. (now () -. t1);
  s.t_tier0 <- s.t_tier0 +. (now () -. t1);
  let t2 = now () in
  let ra = Regalloc.run instrs in
  s.t_regalloc <- s.t_regalloc +. (now () -. t2);
  s.dead_marked <- s.dead_marked + ra.Regalloc.n_dead;
  s.spills <- s.spills + ra.Regalloc.n_spilled;
  back_end je acc req ~kind:0
    ~equiv:(if undefined then `Stub else `Block decoded)
    ~n_guest:(List.length decoded) ~cost:pipeline_cost instrs ra

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
   per-block prologue and cross-block dead register-file stores
   eliminated.  Members keep their own tier-0 cache entries (the region
   replaces only the head's), so a mid-region exit falls back to
   block-at-a-time execution; every member entry begins with a [Poll]
   safepoint, so interrupts, regime changes (the poison register) and
   the run loop's cycle/block budgets are honoured at block granularity
   exactly like the baseline dispatch loop.  Reads nothing but [je] and
   [req], so it runs on a worker domain or inline on the vCPU.
   Exceptions (a writeback-discipline violation from
   [Verify.check_wb_exn]) propagate to the caller, which wraps them as
   [R_exn] on the async path. *)
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
  let dispatch_labels = ref Hostir.Region.Iset.empty in
  let n_guest = ref 0 in
  (* Per-member decode record, kept only when validation is on: enough
     for Hostir.Equiv to re-create the member/dispatch skeleton. *)
  let member_refs = ref [] in
  let keep_ref mr = if cfg.validate_translations then member_refs := mr :: !member_refs in
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
        dispatch_labels := Hostir.Region.Iset.add l_d !dispatch_labels;
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
        List.iter
          (fun (va_t, lt) ->
            let c = Dag.fresh_vreg dag in
            Dag.raw dag (Hir.Setcc (Hir.Ceq, c, pc, Hir.Imm va_t));
            let l_next = em.Ssa.Emitter.create_block () in
            Dag.raw dag (Hir.Br (c, lt, l_next));
            em.Ssa.Emitter.set_block l_next)
          targets;
        (* Slot mi+1: this member's own exit site, so the engine can
           patch a per-site chain edge (slot 0 = safepoint bail,
           never chained). *)
        Dag.raw dag (Hir.Exit (mi + 1))
      end)
    entries;
  let instrs = Dag.finish dag in
  let member_entry = List.map (fun (md, l) -> (md.md_va, l)) entries in
  let n0 = Array.length instrs in
  let instrs =
    Hostir.Region.optimize ~dispatch_labels:!dispatch_labels ~member_entry instrs
  in
  s.region_dead_stores <- s.region_dead_stores + (n0 - Array.length instrs);
  s.t_translate <- s.t_translate +. (now () -. t1);
  s.t_region <- s.t_region +. (now () -. t1);
  let t2 = now () in
  let t_simplify = ref 0. in
  let instrs, ra, promoted =
    if not cfg.promote then (instrs, Regalloc.run instrs, [])
    else begin
      (* Promotion widens live ranges across the whole region, and a
         promoted access through a spill slot costs more than the
         [Ldrf] it replaced — so promotion is only accepted when
         allocation stays spill-free relative to the unpromoted
         stream, narrowing the candidate set until it does.  Width 0
         still runs copy propagation and memory redundancy
         elimination. *)
      let ra0 = Regalloc.run instrs in
      let rec attempt k =
        let promoted_instrs, promoted, ps =
          Hostir.Promote.run ~max_regs:k ~classify:Common.helper_kind instrs
        in
        (* The O4 absint-simplify pass, on the flattened promoted
           stream where its facts materialize: fold decided branches,
           delete cross-block dead definitions, drop proved-redundant
           masks, strength-reduce division.  The writeback discipline
           is re-proved below on the simplified stream. *)
        let ts = now () in
        let instrs', ss = Hostir.Absint.simplify ~classify:Common.helper_kind promoted_instrs in
        t_simplify := !t_simplify +. (now () -. ts);
        let ra' = Regalloc.run instrs' in
        if ra'.Regalloc.n_spilled <= ra0.Regalloc.n_spilled then begin
          (* Always-on safety net: a region whose safepoint, exit or
             faulting access is reachable with an uncovered dirty
             promoted register would silently corrupt guest state.
             Checked on the promoter's own output first — a promotion
             bug must surface here, before simplify's dead-code pass
             can delete the dirty definition that would incriminate
             it — and again on the simplified stream the engine
             actually runs. *)
          let wb_what pass = Printf.sprintf "%s pass=%s" (describe req) pass in
          Hostir.Verify.check_wb_exn ~what:(wb_what "promote")
            ~classify:Common.helper_kind ~promoted promoted_instrs;
          Hostir.Verify.check_wb_exn ~what:(wb_what "absint-simplify")
            ~classify:Common.helper_kind ~promoted instrs';
          s.rf_promoted <- s.rf_promoted + ps.Hostir.Promote.promoted;
          s.region_wb_entries <- s.region_wb_entries + ps.Hostir.Promote.wb_entries;
          s.mem_loads_elided <- s.mem_loads_elided + ps.Hostir.Promote.loads_elided;
          s.stores_forwarded <- s.stores_forwarded + ps.Hostir.Promote.stores_forwarded;
          s.absint_branches_folded <-
            s.absint_branches_folded + ss.Hostir.Absint.branches_folded;
          s.absint_consts_folded <- s.absint_consts_folded + ss.Hostir.Absint.consts_folded;
          s.absint_masks_dropped <- s.absint_masks_dropped + ss.Hostir.Absint.masks_dropped;
          s.absint_divs_reduced <- s.absint_divs_reduced + ss.Hostir.Absint.divs_reduced;
          s.absint_dead_deleted <- s.absint_dead_deleted + ss.Hostir.Absint.dead_deleted;
          (instrs', ra', promoted)
        end
        else if k = 0 then (instrs, ra0, [])
        else attempt (k - 1)
      in
      attempt promote_max_regs
    end
  in
  s.spills <- s.spills + ra.Regalloc.n_spilled;
  (* The simplify pass runs inside the allocation window; account it
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
       (Printf.sprintf "%s|%d|%d|%d|%b|%b|%b|%b|%b|%d|%d|%b|%d|%b" e.guest.Ops.name
          e.guest.Ops.model.Ssa.Offline.opt_level
          (Ssa.Offline.total_size e.guest.Ops.model)
          e.guest.Ops.insn_size c.hw_fp c.chaining c.pcid c.split_va_check c.tiering
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
          record_reloc e.jenv acc ~what ~region:req.rq_region ~n_exits:entry.Aotcache.e_n_exits
            ~n_slots entry.Aotcache.e_code
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
      t_key = (req.rq_pa, req.rq_el, req.rq_mmu);
      t_va = req.rq_va;
      t_code = code;
      t_n_guest = res.r_n_guest;
      t_n_host = res.r_n_host;
      t_bytes = Bytes.length res.r_code;
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
  let published =
    if not async then begin
      Codecache.publish e.cache tr.t_key tr;
      true
    end
    else
      Bytes.equal (guest_now e req) req.rq_guest && Codecache.publish_if e.cache tr.t_key ~gen tr
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
    protect_page e (Bits.align_down req.rq_pa 4096);
    Option.iter (fun old -> unlink e [ old ]) replaces;
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
      if (not region) && s.blocks_translated mod sanitize_every = 0 then sanitize_check e ~reason:"periodic"
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
   [templates] and [tiering]) the template tier, then the pipeline.
   [pipeline] skips the template tier — promotion re-translates a hot
   template block through the full pipeline — and [replaces] names the
   record the new one supersedes.  The block is decoded at most once,
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
    match aot_front e acc req ~kind:0 with
    | Some res -> res
    | None ->
      pipeline_front e.jenv acc req (Lazy.force decoded)
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
          match Codecache.lookup e.cache (pa, el, mmu_on) with
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
    j_req = { req with rq_guest = guest_now e req };
    j_head = head;
    j_members = members;
    j_gen = Codecache.page_gen e.cache (Bits.align_down pa_head 4096);
    j_outcome = None;
  }

(* --- the worker pool ------------------------------------------------------------- *)

(* Worker-domain main loop: pop a job, run it pure, hand the outcome
   back under the pool lock.  Workers never touch the engine — the vCPU
   installs results from [drain_jobs] at dispatch granularity. *)
let rec worker_loop (je : jit_env) (p : pool) : unit =
  Mutex.lock p.p_mu;
  while p.p_pending = [] && not p.p_stop do
    Condition.wait p.p_cv p.p_mu
  done;
  match p.p_pending with
  | [] -> Mutex.unlock p.p_mu (* stopping *)
  | job :: rest ->
    p.p_pending <- rest;
    Mutex.unlock p.p_mu;
    let outcome = try R_ok (region_front je job.j_req) with exn -> R_exn exn in
    Mutex.lock p.p_mu;
    job.j_outcome <- Some outcome;
    p.p_done <- p.p_done @ [ job ];
    Mutex.unlock p.p_mu;
    worker_loop je p

(* The pool is spawned lazily on the first enqueue, so a [domains = 1]
   engine (and every engine until its first hot crossing) never pays
   for domain creation. *)
let ensure_pool (e : t) : pool =
  match e.pool with
  | Some p -> p
  | None ->
    let p =
      {
        p_mu = Mutex.create ();
        p_cv = Condition.create ();
        p_pending = [];
        p_done = [];
        p_stop = false;
        p_domains = [];
      }
    in
    let je = e.jenv in
    p.p_domains <-
      List.init (max 1 (e.config.domains - 1)) (fun _ -> Domain.spawn (fun () -> worker_loop je p));
    e.pool <- Some p;
    p

(* Queue a job for the worker pool.  The queue is bounded, so a burst
   of hot crossings cannot pile up unbounded translation work; a
   dropped job demotes the head (and takes back its promotion count),
   so the block re-crosses the threshold later and retries. *)
let enqueue_job (e : t) (job : region_job) : unit =
  let s = e.stats in
  let p = ensure_pool e in
  Mutex.lock p.p_mu;
  if List.length p.p_pending < job_queue_depth then begin
    p.p_pending <- p.p_pending @ [ job ];
    Condition.broadcast p.p_cv;
    Mutex.unlock p.p_mu;
    s.jobs_enqueued <- s.jobs_enqueued + 1
  end
  else begin
    Mutex.unlock p.p_mu;
    s.jobs_dropped <- s.jobs_dropped + 1;
    s.promotions <- s.promotions - 1;
    job.j_head.t_tier <- 0;
    job.j_head.t_exec_count <- 0
  end

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
    Mutex.lock p.p_mu;
    let avail = p.p_done in
    let n_avail = List.length avail in
    let n_take =
      match e.stress_prng with
      | None -> n_avail
      | Some rng ->
        if n_avail = 0 then 0
        else if Dbt_util.Prng.bool rng then 0 (* hold every completion this tick *)
        else Dbt_util.Prng.int rng (n_avail + 1)
    in
    let rec take n = function
      | x :: rest when n > 0 ->
        let a, b = take (n - 1) rest in
        (x :: a, b)
      | l -> ([], l)
    in
    let taken, rest = take n_take avail in
    p.p_done <- rest;
    Mutex.unlock p.p_mu;
    List.iter
      (fun job ->
        e.stats.jobs_completed <- e.stats.jobs_completed + 1;
        match job.j_outcome with
        | Some (R_ok res) ->
          ignore
            (install ~async:true ~gen:job.j_gen ~replaces:job.j_head ~members:job.j_members e
               job.j_req res)
        | Some (R_exn exn) -> raise exn
        | None -> assert false)
      taken

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
    match aot_front e acc job.j_req ~kind:1 with
    | Some res -> ignore (install ~replaces:head ~members e job.j_req res)
    | None ->
      merge e acc;
      if e.config.domains <= 1 then
        ignore (install ~replaces:head ~members e job.j_req (region_front e.jenv job.j_req))
      else enqueue_job e job
  end
  else if was_template then begin
    (* Its record stays published: the replacement inherits the
       profile at the promoted tier. *)
    let pa, el, mmu_on = head.t_key in
    let fresh = translate_block ~pipeline:true ~replaces:head e ~va:head.t_va ~pa ~el ~mmu_on in
    fresh.t_exec_count <- head.t_exec_count;
    fresh.t_succs <- head.t_succs;
    fresh.t_tier <- 1
  end

(* Stop the worker pool: discard pending jobs, join the domains.  Safe
   to call repeatedly and on a [domains = 1] engine (no-op); the pool
   respawns on the next enqueue. *)
let shutdown (e : t) : unit =
  match e.pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.p_mu;
    p.p_stop <- true;
    p.p_pending <- [];
    Condition.broadcast p.p_cv;
    Mutex.unlock p.p_mu;
    List.iter Domain.join p.p_domains;
    e.pool <- None

(* --- dispatch loop ------------------------------------------------------------------- *)

type exit_reason = Poweroff of int | Cycle_limit | Block_limit

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

let run ?(max_cycles = max_int) ?(max_blocks = max_int) (e : t) : exit_reason =
  let sys = Common.sys_ctx e.guest e.ctx in
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
           let key = (pa, el, mmu_on) in
           let tr =
             match Codecache.lookup e.cache key with
             | Some tr -> tr
             | None -> translate_block e ~va ~pa ~el ~mmu_on
           in
           prepare_as e va;
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
                      translated and the MMU regime is unchanged. *)
                   let mmu_on' = e.guest.Ops.mmu_enabled sys in
                   if mmu_on' = mmu_on && Int64.shift_right_logical next_va 47 = Int64.shift_right_logical va 47 then begin
                     match Hashtbl.find_opt e.itlb (Bits.align_down next_va 4096, next_el, mmu_on') with
                     | Some pa_page -> (
                       let npa = Int64.logor pa_page (Int64.logand next_va 0xFFFL) in
                       match Codecache.lookup e.cache (npa, next_el, mmu_on') with
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

(* --- guest setup utilities -------------------------------------------------------------- *)

let sys (e : t) = Common.sys_ctx e.guest e.ctx

let load_image (e : t) ~addr (image : bytes) = Hvm.Mem.blit_in e.machine.Machine.mem ~addr image

let set_entry (e : t) entry = e.guest.Ops.reset (sys e) ~entry

let uart_output (e : t) = Hvm.Device.Uart.output e.uart
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
    e.findings

let aot_entry_count (e : t) = match e.aot with Some c -> Aotcache.entry_count c | None -> 0

(* Per-translation execution statistics, for the Fig. 21 code-quality
   analysis: (translation VA, guest instrs, host instrs, executions,
   accumulated cycles, tier). *)
let block_stats (e : t) =
  Codecache.fold
    (fun _ tr acc ->
      (tr.t_va, tr.t_n_guest, tr.t_n_host, tr.t_exec_count, tr.t_cycles, tr.t_tier) :: acc)
    e.cache []

(* Per-opcode template miss counts, heaviest first (the [templates]
   subcommand's miss table). *)
let template_miss_table (e : t) : (string * int) list =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) e.template_miss []
  |> List.sort (fun (n1, c1) (n2, c2) ->
       if c1 <> c2 then compare c2 c1 else compare n1 n2)
