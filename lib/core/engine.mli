(* The Captive DBT hypervisor engine: create one for a guest, load an
   image, run it, read its counters.  The engine's record stays hidden
   behind [core]; only the counters, the machine and the executor
   context are read directly. *)

type config = State.config = {
  hw_fp : bool; (* hardware FP (Captive) vs softfloat helpers (Sec. 3.6.2) *)
  chaining : bool;
  pcid : bool; (* use PCIDs when switching address-space roots *)
  mem_size : int;
  tiering : bool; (* tiered translation: profile tier-0 blocks, form hot regions *)
  templates : bool;
      (* tier minus one: template-stitched cold translation (Hostir.Template);
         active only with [tiering], since promotion is what buys back code
         quality *)
  hot_threshold : int; (* executions of a tier-0 block before promotion *)
  promote : bool; (* region-scoped register promotion *)
  check : bool;
      (* the trust stack's observers, all on or all off: every translation
         passes the translate-time checkers of [checkers] (Hostir.Equiv,
         Hostir.Absint, Hostir.Reloc), and the shadow-oracle MMU sanitizer
         (Hvm.Sanitize) sweeps at every checkpoint.  They only observe:
         cycles and every counter no checker owns are the same either way. *)
  aot_dir : string option;
      (* persistent AOT translation cache directory: certified translations
         are stored here and reinstalled (guest bytes verified, certificate
         re-checked, chain/exit sites re-bound) instead of re-translated.
         Implies certification of every translation. *)
  domains : int;
      (* concurrent JIT (OCaml 5 domains): total domains the engine may use.
         1 = fully synchronous; N > 1 spawns N-1 JIT worker domains that run
         region-formation jobs while the vCPU keeps running tier-0 code.  Not
         part of the AOT config signature: the generated code is identical. *)
  stress_seed : int64 option;
      (* deterministic schedule jitter for the stress harness: seeds a PRNG
         that perturbs when completed translation jobs are drained and
         installed, widening the publish/invalidate race window without
         giving up reproducibility. *)
}

val default_config : config

(* The counters, one mutable field each.  A [t_*] field is seconds of
   host wall time; every other field is a count. *)
type phase_stats = Tally.phase_stats = {
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
  mutable region_dead_stores : int; (* always 0: the dead-store pass is gone; kept for perfbench *)
  mutable region_pc_writes_relativized : int; (* PC stores of known targets -> Inc_pc *)
  mutable region_dispatch_straightened : int; (* dispatch-bound edges sent to a member *)
  (* register promotion (Promote) *)
  mutable rf_promoted : int; (* register-file offsets promoted across regions *)
  mutable region_wb_entries : int; (* writeback-map entries across regions *)
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
  mutable absint_dead_deleted : int; (* cross-block dead definitions removed *)
  mutable absint_jumps_threaded : int; (* jumps removed by jump threading *)
  mutable absint_copies_retargeted : int; (* single-use temp/copy pairs merged *)
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

(* The counter table: every [phase_stats] field once, in declaration
   order, with its name and accessors; a [Time] is seconds, printed as
   [<name>_ms]. *)
type 'a entry = string * (phase_stats -> 'a) * (phase_stats -> 'a -> unit)

type counter = Tally.counter = Count of int entry | Time of float entry

val counters : counter list

(* The integer counters as (name, value), in declaration order. *)
val int_counters : phase_stats -> (string * int) list

(* Every counter as JSON object members, keys prefixed with [prefix]. *)
val counters_json : ?prefix:string -> phase_stats -> string

val new_phase_stats : unit -> phase_stats

(* [add_stats dst d] adds every counter of [d] into [dst]. *)
val add_stats : phase_stats -> phase_stats -> unit

(* The translate-time checkers and their entries in [counters]. *)
type checker = Tally.checker = Equiv | Absint | Reloc

type checker_entry = Tally.checker_entry = {
  ck : checker;
  ck_label : string;
  ck_blocks : int entry;
  ck_regions : int entry;
  ck_findings : int entry;
  ck_seconds : float entry;
  ck_clean_only : bool;
}

val checkers : checker_entry list

type core

type t = private { stats : phase_stats; machine : Hvm.Machine.t; ctx : Hostir.Exec.ctx; core : core }

type exit_reason = Dispatch.exit_reason = Poweroff of int | Cycle_limit | Block_limit

val create : ?config:config -> Guest.Ops.ops -> t

(* --- the QEMU-style baseline over the same dispatcher --- *)

(* A backend's emitter for one block: the generator-function callbacks,
   one raw host instruction, the finished stream. *)
type 'v block_emitter = 'v State.block_emitter = {
  em : 'v Ssa.Emitter.t;
  raw : Hostir.Hir.instr -> unit;
  finish : unit -> Hostir.Hir.instr array;
}

(* The baseline's front end: a fresh emitter for a block at an
   exception level, and the simulated translate cycles of a block. *)
type baseline = State.baseline = {
  emitter : el:int -> Hostir.Hir.operand block_emitter;
  cost : n_guest:int -> n_host:int -> int;
}

(* An engine of the QEMU-style design, run by the same [run]: its code
   cache is keyed by guest VA, it has no host paging, tiers, templates
   or promotion, and it translates through [baseline].  [helpers] are
   the design's helpers by index; halt, WFI, barrier and the softfloat
   helpers are the ones both designs share. *)
val create_baseline :
  chaining:bool -> baseline -> helpers:(int * Hostir.Exec.helper) list -> Guest.Ops.ops -> t

(* Drop every translation and the fetch itlb. *)
val flush_translations : t -> unit

(* Whether a translation lives on the guest-physical page. *)
val holds_code : t -> int64 -> bool

(* SMC invalidation of one guest-physical page: its translations go,
   and every chain edge into them is cut. *)
val invalidate_page : t -> int64 -> unit

(* Run until the guest powers off ([Poweroff]), the cycle count passes
   [max_cycles] ([Cycle_limit]) or more than [max_blocks] blocks have
   executed ([Block_limit]).  Region units check both limits at every
   member's safepoint. *)
val run : ?max_cycles:int -> ?max_blocks:int -> t -> exit_reason

(* Stop the worker pool (a no-op at [domains = 1]); it respawns on
   the next region job. *)
val shutdown : t -> unit

(* --- guest setup and results --- *)

val load_image : t -> addr:int64 -> bytes -> unit
val set_entry : t -> int64 -> unit
val uart_output : t -> string

(* [cycles] is the wall clock, [jit_cycles] its translation-side share,
   [exec_cycles] the guest-visible rest and [async_jit_cycles] the share
   of [jit_cycles] spent on worker domains. *)
val cycles : t -> int
val jit_cycles : t -> int
val exec_cycles : t -> int
val async_jit_cycles : t -> int

(* One checker's logged findings, [(what, detail)] in discovery order:
   the first [log_cap] of each checker; its counters keep exact totals. *)
val log_of : t -> checker -> (string * string) list

val log_cap : int

val aot_entry_count : t -> int

(* (translation VA, guest instrs, host instrs, executions, cycles, tier)
   for every cached translation. *)
val block_stats : t -> (int64 * int * int * int * int * int) list

(* Per-opcode template miss counts, heaviest first. *)
val template_miss_table : t -> (string * int) list

(* The MMU sanitizer ([Some] when [config.check]) and one checkpoint. *)
val sanitizer : t -> Hvm.Sanitize.t option
val sanitize_check : t -> reason:string -> unit

(* Internal state for tests that must reach past the interface: the
   SMC-versus-async-install races and the finding log's cap. *)
module Internal : sig
  (* A region-formation job as promotion captures it, and its result. *)
  type job
  type result

  (* A job headed by the first cached plain block of more than one
     guest instruction, if there is one. *)
  val job : t -> job option

  val head_pa : job -> int64
  val head_tier : job -> int
  val job_members : job -> int

  (* Translate the job as a worker domain would. *)
  val translate : t -> job -> result

  (* Install a finished job the way the run loop's drain does. *)
  val install : t -> job -> result -> unit

  (* Members of the translation published at the job's head, if any. *)
  val published_members : t -> job -> int option

  (* Log findings for one checker through the checker driver. *)
  val log_findings : t -> checker -> (string * string) list -> unit

  val timer : t -> Hvm.Device.Timer.state
end
