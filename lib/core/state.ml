(* The types every engine module shares: the configuration, a
   translation record, a translation request and its result, a region
   job, and the engine's own state record [t]. *)

open Tally

module Exec = Hostir.Exec
module Encode = Hostir.Encode
module Dag = Hostir.Dag
module Regalloc = Hostir.Regalloc
module Hir = Hostir.Hir
module Machine = Hvm.Machine
module Cost = Hvm.Cost
module Ops = Guest.Ops
module Bits = Dbt_util.Bits

(* The engine configuration, in a structure of its own so Engine can
   re-export it whole; engine.mli documents each field. *)
module Config = struct
  type config = {
    hw_fp : bool;
    chaining : bool;
    pcid : bool;
    mem_size : int;
    tiering : bool;
    templates : bool;
    hot_threshold : int;
    promote : bool;
    check : bool;
    aot_dir : string option;
    domains : int;
    stress_seed : int64 option;
  }

  let default_config =
    {
      hw_fp = true;
      chaining = true;
      pcid = true;
      mem_size = 256 * 1024 * 1024;
      tiering = true;
      templates = true;
      hot_threshold = 64;
      promote = true;
      check = false;
      aot_dir = None;
      domains = 1;
      stress_seed = None;
    }
end

include Config

(* Maximum members in one region (all on one page), and register-file
   offsets cached per region by promotion. *)
let region_max_blocks = 8
let promote_max_regs = 4

(* With [check], an extra periodic sanitizer checkpoint every this many
   translated blocks. *)
let sanitize_every = 32

type translation = {
  t_key : int64 * int * bool;
  t_va : int64; (* VA it was translated from (for per-block statistics) *)
  t_code : Exec.code; (* compiled once, at install *)
  t_n_guest : int;
  t_n_host : int;
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

(* A region-formation job: the request a worker translates, plus the
   vCPU-side records and page generation its install checks. *)
type region_job = {
  j_req : request; (* the pure part: all a worker reads *)
  j_head : translation; (* vCPU-side records, for install bookkeeping only *)
  j_members : translation list;
  j_gen : int; (* code-cache page generation at enqueue: the tombstone token *)
}

(* The QEMU-style baseline's front end: a fresh emitter of its own
   backend for one block at an exception level, and its simulated
   translate cost.  The rest of that design is policy here: its cache
   is keyed by guest VA, it runs without host paging, tiers, templates
   or promotion, and its helpers flush every translation on a
   page-table or TLB change.  In a structure of its own so Engine can
   re-export it whole. *)
module Baseline = struct
  type 'v block_emitter = {
    em : 'v Ssa.Emitter.t;
    raw : Hir.instr -> unit;
    finish : unit -> Hir.instr array;
  }

  type baseline = {
    emitter : el:int -> Hir.operand block_emitter;
    cost : n_guest:int -> n_host:int -> int;
  }
end

include Baseline

type t = {
  guest : Ops.ops;
  config : config;
  machine : Machine.t;
  ctx : Exec.ctx;
  (* The code cache: PA-sharded, published-immutable (Codecache).  The
     vCPU is the only publisher and invalidator; worker domains never
     touch it — they hand results back and the vCPU installs them. *)
  cache : translation Codecache.t;
  baseline : baseline option; (* the QEMU-style design; [None] for Captive *)
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
  mutable pool : (region_job, result) Pool.t option; (* spawned on first enqueue when domains > 1 *)
  stress_prng : Dbt_util.Prng.t option; (* drain-schedule jitter (stress_seed) *)
  (* template tier: the per-guest template table (mined lazily, on a
     form's first use) and the per-opcode miss table behind the
     coverage report *)
  mutable templates : Hostir.Template.t option;
  template_miss : (string, int) Hashtbl.t;
}

let trace e fmt =
  if e.tracing && e.trace_events < 400 then begin
    e.trace_events <- e.trace_events + 1;
    Printf.eprintf fmt
  end
  else Printf.ifprintf stderr fmt

(* The code-cache key of a block: the guest PA for Captive, the VA for
   the baseline. *)
let key_of e ~va ~pa ~el ~mmu_on = ((if Option.is_some e.baseline then va else pa), el, mmu_on)

let as_tag_value = function 0 -> 0L | _ -> 0x1FFFFL (* va >> 47 for each half *)
