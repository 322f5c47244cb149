(* The engine's counters and finding log: the [phase_stats] record,
   the counter table every JSON row and merge is derived from, the
   translate-time checker table and its one driver, and the per-attempt
   accounting ([acc]) a translation job carries back to the vCPU. *)

let now () = Unix.gettimeofday ()

(* engine.mli documents each field. *)
type phase_stats = {
  mutable t_decode : float;
  mutable t_translate : float;
  mutable t_regalloc : float;
  mutable t_encode : float;
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
  mutable promotions : int;
  mutable regions_formed : int;
  mutable region_blocks : int;
  mutable region_host_instrs : int;
  mutable region_entries : int;
  mutable region_block_execs : int;
  mutable region_dead_stores : int;
  mutable region_pc_writes_relativized : int;
  mutable region_dispatch_straightened : int;
  mutable rf_promoted : int;
  mutable region_wb_entries : int;
  mutable t_validate : float;
  mutable blocks_validated : int;
  mutable regions_validated : int;
  mutable validation_findings : int;
  mutable validations_bounded : int;
  mutable t_analyze : float;
  mutable blocks_analyzed : int;
  mutable regions_analyzed : int;
  mutable obligation_findings : int;
  mutable absint_branches_folded : int;
  mutable absint_consts_folded : int;
  mutable absint_masks_dropped : int;
  mutable absint_dead_deleted : int;
  mutable absint_jumps_threaded : int;
  mutable absint_copies_retargeted : int;
  mutable t_reloc : float;
  mutable translate_cycles : int;
  mutable translate_cycles_template : int;
  mutable translate_cycles_pipeline : int;
  mutable template_blocks : int;
  mutable template_instrs : int;
  mutable template_misses : int;
  mutable template_fallback_blocks : int;
  mutable templates_mined : int;
  mutable blocks_certified : int;
  mutable regions_certified : int;
  mutable reloc_findings : int;
  mutable aot_hits : int;
  mutable aot_misses : int;
  mutable aot_stores : int;
  mutable aot_rejects : int;
  mutable jobs_enqueued : int;
  mutable jobs_completed : int;
  mutable jobs_installed : int;
  mutable jobs_stale : int;
  mutable jobs_cancelled : int;
  mutable jobs_dropped : int;
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
    region_pc_writes_relativized = 0;
    region_dispatch_straightened = 0;
    rf_promoted = 0;
    region_wb_entries = 0;
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
    absint_dead_deleted = 0;
    absint_jumps_threaded = 0;
    absint_copies_retargeted = 0;
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
type 'a entry = string * (phase_stats -> 'a) * (phase_stats -> 'a -> unit)

type counter = Count of int entry | Time of float entry

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
    Count ("region_pc_writes_relativized", (fun s -> s.region_pc_writes_relativized), fun s v -> s.region_pc_writes_relativized <- v);
    Count ("region_dispatch_straightened", (fun s -> s.region_dispatch_straightened), fun s v -> s.region_dispatch_straightened <- v);
    Count ("rf_promoted", (fun s -> s.rf_promoted), fun s v -> s.rf_promoted <- v);
    Count ("region_wb_entries", (fun s -> s.region_wb_entries), fun s v -> s.region_wb_entries <- v);
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
    Count ("absint_dead_deleted", (fun s -> s.absint_dead_deleted), fun s v -> s.absint_dead_deleted <- v);
    Count ("absint_jumps_threaded", (fun s -> s.absint_jumps_threaded), fun s v -> s.absint_jumps_threaded <- v);
    Count ("absint_copies_retargeted", (fun s -> s.absint_copies_retargeted), fun s v -> s.absint_copies_retargeted <- v);
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

let counter_name = function Count (n, _, _) | Time (n, _, _) -> n

(* A counter of the table by name, as a count or a timer. *)
let count name : int entry =
  match List.find (fun c -> counter_name c = name) counters with
  | Count c -> c
  | Time _ -> invalid_arg name

let timer name : float entry =
  match List.find (fun c -> counter_name c = name) counters with
  | Time c -> c
  | Count _ -> invalid_arg name

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

(* The translate-time checkers that log findings ([Verify] raises
   instead), and one logged finding: its checker, the translation it
   concerns and the detail. *)
type checker = Equiv | Absint | Reloc

type finding = { fi_checker : checker; fi_what : string; fi_detail : string }

(* What one translation attempt accounts: a stats delta plus a capped
   finding log, merged into the engine when its result installs (or
   right away, for an AOT region probe that installed nothing). *)
type acc = { a_stats : phase_stats; mutable a_findings : finding list }

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

(* The translate-time checkers, each declared once: its report label
   and its four entries in [counters] — translations checked as a block
   and as a region, findings, seconds.  Reloc counts a translation only
   when it certifies it clean, since only a clean one may be persisted;
   the others count every translation they check. *)
type checker_entry = {
  ck : checker;
  ck_label : string;
  ck_blocks : int entry;
  ck_regions : int entry;
  ck_findings : int entry;
  ck_seconds : float entry;
  ck_clean_only : bool;
}

let checkers =
  List.map
    (fun (ck, ck_label, b, r, f, t, ck_clean_only) ->
      {
        ck;
        ck_label;
        ck_blocks = count b;
        ck_regions = count r;
        ck_findings = count f;
        ck_seconds = timer t;
        ck_clean_only;
      })
    [
      (Equiv, "Equiv", "blocks_validated", "regions_validated", "validation_findings", "t_validate", false);
      (Absint, "Absint", "blocks_analyzed", "regions_analyzed", "obligation_findings", "t_analyze", false);
      (Reloc, "Reloc", "blocks_certified", "regions_certified", "reloc_findings", "t_reloc", true);
    ]

let bump ((_, get, set) : _ entry) s v = set s (get s + v)

(* The one checker driver: run [check] on one translation, time it,
   count the translation and log its findings, [(what, detail)] pairs
   in discovery order.  Returns [check]'s verdict. *)
let run_checker (acc : acc) checker ~region (check : unit -> (string * string) list * 'a) : 'a =
  let c = List.find (fun c -> c.ck = checker) checkers and s = acc.a_stats in
  let t0 = now () in
  let fs, verdict = check () in
  if fs = [] || not c.ck_clean_only then bump (if region then c.ck_regions else c.ck_blocks) s 1;
  bump c.ck_findings s (List.length fs);
  acc.a_findings <-
    append_capped acc.a_findings
      (List.map (fun (fi_what, fi_detail) -> { fi_checker = checker; fi_what; fi_detail }) fs);
  let _, get, set = c.ck_seconds in
  set s (get s +. (now () -. t0));
  verdict
