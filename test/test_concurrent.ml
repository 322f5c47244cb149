(* Concurrent JIT and sharded code cache tests.

   Cache-level: a QCheck model test checks random publish / lookup /
   invalidate / conditional-publish sequences against a reference model
   — in particular that [publish_if] with a generation token taken
   before an [invalidate_page] is always refused (the SMC tombstone),
   and that no lookup ever serves a tombstoned entry.  A multi-domain
   test hammers one page from writer domains while the main domain
   invalidates, and asserts the linearizability invariant: any entry
   found after an invalidation was published with a generation token at
   least as new as that invalidation.

   Engine-level: SMC between job capture and install must reject the
   install (both the generation-tombstone path and the guest-byte
   re-check path); a multi-domain run of the MMU-stress workload must be
   guest-visibly equivalent to a single-domain run with zero sanitizer
   findings; and a single-domain engine must stay cycle-deterministic.

   Stats: the per-domain Counters shards must merge to exact totals. *)

module CC = Captive.Codecache
module CE = Captive.Engine
module MS = Workloads.Mmu_stress
module W = Workloads.Registry
module San = Hvm.Sanitize

(* --- model-based cache property ---------------------------------------- *)

(* Reference model: association table plus per-page generation counters.
   Keys live on 4 pages x 4 slots; each op is decoded from one int. *)
let test_cache_model =
  QCheck2.Test.make ~name:"sharded cache matches sequential model" ~count:300
    QCheck2.Gen.(pair (int_range 0 5) (list_size (int_range 1 150) (int_range 0 100_000)))
    (fun (shard_sel, ops) ->
      let cc = CC.create ~shards:(1 lsl shard_sel) () in
      let model : (CC.key, int) Hashtbl.t = Hashtbl.create 16 in
      let page_addr p = Int64.of_int (0x10000 + (p * 4096)) in
      let key_of p s = (Int64.add (page_addr p) (Int64.of_int (s * 64)), 1, false) in
      let model_drop_page p =
        let pg = page_addr p in
        Hashtbl.iter
          (fun ((pa, _, _) as k) _ ->
            if Int64.equal (Int64.logand pa (Int64.lognot 0xFFFL)) pg then
              Hashtbl.remove model k)
          (Hashtbl.copy model)
      in
      List.iter
        (fun x ->
          let p = x / 5 mod 4 and s = x / 20 mod 4 in
          let k = key_of p s in
          match x mod 5 with
          | 0 ->
            CC.publish cc k x;
            Hashtbl.replace model k x
          | 1 ->
            let n_model =
              Hashtbl.fold
                (fun ((pa, _, _) : CC.key) _ n ->
                  if Int64.equal (Int64.logand pa (Int64.lognot 0xFFFL)) (page_addr p) then
                    n + 1
                  else n)
                model 0
            in
            let removed = CC.invalidate_page cc (page_addr p) in
            if List.length removed <> n_model then
              QCheck2.Test.fail_report "invalidate removed wrong count";
            model_drop_page p
          | 2 ->
            if CC.lookup cc k <> Hashtbl.find_opt model k then
              QCheck2.Test.fail_report "lookup disagrees with model"
          | 3 ->
            (* fresh token: taken now, used now — must install *)
            let g = CC.page_gen cc (page_addr p) in
            if not (CC.publish_if cc k ~gen:g x) then
              QCheck2.Test.fail_report "fresh publish_if refused";
            Hashtbl.replace model k x
          | _ ->
            (* stale token: page invalidated between take and use — the
               SMC tombstone must refuse the install *)
            let g = CC.page_gen cc (page_addr p) in
            ignore (CC.invalidate_page cc (page_addr p));
            model_drop_page p;
            if CC.publish_if cc k ~gen:g x then
              QCheck2.Test.fail_report "stale publish_if installed";
            if CC.lookup cc k <> None then
              QCheck2.Test.fail_report "tombstoned entry served")
        ops;
      if CC.length cc <> Hashtbl.length model then
        QCheck2.Test.fail_report "length disagrees with model";
      Hashtbl.iter
        (fun k v ->
          if CC.lookup cc k <> Some v then
            QCheck2.Test.fail_report "final lookup disagrees with model")
        model;
      true)

(* --- multi-domain cache interleavings ----------------------------------- *)

(* Writer domains race [page_gen]+[publish_if] against the main domain's
   [invalidate_page]; each published value is the generation token it
   was installed under.  Because the token check and the map update are
   one CAS, any entry observed after an invalidation that bumped the
   generation to G must carry a token >= G — i.e. no interleaving
   publishes pre-invalidation (pre-SMC) code past the tombstone.  One
   shard maximizes contention. *)
let test_cache_domains () =
  let cc : int CC.t = CC.create ~shards:1 () in
  let page = 0x7000L in
  let key = (Int64.add page 0x40L, 1, false) in
  let stop = Atomic.make false in
  let writers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              let g = CC.page_gen cc page in
              ignore (CC.publish_if cc key ~gen:g g)
            done))
  in
  let violations = ref 0 in
  for _ = 1 to 20_000 do
    let g_before = CC.page_gen cc page in
    ignore (CC.invalidate_page cc page);
    (* generation is now at least g_before + 1 *)
    match CC.lookup cc key with
    | Some token when token < g_before + 1 -> incr violations
    | _ -> ()
  done;
  Atomic.set stop true;
  List.iter Domain.join writers;
  Alcotest.(check int) "no pre-invalidation token ever served" 0 !violations

(* --- engine: SMC between job capture and install ------------------------ *)

let run_arm_stress config = W.boot ~config (W.arm_mmu.W.w_program ())

(* A populated engine plus one plain tier-0 block to build a job from. *)
let engine_with_head () =
  let e, code = run_arm_stress CE.default_config in
  Alcotest.(check int) "workload ran" MS.arm_expected_exit code;
  let head =
    CC.fold
      (fun _ tr acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if tr.CE.t_n_guest > 1 && tr.CE.t_members = 1 && Array.length tr.CE.t_exits = 0
          then Some tr
          else None)
      e.CE.cache None
  in
  match head with
  | Some head -> (e, head)
  | None -> Alcotest.fail "no tier-0 block in cache"

(* Install a finished job the way the run loop's drain does. *)
let install_async e (job : CE.region_job) res =
  ignore
    (CE.install ~async:true ~gen:job.CE.j_gen ~replaces:job.CE.j_head ~members:job.CE.j_members e
       job.CE.j_req res)

(* Generation path: the page is invalidated (SMC) while the job is
   notionally on a worker; the install must be refused by the
   [publish_if] tombstone even though the bytes were restored
   identically (the generation, not the content, is authoritative for
   entries removed from the cache). *)
let test_smc_in_flight_generation () =
  let e, head = engine_with_head () in
  let members, _ = CE.select_members e head in
  let job = CE.make_region_job e ~head ~members in
  let pa_page = Int64.logand job.CE.j_req.CE.rq_pa (Int64.lognot 0xFFFL) in
  let stale0 = e.CE.stats.CE.jobs_stale in
  CE.invalidate_page e pa_page;
  let res = CE.region_front e.CE.jenv job.CE.j_req in
  install_async e job res;
  Alcotest.(check int) "install counted stale" (stale0 + 1) e.CE.stats.CE.jobs_stale;
  Alcotest.(check bool) "stale region not served" true
    (CC.lookup e.CE.cache head.CE.t_key = None);
  Alcotest.(check int) "head demoted for re-profiling" 0 head.CE.t_tier

(* Byte path: the guest bytes under the job change without an
   invalidation reaching the cache (generation unchanged), so only the
   install-time comparison against the request's copy of the bytes can
   catch it — a translation of pre-SMC bytes must never install. *)
let test_smc_in_flight_hash () =
  let e, head = engine_with_head () in
  let members, _ = CE.select_members e head in
  let job = CE.make_region_job e ~head ~members in
  let res = CE.region_front e.CE.jenv job.CE.j_req in
  let pa_head, _, _ = head.CE.t_key in
  (* raw write: bypasses phys_write and thus the invalidate hook *)
  let mem = e.CE.machine.Hvm.Machine.mem in
  Hvm.Mem.write8 mem pa_head (Int64.logxor (Hvm.Mem.read8 mem pa_head) 0xFFL);
  let stale0 = e.CE.stats.CE.jobs_stale in
  install_async e job res;
  Alcotest.(check int) "install counted stale" (stale0 + 1) e.CE.stats.CE.jobs_stale

(* Control: with neither SMC path triggered, the same job installs. *)
let test_in_flight_clean_installs () =
  let e, head = engine_with_head () in
  let members, _ = CE.select_members e head in
  let job = CE.make_region_job e ~head ~members in
  let res = CE.region_front e.CE.jenv job.CE.j_req in
  let installed0 = e.CE.stats.CE.jobs_installed in
  install_async e job res;
  Alcotest.(check int) "install counted" (installed0 + 1) e.CE.stats.CE.jobs_installed;
  (match CC.lookup e.CE.cache head.CE.t_key with
  | Some tr -> Alcotest.(check int) "region published" (List.length members) tr.CE.t_members
  | None -> Alcotest.fail "region not published")

(* --- engine: multi-domain equivalence and determinism ------------------- *)

let stress_config ~domains ~seed =
  {
    CE.default_config with
    CE.sanitize = true;
    hot_threshold = 4;
    domains;
    stress_seed = seed;
  }

let test_multi_domain_equivalence () =
  let e1, code1 = run_arm_stress (stress_config ~domains:1 ~seed:None) in
  List.iter
    (fun seed ->
      let e3, code3 =
        run_arm_stress (stress_config ~domains:3 ~seed:(Some (Int64.of_int seed)))
      in
      Alcotest.(check int) "same exit code" code1 code3;
      Alcotest.(check string) "same uart output" (CE.uart_output e1) (CE.uart_output e3);
      CE.sanitize_check e3 ~reason:"final";
      match e3.CE.sanitizer with
      | Some s ->
        List.iter (fun f -> print_endline (San.string_of_finding f)) (San.findings s);
        Alcotest.(check bool) "no sanitizer findings" true (San.ok s)
      | None -> Alcotest.fail "sanitizer missing")
    [ 1; 2; 3 ]

let test_single_domain_determinism () =
  let e_a, code_a = run_arm_stress CE.default_config in
  let e_b, code_b = run_arm_stress CE.default_config in
  Alcotest.(check int) "same exit" code_a code_b;
  Alcotest.(check int) "same cycles" (CE.cycles e_a) (CE.cycles e_b);
  Alcotest.(check int) "same exec cycles" (CE.exec_cycles e_a) (CE.exec_cycles e_b);
  Alcotest.(check int) "same jit cycles" (CE.jit_cycles e_a) (CE.jit_cycles e_b);
  Alcotest.(check int) "no async jit cycles at domains=1" 0 (CE.async_jit_cycles e_a)

(* --- stats: per-domain counter shards merge exactly --------------------- *)

let test_counters_merge () =
  let c = Dbt_util.Stats.Counters.create () in
  Dbt_util.Stats.Counters.bump c "hits";
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Dbt_util.Stats.Counters.bump c "hits"
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "merged total" 40_001 (Dbt_util.Stats.Counters.get c "hits")

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "concurrent",
    [
      q test_cache_model;
      Alcotest.test_case "cache under domain contention" `Slow test_cache_domains;
      Alcotest.test_case "SMC in flight: generation tombstone" `Slow
        test_smc_in_flight_generation;
      Alcotest.test_case "SMC in flight: guest-byte hash" `Slow test_smc_in_flight_hash;
      Alcotest.test_case "clean in-flight install" `Slow test_in_flight_clean_installs;
      Alcotest.test_case "multi-domain equivalence" `Slow test_multi_domain_equivalence;
      Alcotest.test_case "single-domain determinism" `Slow test_single_domain_determinism;
      Alcotest.test_case "counters merge across domains" `Quick test_counters_merge;
    ] )
