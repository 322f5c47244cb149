(* The JIT: requests in, installed translation records out. *)

open State

(* The members' guest bytes as they are in memory right now. *)
val guest_now : t -> request -> bytes

(* Merge one translation attempt's accounting into the engine. *)
val merge : t -> Tally.acc -> unit

(* Tier 1: translate a region request as one unit.  Reads nothing but
   the [jit_env] and the request, so it runs on a worker domain. *)
val region_front : jit_env -> request -> result

(* A reusable AOT-cache entry of [kind] for the request, if any. *)
val aot_front : t -> Tally.acc -> request -> kind:int -> result option

(* Publish a result: build its record, protect its page, charge its
   cycles, persist it.  [async] results are checked for staleness
   against [gen] and the current guest bytes; [None] when stale. *)
val install :
  ?async:bool ->
  ?gen:int ->
  ?replaces:translation ->
  ?members:translation list ->
  t ->
  request ->
  result ->
  translation option

(* Translate and install one block through the AOT cache, the template
   tier and the pipeline; [pipeline] skips the template tier. *)
val translate_block :
  ?pipeline:bool -> ?replaces:translation -> t -> va:int64 -> pa:int64 -> el:int -> mmu_on:bool ->
  translation
