(* Host page faults, host mapping flushes and SMC invalidation. *)

open State

(* Make in-flight regions bail out at their next safepoint. *)
val poison_regions : t -> unit

(* One MMU-sanitizer checkpoint; free when [config.check] is off. *)
val sanitize_check : t -> reason:string -> unit

(* Drop every host mapping of the guest halves (the TLB-flush intercept). *)
val flush_host_mappings : t -> unit

(* Cut every chain and exit edge into the given records, and theirs. *)
val unlink : t -> translation list -> unit

(* SMC: drop a guest physical page's translations and pending jobs. *)
val invalidate_page : t -> int64 -> unit

(* Write-protect a guest physical page that now holds translated code. *)
val protect_page : t -> int64 -> unit

(* The executor's host-page-fault handler. *)
val handle_fault :
  t -> Exec.ctx -> Machine.access -> int64 -> bits:int -> value:int64 option -> Exec.fault_response
