(* The dispatch loop: run guest code until poweroff or a run limit. *)

open State

type exit_reason = Poweroff of int | Cycle_limit | Block_limit

(* Run until the guest powers off, the machine's cycle count passes
   [max_cycles], or more than [max_blocks] blocks have executed. *)
val run : ?max_cycles:int -> ?max_blocks:int -> t -> exit_reason

(* A hot block's region members (head first) and whether it self-loops. *)
val select_members : t -> translation -> translation list * bool

(* Capture the region-formation job promotion would translate. *)
val make_region_job : t -> head:translation -> members:translation list -> region_job

(* Install a finished job's result the way the run loop does. *)
val install_job : t -> region_job -> result -> unit
