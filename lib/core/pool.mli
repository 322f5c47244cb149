(* A bounded job queue served by worker domains: jobs go in at the
   back, workers run the pool's work function on them, and finished
   jobs wait on a completion list until the owner takes them.  The
   pool knows nothing of what a job is; the engine hands it the region
   translator and cancels pending jobs through [cancel]. *)

type ('a, 'b) t

(* [create ~workers ~depth work] spawns [workers] domains that run
   [work] on each queued job; at most [depth] jobs wait at a time. *)
val create : workers:int -> depth:int -> ('a -> 'b) -> ('a, 'b) t

(* Queue a job; [false] (nothing queued) when [depth] jobs already wait. *)
val submit : ('a, 'b) t -> 'a -> bool

(* Drop the waiting jobs that satisfy the predicate (a worker already
   running one cannot be stopped); returns how many were dropped. *)
val cancel : ('a, 'b) t -> ('a -> bool) -> int

(* Take the oldest [n avail] finished jobs, [avail] being how many are
   finished, each with its work function's value or exception. *)
val take : ('a, 'b) t -> (int -> int) -> ('a * ('b, exn) result) list

(* Discard waiting jobs and join the workers. *)
val stop : ('a, 'b) t -> unit
