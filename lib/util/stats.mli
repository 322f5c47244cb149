(** Summary statistics for the benchmark harness, plus named counters
    for structured tool output. *)

(** Named integer counters preserving first-bump order; used by the
    lint driver to report per-category totals.

    Domain-safe: each domain accumulates into its own lazily-created
    shard ({!Domain.DLS}), so {!bump} is race-free and lock-free on the
    hot path; reads ({!get}, {!to_list}, {!report}, {!to_json}) merge
    all shards.  Single-domain output is identical to the historical
    one-table implementation. *)
module Counters : sig
  type t

  val create : unit -> t
  val bump : ?by:int -> t -> string -> unit
  val get : t -> string -> int

  (** [(name, count)] pairs in first-bump order. *)
  val to_list : t -> (string * int) list

  (** Aligned multi-line rendering of {!to_list}. *)
  val report : t -> string

  (** One JSON object mapping counter names to totals, in first-bump
      order; consumed by [captive_run lint --json]. *)
  val to_json : t -> string
end

(** Quote and escape a string as a JSON string literal. *)
val json_string : string -> string

val mean : float list -> float

(** Geometric mean (the aggregate the paper reports for Figs. 17/18). *)
val geomean : float list -> float

(** Least-squares fit [y = a + b*x]; returns [(a, b)].  Used for the
    Fig. 21 log-log regression over per-block execution times.
    @raise Invalid_argument on fewer than two points. *)
val linear_regression : (float * float) list -> float * float
