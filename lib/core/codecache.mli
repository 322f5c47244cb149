(** PA-sharded, published-immutable code cache.

    The engine's code cache, restructured for concurrent JIT: keys are
    [(guest PA, exception level, mmu-on)] triples, entries are sharded
    by guest-physical page, and each shard is an {!Atomic.t} holding an
    immutable persistent-map state.  {!lookup} is lock-free (one atomic
    read + map find); {!publish} and {!invalidate_page} are shard-local
    CAS loops.  Per-page invalidation generations tombstone in-flight
    translation jobs: a publisher holding a generation token from
    enqueue time uses {!publish_if}, which refuses the install when the
    page was invalidated (SMC) in between. *)

type key = int64 * int * bool

type 'a t

(** [create ?shards ()] — [shards] is rounded up to a power of two
    (default 16). *)
val create : ?shards:int -> unit -> 'a t

(** Lock-free: one [Atomic.get] plus a persistent-map find. *)
val lookup : 'a t -> key -> 'a option

(** Unconditional publish (the synchronous engine path, and installs
    whose freshness the caller has already re-verified). *)
val publish : 'a t -> key -> 'a -> unit

(** [publish_if t key ~gen v] installs [v] iff the page's invalidation
    generation still equals [gen] (as read by {!page_gen} at enqueue
    time); returns whether the install happened. *)
val publish_if : 'a t -> key -> gen:int -> 'a -> bool

(** Current invalidation generation of a guest-physical page (0 until
    first invalidated). *)
val page_gen : 'a t -> int64 -> int

(** Remove every translation on the page, bump its generation
    (unconditionally — tombstoning in-flight jobs needs the bump even
    when nothing is published), and return the removed entries. *)
val invalidate_page : 'a t -> int64 -> 'a list

(** Iteration over per-shard snapshots: sees every entry published
    before the call on a quiescent cache; per-shard-consistent under
    concurrency. *)
val iter : (key -> 'a -> unit) -> 'a t -> unit

val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** All published keys (per-shard snapshot). *)
val keys : 'a t -> key list

val length : 'a t -> int
