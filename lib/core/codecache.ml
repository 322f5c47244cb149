(* PA-sharded, published-immutable code cache (the concurrent-JIT
   successor to the engine's single-owner Hashtbl).

   The cache is split into N shards by guest-physical page, and every
   operation names the page its entry lives on: a key is a guest PA for
   Captive but a guest VA for the QEMU-style baseline, so the key alone
   does not say which page holds the code.  Each shard
   is one [Atomic.t] holding an immutable state record (persistent maps
   for the key index, the page index, and per-page invalidation
   generations).  Readers take a snapshot with a single [Atomic.get] and
   never lock; writers build the successor state functionally and swap
   it in with a CAS loop.  Cross-shard operations (iteration, key
   snapshots) read each shard's snapshot independently — they see a
   per-shard-consistent view, which is exactly the coherence the engine
   needs: a translation is either fully published or absent, never
   half-installed.

   SMC tombstoning rides on the per-page generation: every
   [invalidate_page] bumps the page's generation (whether or not any
   translation was registered), and a publisher holding a generation
   token from job-enqueue time uses [publish_if] — the install is
   refused if the page was invalidated in between, so a translation of
   pre-SMC guest bytes is never served. *)

type key = int64 * int * bool (* (guest PA or VA, exception level, mmu on) *)

module Kmap = Map.Make (struct
  type t = key

  let compare = compare
end)

module Pmap = Map.Make (Int64)

type 'a state = {
  map : 'a Kmap.t; (* key -> published translation *)
  pages : key list Pmap.t; (* phys page -> keys whose code lives on it *)
  gens : int Pmap.t; (* phys page -> invalidation generation *)
}

type 'a t = { shards : 'a state Atomic.t array; mask : int }

let empty_state = { map = Kmap.empty; pages = Pmap.empty; gens = Pmap.empty }

let create ?(shards = 16) () : 'a t =
  let n = max 1 shards in
  (* round up to a power of two so the shard index is a mask *)
  let rec pow2 p = if p >= n then p else pow2 (p * 2) in
  let n = pow2 1 in
  { shards = Array.init n (fun _ -> Atomic.make empty_state); mask = n - 1 }

let shard_of t page =
  t.shards.(Int64.to_int (Int64.shift_right_logical page 12) land t.mask)

(* CAS loop: apply [f] to the current state until the swap wins; returns
   [f]'s auxiliary result from the winning iteration. *)
let rec update (shard : 'a state Atomic.t) (f : 'a state -> 'a state * 'b) : 'b =
  let old = Atomic.get shard in
  let next, r = f old in
  if Atomic.compare_and_set shard old next then r else update shard f

let lookup t ~page key = Kmap.find_opt key (Atomic.get (shard_of t page)).map

let gen_of st page = Option.value ~default:0 (Pmap.find_opt page st.gens)
let page_gen t page = gen_of (Atomic.get (shard_of t page)) page

let add_key st ~page key v =
  let pages =
    if Kmap.mem key st.map then st.pages (* replacement: key already indexed *)
    else
      Pmap.update page
        (function Some l -> Some (key :: l) | None -> Some [ key ])
        st.pages
  in
  { st with map = Kmap.add key v st.map; pages }

let publish t ~page key v = update (shard_of t page) (fun st -> (add_key st ~page key v, ()))

(* Conditional publish: the caller holds a generation token for the
   code's page from when the translation job was enqueued; if the page
   was invalidated since (SMC), the install is refused and the stale
   code is dropped on the floor. *)
let publish_if t ~page key ~gen v =
  update (shard_of t page) (fun st ->
      if gen_of st page <> gen then (st, false) else (add_key st ~page key v, true))

let holds_code t page = Pmap.mem page (Atomic.get (shard_of t page)).pages

(* Remove every translation on [page] and bump the page's generation —
   unconditionally, so in-flight jobs for the page are tombstoned even
   when nothing was published yet.  Returns the removed entries so the
   engine can unlink chain edges into them. *)
let invalidate_page t page : 'a list =
  update (shard_of t page) (fun st ->
      let keys = Option.value ~default:[] (Pmap.find_opt page st.pages) in
      let removed = List.filter_map (fun k -> Kmap.find_opt k st.map) keys in
      let map = List.fold_left (fun m k -> Kmap.remove k m) st.map keys in
      let gens = Pmap.update page (fun g -> Some (1 + Option.value ~default:0 g)) st.gens in
      ({ map; pages = Pmap.remove page st.pages; gens }, removed))

(* Drop every translation; the generations stay, so a tombstone still
   refuses a job enqueued before the clear. *)
let clear t =
  Array.iter (fun sh -> update sh (fun st -> ({ st with map = Kmap.empty; pages = Pmap.empty }, ()))) t.shards

let iter f t = Array.iter (fun sh -> Kmap.iter f (Atomic.get sh).map) t.shards

let fold f t init =
  Array.fold_left (fun acc sh -> Kmap.fold f (Atomic.get sh).map acc) init t.shards

let keys t = fold (fun k _ acc -> k :: acc) t [] |> List.rev
let length t = fold (fun _ _ n -> n + 1) t 0
