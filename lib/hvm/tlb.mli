(** Model of the host CPU's hardware TLB, with PCID tags.

    Direct-mapped by virtual page number: page [vpn] lives in slot
    [vpn land (size - 1)] of [entries].  Entries carry the PCID they
    were filled under; lookups hit only entries of the current PCID (or
    global ones), so switching page-table sets under PCIDs (paper
    Sec. 2.7.5) keeps both address spaces resident. *)

type entry = {
  mutable valid : bool;
  mutable vpn : int64;
  mutable pcid : int;
  mutable frame : int64;
  mutable writable : bool;
  mutable user : bool;
  mutable executable : bool;
  mutable global : bool;
}

type t = {
  entries : entry array;
  size : int;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

(** [size] (default 1024) must be a power of two. *)
val create : ?size:int -> unit -> t

(** Lookup; counts a hit or miss. *)
val lookup : t -> pcid:int -> int64 -> entry option

val insert : t -> pcid:int -> vpn:int64 -> frame:int64 -> flags:Pagetable.flags -> global:bool -> unit

val flush_all : t -> unit

(** Flush one PCID's non-global entries (a plain CR3 write). *)
val flush_pcid : t -> int -> unit

(** Invalidate any resident translation of one virtual page number —
    [invlpg] semantics: matches under {e every} PCID and also drops
    global entries.  (The TLB is direct-mapped, so the single slot for
    the VPN covers all PCIDs; aliasing entries for other VPNs in the
    same slot survive.) *)
val flush_page : t -> int64 -> unit
