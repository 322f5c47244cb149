(* Model of the host CPU's hardware TLB, with PCID tags.

   Direct-mapped by VPN.  Entries are tagged with the PCID they were filled
   under; a lookup only hits entries of the current PCID, so switching
   page-table sets with PCIDs (paper Sec. 2.7.5) keeps both address
   spaces' entries resident. *)

type entry = {
  mutable valid : bool;
  mutable vpn : int64;
  mutable pcid : int;
  mutable frame : int64; (* physical page base *)
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

let create ?(size = 1024) () =
  if size <= 0 || size land (size - 1) <> 0 then invalid_arg "Tlb.create: size must be a power of two";
  {
    entries =
      Array.init size (fun _ ->
          {
            valid = false;
            vpn = 0L;
            pcid = 0;
            frame = 0L;
            writable = false;
            user = false;
            executable = false;
            global = false;
          });
    size;
    hits = 0;
    misses = 0;
    flushes = 0;
  }

(* [size] is a power of two, so the slot is [vpn]'s low bits. *)
let slot t vpn = Int64.to_int vpn land (t.size - 1)

let lookup t ~pcid vpn =
  let e = t.entries.(slot t vpn) in
  if e.valid && e.vpn = vpn && (e.global || e.pcid = pcid) then begin
    t.hits <- t.hits + 1;
    Some e
  end
  else begin
    t.misses <- t.misses + 1;
    None
  end

let insert t ~pcid ~vpn ~frame ~(flags : Pagetable.flags) ~global =
  let e = t.entries.(slot t vpn) in
  e.valid <- true;
  e.vpn <- vpn;
  e.pcid <- pcid;
  e.frame <- frame;
  e.writable <- flags.Pagetable.writable;
  e.user <- flags.Pagetable.user;
  e.executable <- flags.Pagetable.executable;
  e.global <- global

let flush_all t =
  t.flushes <- t.flushes + 1;
  Array.iter (fun e -> e.valid <- false) t.entries

(* Flush entries of one PCID (mov cr3 without the no-flush bit). *)
let flush_pcid t pcid =
  t.flushes <- t.flushes + 1;
  Array.iter (fun e -> if e.pcid = pcid && not e.global then e.valid <- false) t.entries

(* invlpg semantics: PCID-blind and global-blind.  The invalidation
   deliberately ignores both [e.pcid] and [e.global] — `invlpg` drops
   matching translations for every PCID *and* global entries.  Because the
   TLB is direct-mapped by VPN, at most one entry for [vpn] can be resident
   (in slot [vpn mod size]), so checking that single slot covers every
   PCID.  An entry for a *different* VPN aliasing the same slot must
   survive, hence the [e.vpn = vpn] guard. *)
let flush_page t vpn =
  let e = t.entries.(slot t vpn) in
  if e.valid && e.vpn = vpn then e.valid <- false
