(* Physical memory of the host virtual machine.

   Little-endian, byte addressable.  Out-of-range accesses raise
   [Bus_error], which the machine surfaces like a hardware machine-check.
   The exception carries the access width and direction so that memory
   diagnostics (e.g. `captive_run mmucheck` findings) are actionable.

   Backing store is a page-sparse frame table, like host RAM that the
   host kernel faults in on first touch: one slot per 4 KiB frame, each
   starting as the shared [zero_frame].  Reads index the table directly;
   the first write to a frame swaps in a private copy.  Invariant:
   [zero_frame] is never written through, so every write goes via
   [frame_for_write].

   Frames are bigarrays, allocated outside the OCaml heap like guest RAM
   mapped into a hypervisor.  As [Bytes] they counted towards the major
   heap, and after a program that touched tens of MiB of RAM the GC's
   pacing, sized from that heap, let the next JIT-heavy program's
   garbage pile up for a whole slow cycle. *)

exception Bus_error of { addr : int64; bits : int; write : bool }

let () =
  Printexc.register_printer (function
    | Bus_error { addr; bits; write } ->
      Some
        (Printf.sprintf "Mem.Bus_error(%s of %d bits at 0x%Lx)"
           (if write then "write" else "read")
           bits addr)
    | _ -> None)

let frame_bits = 12
let frame_size = 1 lsl frame_bits
let frame_mask = frame_size - 1

type frame = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Unaligned native-endian accesses; the memory is little-endian. *)
external get16 : frame -> int -> int = "%caml_bigstring_get16u"
external get32 : frame -> int -> int32 = "%caml_bigstring_get32u"
external get64 : frame -> int -> int64 = "%caml_bigstring_get64u"
external set16 : frame -> int -> int -> unit = "%caml_bigstring_set16u"
external set32 : frame -> int -> int32 -> unit = "%caml_bigstring_set32u"
external set64 : frame -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Native <-> little-endian, in either direction. *)
let[@inline] le16 v = if Sys.big_endian then bswap16 v else v
let[@inline] le32 v = if Sys.big_endian then bswap32 v else v
let[@inline] le64 v = if Sys.big_endian then bswap64 v else v

let new_frame () =
  let f = Bigarray.Array1.create Bigarray.char Bigarray.c_layout frame_size in
  Bigarray.Array1.fill f '\000';
  f

let zero_frame = new_frame ()

type t = {
  frames : frame array;
  size : int;
}

let create size = { frames = Array.make ((size + frame_mask) lsr frame_bits) zero_frame; size }

let resident_frames t = Array.fold_left (fun n f -> if f == zero_frame then n else n + 1) 0 t.frames

let check t addr len ~write =
  let a = Int64.to_int addr in
  if addr < 0L || Int64.compare addr (Int64.of_int t.size) >= 0 || a + len > t.size then
    raise (Bus_error { addr; bits = 8 * len; write });
  a

(* [a] has passed [check], so the frame index is in range. *)
let[@inline] frame t a = Array.unsafe_get t.frames (a lsr frame_bits)

let alloc_frame t a =
  let f = new_frame () in
  Array.unsafe_set t.frames (a lsr frame_bits) f;
  f

let[@inline] frame_for_write t a =
  let f = frame t a in
  if f != zero_frame then f else alloc_frame t a

(* Byte-wise paths for an access of [len] bytes that crosses a frame
   boundary. *)
let slow_read t a len =
  let v = ref 0L in
  for i = len - 1 downto 0 do
    let b = a + i in
    let byte = Char.code (Bigarray.Array1.unsafe_get (frame t b) (b land frame_mask)) in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int byte)
  done;
  !v

let slow_write t a len v =
  for i = 0 to len - 1 do
    let b = a + i in
    let byte = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF in
    Bigarray.Array1.unsafe_set (frame_for_write t b) (b land frame_mask) (Char.chr byte)
  done

let read8 t addr =
  let a = check t addr 1 ~write:false in
  Int64.of_int (Char.code (Bigarray.Array1.unsafe_get (frame t a) (a land frame_mask)))

let write8 t addr v =
  let a = check t addr 1 ~write:true in
  Bigarray.Array1.unsafe_set (frame_for_write t a) (a land frame_mask) (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))

let read16 t addr =
  let a = check t addr 2 ~write:false in
  let o = a land frame_mask in
  if o <= frame_size - 2 then Int64.of_int (le16 (get16 (frame t a) o)) else slow_read t a 2

let write16 t addr v =
  let a = check t addr 2 ~write:true in
  let o = a land frame_mask in
  if o <= frame_size - 2 then set16 (frame_for_write t a) o (le16 (Int64.to_int (Int64.logand v 0xFFFFL)))
  else slow_write t a 2 v

let read32 t addr =
  let a = check t addr 4 ~write:false in
  let o = a land frame_mask in
  if o <= frame_size - 4 then Int64.logand (Int64.of_int32 (le32 (get32 (frame t a) o))) 0xFFFFFFFFL
  else slow_read t a 4

let write32 t addr v =
  let a = check t addr 4 ~write:true in
  let o = a land frame_mask in
  if o <= frame_size - 4 then set32 (frame_for_write t a) o (le32 (Int64.to_int32 v)) else slow_write t a 4 v

let read64 t addr =
  let a = check t addr 8 ~write:false in
  let o = a land frame_mask in
  if o <= frame_size - 8 then le64 (get64 (frame t a) o) else slow_read t a 8

let write64 t addr v =
  let a = check t addr 8 ~write:true in
  let o = a land frame_mask in
  if o <= frame_size - 8 then set64 (frame_for_write t a) o (le64 v) else slow_write t a 8 v

let read t ~bits addr =
  match bits with
  | 8 -> read8 t addr
  | 16 -> read16 t addr
  | 32 -> read32 t addr
  | 64 -> read64 t addr
  | _ -> invalid_arg "Mem.read: bad width"

let write t ~bits addr v =
  match bits with
  | 8 -> write8 t addr v
  | 16 -> write16 t addr v
  | 32 -> write32 t addr v
  | 64 -> write64 t addr v
  | _ -> invalid_arg "Mem.write: bad width"

(* Call [f a o n] for each frame-sized piece of [a, a + len): [a] is the
   piece's address, [o] its offset in the frame, [n] its length. *)
let iter_frames a len f =
  let stop = a + len in
  let rec go a =
    if a < stop then begin
      let o = a land frame_mask in
      let n = min (frame_size - o) (stop - a) in
      f a o n;
      go (a + n)
    end
  in
  go a

(* Bulk load (e.g. kernel images). *)
let blit_in t ~addr (src : Bytes.t) =
  let a0 = check t addr (Bytes.length src) ~write:true in
  iter_frames a0 (Bytes.length src) (fun a o n ->
      let f = frame_for_write t a in
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set f (o + i) (Bytes.unsafe_get src (a - a0 + i))
      done)

(* Untouched frames are skipped; fully covered frames go back to
   [zero_frame], so freed page-table and Palloc frames release memory. *)
let zero_range t ~addr ~len =
  let a0 = check t addr len ~write:true in
  iter_frames a0 len (fun a o n ->
      let f = frame t a in
      if f == zero_frame then ()
      else if n = frame_size then Array.unsafe_set t.frames (a lsr frame_bits) zero_frame
      else Bigarray.Array1.fill (Bigarray.Array1.sub f o n) '\000')
