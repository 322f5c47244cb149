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
   [frame_for_write]. *)

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
let zero_frame = Bytes.make frame_size '\000'

type t = {
  frames : Bytes.t array;
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
  let f = Bytes.make frame_size '\000' in
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
    let byte = Char.code (Bytes.get (frame t b) (b land frame_mask)) in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int byte)
  done;
  !v

let slow_write t a len v =
  for i = 0 to len - 1 do
    let b = a + i in
    let byte = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF in
    Bytes.set (frame_for_write t b) (b land frame_mask) (Char.chr byte)
  done

let read8 t addr =
  let a = check t addr 1 ~write:false in
  Int64.of_int (Char.code (Bytes.get (frame t a) (a land frame_mask)))

let write8 t addr v =
  let a = check t addr 1 ~write:true in
  Bytes.set (frame_for_write t a) (a land frame_mask) (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))

let read16 t addr =
  let a = check t addr 2 ~write:false in
  let o = a land frame_mask in
  if o <= frame_size - 2 then Int64.of_int (Bytes.get_uint16_le (frame t a) o) else slow_read t a 2

let write16 t addr v =
  let a = check t addr 2 ~write:true in
  let o = a land frame_mask in
  if o <= frame_size - 2 then Bytes.set_uint16_le (frame_for_write t a) o (Int64.to_int (Int64.logand v 0xFFFFL))
  else slow_write t a 2 v

let read32 t addr =
  let a = check t addr 4 ~write:false in
  let o = a land frame_mask in
  if o <= frame_size - 4 then Int64.logand (Int64.of_int32 (Bytes.get_int32_le (frame t a) o)) 0xFFFFFFFFL
  else slow_read t a 4

let write32 t addr v =
  let a = check t addr 4 ~write:true in
  let o = a land frame_mask in
  if o <= frame_size - 4 then Bytes.set_int32_le (frame_for_write t a) o (Int64.to_int32 v) else slow_write t a 4 v

let read64 t addr =
  let a = check t addr 8 ~write:false in
  let o = a land frame_mask in
  if o <= frame_size - 8 then Bytes.get_int64_le (frame t a) o else slow_read t a 8

let write64 t addr v =
  let a = check t addr 8 ~write:true in
  let o = a land frame_mask in
  if o <= frame_size - 8 then Bytes.set_int64_le (frame_for_write t a) o v else slow_write t a 8 v

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
  iter_frames a0 (Bytes.length src) (fun a o n -> Bytes.blit src (a - a0) (frame_for_write t a) o n)

(* Untouched frames are skipped; fully covered frames go back to
   [zero_frame], so freed page-table and Palloc frames release memory. *)
let zero_range t ~addr ~len =
  let a0 = check t addr len ~write:true in
  iter_frames a0 len (fun a o n ->
      let f = frame t a in
      if f == zero_frame then ()
      else if n = frame_size then Array.unsafe_set t.frames (a lsr frame_bits) zero_frame
      else Bytes.fill f o n '\000')
