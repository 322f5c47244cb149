(** Physical memory of the host virtual machine: little-endian, byte
    addressable.  Out-of-range accesses raise {!Bus_error}, surfaced by
    the machine like a hardware machine-check.  The payload carries the
    access width (in bits) and direction so memory diagnostics are
    actionable; a [Printexc] printer renders it readably.

    Storage is page-sparse: every 4 KiB frame starts as one shared,
    never-written zero frame and gets a private copy on its first
    write, so a fresh machine costs memory only for what it touches.
    Frames are bigarrays, outside the OCaml heap. *)

exception Bus_error of { addr : int64; bits : int; write : bool }

type t

(** [create size] is [size] bytes of zeroed memory. *)
val create : int -> t

(** Number of frames holding a private copy, i.e. written since they
    were last zeroed as a whole. *)
val resident_frames : t -> int

val read8 : t -> int64 -> int64
val write8 : t -> int64 -> int64 -> unit
val read16 : t -> int64 -> int64
val write16 : t -> int64 -> int64 -> unit
val read32 : t -> int64 -> int64
val write32 : t -> int64 -> int64 -> unit
val read64 : t -> int64 -> int64
val write64 : t -> int64 -> int64 -> unit

(** Width-dispatched access; [bits] is 8, 16, 32 or 64. *)
val read : t -> bits:int -> int64 -> int64

val write : t -> bits:int -> int64 -> int64 -> unit

(** {2 Frame access}

    For a caller that completes an access itself, such as the executor's
    memory fast path: it must already know that the access lies in RAM
    and inside one frame, because these accessors check neither. *)

type frame = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val frame_size : int

(** [frame t a] is the frame holding byte address [a], for reading; it
    may be the shared zero frame, which must not be written. *)
val frame : t -> int -> frame

(** [frame_for_write t a] is the frame holding byte address [a], first
    giving it a private copy if it is still the shared zero frame. *)
val frame_for_write : t -> int -> frame

(** Bulk load (kernel and user images). *)
val blit_in : t -> addr:int64 -> Bytes.t -> unit

(** Zero a range; frames it covers whole are released. *)
val zero_range : t -> addr:int64 -> len:int -> unit
