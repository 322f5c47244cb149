(* Memory-mapped peripherals of the guest platform, emulated by the
   KVM-side portion of the hypervisor (paper Sec. 2.3: "software emulations
   of guest architectural devices (such as the interrupt controller,
   UARTs, etc)"). *)

type t = {
  name : string;
  base : int64; (* guest-physical base address *)
  size : int;
  read : int -> int -> int64; (* offset, width-bits *)
  write : int -> int -> int64 -> unit; (* offset, width-bits, value *)
  tick : int -> unit; (* advance device time by n host cycles *)
  until_irq : unit -> int;
      (* device time that must pass before the device can next raise an
         interrupt line ([max_int]: not until it is accessed) *)
}

let never () = max_int

(* --- interrupt controller (GIC-lite) -------------------------------------- *)

module Intc = struct
  type state = {
    mutable pending : int;
    mutable enabled : int;
  }

  let create () = { pending = 0; enabled = 0 }

  let raise_line st line = st.pending <- st.pending lor (1 lsl line)
  let clear_line st line = st.pending <- st.pending land lnot (1 lsl line)
  let asserted st = st.pending land st.enabled <> 0

  (* First pending+enabled line, or -1. *)
  let active st =
    let masked = st.pending land st.enabled in
    if masked = 0 then -1
    else Int64.to_int (Int64.of_int (Dbt_util.Bits.ctz (Int64.of_int masked)))

  let device ?(base = 0x0900_0000L) (st : state) : t =
    {
      name = "intc";
      base;
      size = 0x1000;
      read =
        (fun off _ ->
          match off with
          | 0x0 -> Int64.of_int st.pending
          | 0x4 -> Int64.of_int st.enabled
          | 0x8 -> Int64.of_int (active st)
          | _ -> 0L);
      write =
        (fun off _ v ->
          match off with
          | 0x4 -> st.enabled <- Int64.to_int (Int64.logand v 0xFFFFFFFFL)
          | 0x8 -> clear_line st (Int64.to_int (Int64.logand v 31L))
          | 0xC -> raise_line st (Int64.to_int (Int64.logand v 31L)) (* software-set *)
          | _ -> ());
      tick = (fun _ -> ());
      until_irq = never;
    }
end

(* --- UART ------------------------------------------------------------------- *)

module Uart = struct
  type state = {
    output : Buffer.t;
    mutable input : int list; (* pending input bytes *)
  }

  let create () = { output = Buffer.create 256; input = [] }
  let push_input st s = st.input <- st.input @ List.map Char.code (List.init (String.length s) (String.get s))
  let output st = Buffer.contents st.output

  let device ?(base = 0x0910_0000L) (st : state) : t =
    {
      name = "uart";
      base;
      size = 0x1000;
      read =
        (fun off _ ->
          match off with
          | 0x0 -> (
            match st.input with
            | c :: rest ->
              st.input <- rest;
              Int64.of_int c
            | [] -> 0L)
          | 0x4 ->
            (* status: bit0 = tx ready (always), bit1 = rx available *)
            Int64.of_int (1 lor if st.input <> [] then 2 else 0)
          | _ -> 0L);
      write =
        (fun off _ v ->
          match off with
          | 0x0 -> Buffer.add_char st.output (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
          | _ -> ());
      tick = (fun _ -> ());
      until_irq = never;
    }
end

(* --- countdown timer ---------------------------------------------------------- *)

module Timer = struct
  type state = {
    intc : Intc.state;
    line : int;
    mutable load : int;
    mutable value : int;
    mutable enabled : bool;
    mutable irq_enabled : bool;
    mutable fired : int;
  }

  let create ?(line = 1) intc = { intc; line; load = 0; value = 0; enabled = false; irq_enabled = false; fired = 0 }

  let device ?(base = 0x0920_0000L) (st : state) : t =
    {
      name = "timer";
      base;
      size = 0x1000;
      read =
        (fun off _ ->
          match off with
          | 0x0 -> Int64.of_int st.load
          | 0x4 -> Int64.of_int st.value
          | 0x8 ->
            Int64.of_int ((if st.enabled then 1 else 0) lor if st.irq_enabled then 2 else 0)
          | 0xC -> Int64.of_int st.fired
          | _ -> 0L);
      write =
        (fun off _ v ->
          let v = Int64.to_int (Int64.logand v 0x7FFFFFFFL) in
          match off with
          | 0x0 ->
            st.load <- v;
            st.value <- v
          | 0x8 ->
            st.enabled <- v land 1 <> 0;
            st.irq_enabled <- v land 2 <> 0
          | 0xC -> Intc.clear_line st.intc st.line (* ack *)
          | _ -> ());
      tick =
        (fun n ->
          (* A loop, not a local recursive function: this runs on every
             interrupt poll and must not allocate. *)
          if st.enabled && st.load > 0 then begin
            let n = ref n in
            while !n > 0 do
              if st.value > !n then begin
                st.value <- st.value - !n;
                n := 0
              end
              else begin
                n := !n - st.value;
                st.fired <- st.fired + 1;
                if st.irq_enabled then Intc.raise_line st.intc st.line;
                st.value <- st.load
              end
            done
          end);
      (* [tick] raises the line once [value] cycles have passed, and no
         sooner, while the timer runs with its interrupt enabled. *)
      until_irq = (fun () -> if st.enabled && st.load > 0 && st.irq_enabled then st.value else max_int);
    }
end

(* --- system controller (poweroff) ----------------------------------------------- *)

module Syscon = struct
  type state = { mutable poweroff : bool; mutable exit_code : int }

  let create () = { poweroff = false; exit_code = 0 }

  let device ?(base = 0x0930_0000L) (st : state) : t =
    {
      name = "syscon";
      base;
      size = 0x1000;
      read = (fun _ _ -> 0L);
      write =
        (fun off _ v ->
          match off with
          | 0x0 ->
            st.poweroff <- true;
            st.exit_code <- Int64.to_int (Int64.logand v 0xFFL)
          | _ -> ());
      tick = (fun _ -> ());
      until_irq = never;
    }
end
