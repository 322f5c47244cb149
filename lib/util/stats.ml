(* Summary statistics for the benchmark harness, plus named counters for
   structured tool output (the lint driver). *)

(* Quote and escape a string as a JSON string literal. *)
let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

module Counters = struct
  (* Counters are bumped from the vCPU and, since the concurrent-JIT
     engine, from worker domains (e.g. the sanitizer's work counters
     inside a checkpoint a worker triggered, or per-job accounting).
     Plain shared mutable ints would race, so each domain accumulates
     into its own shard — created lazily via [Domain.DLS] on the first
     bump in that domain and registered under a mutex — and reads merge
     the shards.  The hot path ([bump]) touches only domain-local state
     after the first access; single-domain usage degenerates to exactly
     the old one-Hashtbl behavior, preserving report/JSON output
     byte-for-byte. *)
  type shard = {
    tbl : (string, int) Hashtbl.t;
    mutable order : string list; (* first-bump order, newest first *)
  }

  type t = {
    key : shard Domain.DLS.key;
    mu : Mutex.t;
    shards : shard list ref; (* registration order, newest first *)
  }

  let create () =
    let mu = Mutex.create () in
    let shards = ref [] in
    let key =
      Domain.DLS.new_key (fun () ->
          let s = { tbl = Hashtbl.create 16; order = [] } in
          Mutex.lock mu;
          shards := s :: !shards;
          Mutex.unlock mu;
          s)
    in
    { key; mu; shards }

  let bump ?(by = 1) t name =
    let s = Domain.DLS.get t.key in
    match Hashtbl.find_opt s.tbl name with
    | Some v -> Hashtbl.replace s.tbl name (v + by)
    | None ->
      Hashtbl.replace s.tbl name by;
      s.order <- name :: s.order

  (* Merge every domain's shard: totals summed, names ordered by first
     bump (shards visited in registration order so a single-domain
     run's order is unchanged). *)
  let to_list t =
    Mutex.lock t.mu;
    let shards = List.rev !(t.shards) in
    Mutex.unlock t.mu;
    let totals = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun s ->
        List.iter
          (fun name ->
            let v = Option.value ~default:0 (Hashtbl.find_opt s.tbl name) in
            match Hashtbl.find_opt totals name with
            | Some v0 -> Hashtbl.replace totals name (v0 + v)
            | None ->
              Hashtbl.replace totals name v;
              order := name :: !order)
          (List.rev s.order))
      shards;
    List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

  let get t name =
    List.fold_left (fun acc (n, v) -> if n = name then acc + v else acc) 0 (to_list t)

  let report t =
    let items = to_list t in
    let w = List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 items in
    String.concat "" (List.map (fun (n, v) -> Printf.sprintf "  %-*s %d\n" w n v) items)

  let to_json t =
    Printf.sprintf "{%s}"
      (String.concat ","
         (List.map (fun (n, v) -> Printf.sprintf "%s:%d" (json_string n) v) (to_list t)))
end

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))

(* Least-squares fit y = a + b*x; returns (a, b). Used for the Fig. 21
   log-log regression over per-block execution times. *)
let linear_regression pts =
  let n = float_of_int (List.length pts) in
  if n < 2.0 then invalid_arg "Stats.linear_regression";
  let sx = List.fold_left (fun s (x, _) -> s +. x) 0.0 pts in
  let sy = List.fold_left (fun s (_, y) -> s +. y) 0.0 pts in
  let sxx = List.fold_left (fun s (x, _) -> s +. (x *. x)) 0.0 pts in
  let sxy = List.fold_left (fun s (x, y) -> s +. (x *. y)) 0.0 pts in
  let b = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
  let a = (sy -. (b *. sx)) /. n in
  (a, b)
