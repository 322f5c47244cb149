(* Minimal flat-JSON reader for the bench regression gate.

   The repo deliberately carries no JSON dependency; the bench baseline
   (`bench/baseline.json`) is a sequence of one-line flat objects with
   string / number / boolean fields, exactly as emitted by
   `captive_run bench --json`.  This reader parses that shape
   and nothing more (no nesting, no arrays). *)

type value = S of string | N of float | B of bool | Null

exception Malformed of string

let parse_line (line : string) : (string * value) list =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> raise (Malformed (Printf.sprintf "expected %C at %d" c !pos))
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Malformed "unterminated string")
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some c -> Buffer.add_char b c
        | None -> raise (Malformed "unterminated escape"));
        advance ();
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> S (parse_string ())
    | Some 't' when !pos + 4 <= n && String.sub line !pos 4 = "true" ->
      pos := !pos + 4;
      B true
    | Some 'f' when !pos + 5 <= n && String.sub line !pos 5 = "false" ->
      pos := !pos + 5;
      B false
    | Some 'n' when !pos + 4 <= n && String.sub line !pos 4 = "null" ->
      pos := !pos + 4;
      Null
    | Some ('-' | '0' .. '9') ->
      let start = !pos in
      while
        !pos < n
        && match line.[!pos] with '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true | _ -> false
      do
        advance ()
      done;
      N (float_of_string (String.sub line start (!pos - start)))
    | _ -> raise (Malformed (Printf.sprintf "bad value at %d" !pos))
  in
  skip_ws ();
  if peek () = None then []
  else begin
    expect '{';
    skip_ws ();
    if peek () = Some '}' then []
    else begin
      let fields = ref [] in
      let continue_ = ref true in
      while !continue_ do
        let k = (skip_ws (); parse_string ()) in
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some '}' ->
          advance ();
          continue_ := false
        | _ -> raise (Malformed "expected ',' or '}'")
      done;
      List.rev !fields
    end
  end

let parse_line_opt line = try Some (parse_line line) with Malformed _ | Failure _ -> None
let find_string fields k = match List.assoc_opt k fields with Some (S s) -> Some s | _ -> None
let find_number fields k = match List.assoc_opt k fields with Some (N f) -> Some f | _ -> None
