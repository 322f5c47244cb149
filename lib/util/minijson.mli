(** Minimal flat-JSON reader for the bench regression gate: one object
    per line, string / number / boolean fields only (the exact shape
    emitted by [captive_run bench --quick --json]).  No external JSON
    dependency. *)

type value = S of string | N of float | B of bool | Null

exception Malformed of string

(** Parse one line; raises {!Malformed} on anything that isn't a flat
    object.  An empty (or all-whitespace) line parses to []. *)
val parse_line : string -> (string * value) list

(** [parse_line] with malformed input mapped to [None]. *)
val parse_line_opt : string -> (string * value) list option

val find_string : (string * value) list -> string -> string option
val find_number : (string * value) list -> string -> float option
