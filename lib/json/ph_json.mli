(** Minimal dependency-free JSON tree: just enough for the bench
    harness's machine-readable perf reports ({!Report.record_to_json})
    and their round-trip in [bench history].  Strings are byte
    sequences; [\u] escapes decode to UTF-8. *)

exception Parse_error of string

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Serialize; [indent] pretty-prints with two-space indentation.
    Non-finite floats encode as [null] (JSON has no nan/inf). *)
val to_string : ?indent:bool -> t -> string

(** Inverse of {!to_string}.
    @raise Parse_error on malformed input. *)
val parse : string -> t

(** [member k v] — field [k] of an object, [None] otherwise. *)
val member : string -> t -> t option

(** [get k v] — like {!member}. @raise Parse_error when absent. *)
val get : string -> t -> t

(** Coercions. @raise Parse_error on a constructor mismatch;
    [to_float] accepts [Int]. *)

val to_int : t -> int

val to_float : t -> float
val to_str : t -> string
val to_list : t -> t list
