(** Textual Pauli IR, following the concrete syntax of Figure 6:

    {v
    {(IIIZ, 0.214), dt};
    {(XXXX, 0.042), (YYXX, 0.042), theta1};
    {(IIZZ, 1.5), (IZIZ, 0.8), gamma};
    v}

    A [pauli_block] is a braced list of [(string, weight)] pairs followed
    by the shared parameter, which is either a float literal or an
    identifier resolved through the [params] environment.  Blocks are
    separated by [;].  [//] starts a line comment. *)

(** Raised on malformed input; the message starts with the 1-based
    [line L, column C:] source position of the offending token. *)
exception Parse_error of string

(** [parse ?params src] parses a program.  Identifier parameters are
    looked up in [params]; unknown identifiers raise {!Parse_error}
    unless [default] is given.  Every weight and parameter value must be
    finite: a literal such as [1e400], or a binding or [default] that is
    [nan] or infinite, raises {!Parse_error}.  Qubit count is inferred
    from the first Pauli string.
    @raise Parse_error on malformed input. *)
val parse : ?params:(string * float) list -> ?default:float -> string -> Program.t

(** Pretty-print a program in the same concrete syntax ({!parse} with the
    appropriate environment round-trips). *)
val to_text : Program.t -> string
