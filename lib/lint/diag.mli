(** Structured lint diagnostics.

    Every checker in this library reports findings as a list of {!t}:
    a severity, a stable diagnostic code (["PIR001"], ["SCH003"], ...),
    a pipeline-stage location (block / layer / gate index), and a
    human-readable message.  Diagnostics are plain data — callers decide
    whether a finding is fatal (see {!level}) — and serialize to
    {!Ph_json.t} so they ride inside bench reports and fuzz artifacts. *)

type severity = Error | Warning | Info

(** Where in the compile a finding anchors.  Indices are 0-based and
    refer to the stage's own coordinate system: blocks and terms index
    the input program, layers the scheduler output, gates the lowered
    circuit, qubits the device. *)
type location =
  | Config_loc
  | Program_loc
  | Block_loc of int
  | Term_loc of int * int  (** block index, term index within the block *)
  | Layer_loc of int
  | Gate_loc of int
  | Qubit_loc of int

type t = {
  severity : severity;
  code : string;  (** stable machine-readable code, e.g. ["GATE002"] *)
  location : location;
  message : string;
}

val error : code:string -> location -> string -> t
val warning : code:string -> location -> string -> t
val info : code:string -> location -> string -> t

(** {1 Aggregation} *)

val is_error : t -> bool
val errors : t list -> t list
val warnings : t list -> t list

(** {1 Lint levels}

    [Off] — checkers do not run.  [Warn] — checkers run and report, the
    compile is never failed.  [Error] — checkers run and error-severity
    findings should fail the surrounding driver (nonzero exit in [phc],
    a failed property in the fuzzer, a failed job in CI). *)

type level = Off | Warn | Error_level

val level_of_string : string -> (level, string) result
val level_to_string : level -> string

(** {1 Formatting and serialization} *)

(** [pp] prints one finding as ["error[GATE002] at gate 7: ..."]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
val to_json : t -> Ph_json.t

(** Inverse of {!to_json}, for bench-report round-trips.
    @raise Ph_json.Parse_error on schema mismatch. *)
val of_json : Ph_json.t -> t

(** Every code this library can emit, with its severity and a one-line
    description — the source of the DESIGN.md table, and what the test
    suite iterates to prove each code has a trigger. *)
val known_codes : (string * severity * string) list
