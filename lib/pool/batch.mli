(** Fault-isolated batch compilation over the domain pool.

    A batch is an ordered list of textual Pauli IR jobs compiled under
    one {!Paulihedral.Config}.  The coordinator parses every job,
    answers what it can from the compile cache (and coalesces duplicate
    keys within the batch), dispatches the remaining compiles to a
    {!Pool} of worker domains, then reassembles everything in submission
    order — so the result list, and the default (timing-normalized) JSON
    report, are byte-identical whatever [jobs] was.

    Per-job fault isolation: a parse error, a raised exception, an
    error-severity lint finding (under [Config.lint = Error_level]) or a
    Pauli-frame verification failure turns into a structured {!Failed}
    result for that job; the rest of the batch completes. *)

open Paulihedral

type job = {
  id : int;  (** submission index, 0-based *)
  name : string;  (** record [bench] field (file basename, bench label) *)
  source : string;  (** textual Pauli IR *)
  params : (string * float) list;  (** parser environment *)
}

(** [job ~id ~name ?params source]. *)
val job :
  id:int -> name:string -> ?params:(string * float) list -> string -> job

type job_result =
  | Ok of Report.record
  | Failed of { job_id : int; stage : string; message : string }
      (** [stage] is one of [parse] / [compile] / [lint] / [verify] *)

(** How a job's result was obtained: compiled in this batch, served from
    the cache, or coalesced onto an identical in-batch job's compile. *)
type origin = Compiled | From_cache | Coalesced

type outcome = { job : job; result : job_result; origin : origin }

type t = {
  outcomes : outcome list;  (** submission order *)
  stats : Report.batch;
  cache_counters : Cache.counters option;
      (** cache traffic of this batch ([None] when run uncached) *)
}

(** [compile_record ~config ~config_name ~verify ~name program] — one
    compile job: compile, fail on an error-severity lint finding under
    [Config.lint = Error_level], Pauli-frame verify when [verify], and
    build the record labelled [name].  [Error (stage, message)] names
    the failing stage ([compile] / [lint] / [verify]).  Shared with the
    serve daemon so both services accept exactly the same circuits. *)
val compile_record :
  config:Config.t ->
  config_name:string ->
  verify:bool ->
  name:string ->
  Ph_pauli_ir.Program.t ->
  (Report.record, string * string) result

(** Compile-cache payload codec shared by every cache writer (batch,
    serve daemon, bench harness), so their entries are mutually
    readable.  Only verified records may be stored;
    {!record_of_payload} returns [None] unless the payload carries the
    explicit [verified] marker and a well-formed record. *)

val payload_of_record : Report.record -> Json.t
val record_of_payload : Json.t -> Report.record option

(** Canonical cache-key text of a program: the concrete Pauli IR syntax
    with every block parameter printed as its resolved numeric value
    (symbolic labels erased), so equal-semantics sources address equal
    cache entries. *)
val canonical_text : Ph_pauli_ir.Program.t -> string

(** [run ?cache ?jobs ?verify ~config ~config_name batch].  [jobs]
    (default 1) sizes the worker pool; [verify] (default [true]) runs
    the Pauli-frame verifier on every compiled job.  Only verified
    results are stored into [cache].  When [Config.cacheable config] is
    false the cache is bypassed entirely. *)
val run :
  ?cache:Cache.t ->
  ?jobs:int ->
  ?verify:bool ->
  config:Config.t ->
  config_name:string ->
  job list ->
  t

val ok_count : t -> int
val failed : t -> outcome list

(** JSON report.  [timings = false] (the default) normalizes every
    record ({!Report.normalize_record}) and zeroes the batch wall-clock
    fields, making the report a pure function of (sources, config,
    prior cache state) — byte-diffable across [--jobs] values and
    warm-cache reruns. *)
val report_json : ?timings:bool -> t -> Json.t
