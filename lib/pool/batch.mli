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
    result for that job; the rest of the batch completes.

    The module also owns the compile-cache contract: the steps below,
    from source text to a cached record, are the only copy that phc,
    the serve daemon and the bench harness call. *)

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

(** {1 Source to cached record}

    Every step from source text to a cached {!Report.record}, shared by
    [phc compile]/[lint]/[analyze], {!run}, the serve daemon and the
    bench harness, so they accept the same sources, build the same
    records and keep one cache contract:
    - an entry is addressed by a config fingerprint plus the program's
      canonical text ({!key});
    - a hit carries the caller's [bench] and [config] labels, whoever
      wrote it ({!lookup});
    - only verified records are stored ({!publish}), so a hit is trusted
      without recompiling.

    Entries written by any of those callers are mutually readable. *)

(** [parse ~params source] — a {!Ph_pauli_ir.Parser.Parse_error} or any
    other exception the parser raises becomes [Error message], reported
    as stage [parse]. *)
val parse :
  params:(string * float) list ->
  string ->
  (Ph_pauli_ir.Program.t, string) result

(** [record ~name ~config_name program metrics trace] — the record of
    one compile of [program], labelled [name] / [config_name]. *)
val record :
  name:string ->
  config_name:string ->
  Ph_pauli_ir.Program.t ->
  Report.metrics ->
  Report.trace ->
  Report.record

(** [compile_record ~config ~config_name ~verify ~name program] — one
    compile job: compile, fail on an error-severity lint finding under
    [Config.lint = Error_level], Pauli-frame verify when [verify], and
    build the record labelled [name].  [Error (stage, message)] names
    the failing stage ([compile] / [lint] / [verify]). *)
val compile_record :
  config:Config.t ->
  config_name:string ->
  verify:bool ->
  name:string ->
  Ph_pauli_ir.Program.t ->
  (Report.record, string * string) result

(** [key ~config_fp program] — the cache address of [program] compiled
    under the config described by [config_fp] (a
    {!Config.fingerprint}, or any tag that embeds
    {!Config.version_tag}).  The program enters as canonical text:
    every block parameter printed as its resolved numeric value, so
    equal-semantics sources address equal entries. *)
val key : config_fp:string -> Ph_pauli_ir.Program.t -> string

(** [lookup cache key ~bench ~config] — the verified record stored at
    [key], relabelled with [bench] and [config]; [None] on a miss or an
    entry that is not a verified record. *)
val lookup :
  Cache.t -> string -> bench:string -> config:string -> Report.record option

(** [publish cache key ~verified record] stores [record] at [key] when
    [verified] (the Pauli-frame verifier accepted this compile) and
    does nothing otherwise. *)
val publish : Cache.t -> string -> verified:bool -> Report.record -> unit

(** {1 Batches} *)

(** [run ?cache ?jobs ?verify ~config ~config_name batch].  [jobs]
    (default 1) sizes the worker pool; [verify] (default [true]) runs
    the Pauli-frame verifier on every compiled job.  Lookups and stores
    go through {!lookup} and {!publish}, so with [verify = false]
    nothing is stored.  When [Config.cacheable config] is false the
    cache is bypassed entirely. *)
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
