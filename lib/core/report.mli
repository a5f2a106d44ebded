(** The evaluation's metrics (CNOT / single-qubit / total gate counts and
    circuit depth, Section 6.1), per-pass telemetry, and table/JSON
    formatting helpers. *)

open Ph_gatelevel

type metrics = {
  cnot : int;
  single : int;
  total : int;
  depth : int;
  seconds : float;  (** compilation wall time *)
}

(** Counts of a lowered circuit (SWAPs as 3 CNOTs / depth 3). *)
val of_circuit : ?seconds:float -> Circuit.t -> metrics

(** [timed f] runs [f ()] and returns its result with the elapsed time. *)
val timed : (unit -> 'a) -> 'a * float

(** [delta a b] — percentage change of [b] relative to [a]
    ([(b − a) / a · 100]); [nan] when [a = 0]. *)
val delta : int -> int -> float

(** Geometric mean of positive ratios. *)
val geomean : float list -> float

val pp_metrics : Format.formatter -> metrics -> unit

(** {1 Per-pass telemetry}

    Counters are owned by the passes themselves
    ([Ph_schedule.Depth_oriented.schedule_stats],
    [Ph_synthesis.Sc_backend] result, [Ph_gatelevel.Peephole.optimize_stats])
    and collected into a {!trace} by [Compiler.compile]; zero means the
    pass did not run in the chosen configuration. *)

type pass_counters = {
  sched_layers : int;  (** layers formed by the scheduling pass *)
  sched_padded : int;  (** padding blocks packed by depth-oriented scheduling *)
  sched_window : int;  (** [Config.window] scan bound the schedulers ran with
                           ([0] in records predating the knob) *)
  sc_swaps : int;  (** SWAPs inserted by the SC backend (pre-decomposition) *)
  peephole_removed : int;  (** gates removed (cancelled + merged) by peephole *)
  peephole_rounds : int;  (** peephole passes until fixpoint *)
}

(** Per-stage wall-clock timings of one compile, plus the counters and
    any lint diagnostics the per-stage checkers reported
    ([lint = []] when [Config.lint = Off]). *)
type trace = {
  schedule_s : float;
  synthesis_s : float;
  swap_decompose_s : float;
  peephole_s : float;
  lint_s : float;  (** total time spent in [Ph_lint] checkers *)
  counters : pass_counters;
  lint : Ph_lint.Diag.t list;  (** stage order: config, IR, schedule,
                                   synthesis, hardware, final circuit *)
  perf : (string * int) list;
      (** deterministic work counters: the [Ph_perf.Counter]
          compile-scope deltas sampled by [Compiler.compile] plus the
          per-stage [alloc_*_words] (minor-heap words the compiling
          domain allocated in each stage), in fixed declaration
          order.  Bit-identical across runs, [--jobs] settings and
          machines; [[]] in records predating the subsystem (PR ≤ 6)
          and in baseline-stage traces *)
  analysis : Ph_analysis.Gap.summary option;
      (** static lower bounds and gap ratios — [Some] when the compile
          ran with [Config.analyze] or a driver (bench, history record)
          attached a post-hoc analysis; [None] otherwise and in records
          predating the analyzer (PR ≤ 7) *)
}

val empty_counters : pass_counters
val empty_trace : trace

(** One row of a machine-readable bench report: benchmark × config
    identity, program size, end metrics and the per-stage trace. *)
type record = {
  bench : string;
  config : string;
  qubits : int;
  paulis : int;
  metrics : metrics;
  trace : trace;
}

val counters_to_json : pass_counters -> Json.t
val trace_to_json : trace -> Json.t
val record_to_json : record -> Json.t

(** Inverses of the encoders, for [bench history] and cache payloads.
    Members added since the first report default when absent; a legacy
    ["gc"] member is ignored.
    @raise Json.Parse_error on schema mismatch. *)

val trace_of_json : Json.t -> trace

val record_of_json : Json.t -> record

(** Zero every wall-clock field of the record (metrics seconds and
    per-stage timings), leaving only data that is a pure function of
    (program, config).  The batch service reports
    normalized records by default so [--jobs N] output is byte-identical
    to [--jobs 1] and to a warm-cache rerun.  [trace.perf] is kept:
    the counters are deterministic, so byte-identity checks over
    normalized records also prove counter determinism. *)
val normalize_record : record -> record

(** One {!Ph_perf.Db} row per deterministic quantity of the record —
    circuit metrics ([cnot]/[single]/[total]/[depth]), the per-pass
    counters except the configuration echo [sched_window], and every
    [trace.perf] entry.  [seconds] and stage timings are never rows. *)
val perf_rows : commit:string -> record -> Ph_perf.Db.row list

(** {1 Batch aggregation}

    Telemetry of one pooled batch-compilation run ([Ph_pool.Batch]):
    per-job wall times and queue waits in submission order, plus the
    cache outcome counts. *)

type batch = {
  batch_jobs : int;  (** jobs submitted *)
  batch_workers : int;  (** worker domains that served the queue *)
  batch_wall_s : float;  (** end-to-end batch wall time *)
  job_wall_s : float list;  (** per-job run time, submission order *)
  job_queue_s : float list;  (** per-job queue wait, submission order *)
  cache_hits : int;  (** memory + disk + in-batch coalesced *)
  cache_misses : int;
}

(** Fraction of jobs answered by the cache ([0.] when nothing was
    looked up, i.e. the batch ran uncached). *)
val batch_hit_rate : batch -> float

(** [timings = false] zeroes the wall-clock fields and the worker count
    (both are properties of the run environment, not of the work), so
    the object is identical across [--jobs] values; the job and cache
    counts are deterministic either way. *)
val batch_to_json : ?timings:bool -> batch -> Json.t
