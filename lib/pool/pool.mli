(** Fixed-size domain worker pool over a mutex/condition-protected work
    queue.

    Workers are OCaml 5 [Domain]s; jobs are closures pulled from a FIFO
    queue.  A job that raises does not kill its worker or the batch: the
    exception is captured and returned to the submitter
    (fault isolation).  [map] preserves submission order in its result
    list regardless of completion order, which is what makes pooled
    batch reports byte-identical to sequential ones. *)

type t

(** [create ?inline_single n] spawns [n] worker domains ([n >= 1]).
    [n = 1] with [inline_single] (the default) is special-cased: no
    domain is spawned and jobs run inline at [wait] time in submission
    order, so a single-worker pool is behaviourally identical to a
    plain sequential loop.  Services that block on individual job
    results (and therefore never reach [wait] while a job is queued)
    must pass [~inline_single:false] so even a one-worker pool runs its
    jobs on a real worker domain. *)
val create : ?inline_single:bool -> int -> t

val workers : t -> int

(** Enqueue a job.  @raise Invalid_argument after [shutdown]. *)
val submit : t -> (unit -> unit) -> unit

(** [try_submit t ~max_pending job] — enqueue [job] unless [t] already
    has [max_pending] admitted-but-unfinished jobs (queued or running),
    in which case return [false] and enqueue nothing.  Check and
    enqueue are atomic, so concurrent submitters cannot overshoot the
    bound: this is the admission-control primitive of the serve
    daemon's backpressure.  @raise Invalid_argument after [shutdown]. *)
val try_submit : t -> max_pending:int -> (unit -> unit) -> bool

(** Admitted-but-unfinished jobs (queue depth plus running jobs). *)
val pending : t -> int

(** Surfacing of job-body exceptions that escaped a raw {!submit} thunk
    ([map] never contributes: it wraps its jobs in [Result]).  A
    non-fatal exception is counted and the worker keeps serving; a
    fatal one ([Out_of_memory], [Stack_overflow]) additionally kills
    its worker (after spawning a replacement), because the worker's
    state can no longer be trusted.  A service should alarm when
    [unexpected_exceptions] grows. *)
type worker_stats = {
  unexpected_exceptions : int;  (** total escaped job exceptions *)
  last_unexpected : string option;  (** printed form of the latest one *)
  dead_workers : int;  (** workers killed by fatal exceptions *)
}

val worker_stats : t -> worker_stats

(** Block until every submitted job has finished. *)
val wait : t -> unit

(** Drain the queue, then join and release the worker domains.  The pool
    must not be used afterwards. *)
val shutdown : t -> unit

(** Per-job pool telemetry. *)
type timing = {
  queue_s : float;  (** submission → a worker picked the job up *)
  run_s : float;  (** job body wall time *)
}

(** [map ~jobs f xs] runs [f] over [xs] on a fresh [jobs]-worker pool
    and returns the results in submission (list) order.  A raising call
    yields [Error exn] in its slot; the other jobs still complete.
    [jobs] is clamped to [1 .. length xs]. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list

(** {!map} plus per-job queue-wait / run telemetry. *)
val map_timed :
  jobs:int -> ('a -> 'b) -> 'a list -> (('b, exn) result * timing) list
