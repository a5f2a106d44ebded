(** A process-wide team of worker domains for deterministic
    intra-compile parallelism.

    The team is a shared singleton: worker domains are spawned lazily on
    the first {!try_acquire}, grown to the largest request seen, parked
    between jobs, and joined at process exit.  Exactly one holder may
    own the team at a time; a failed acquire means the caller runs its
    sequential path instead — which, under the contract below, produces
    identical output, so the fallback is invisible.

    Determinism contract for {!run}: each chunk body must write only
    into its own chunk-indexed result slot (no shared mutable scratch,
    no {!Ph_perf.Counter} updates — counters are per-domain and a
    compile snapshots only the coordinating domain); the caller reduces
    the slots in ascending chunk order afterwards.  Under that contract
    the result is bit-identical to running the chunks sequentially. *)

type t
(** An acquired handle on the team. *)

val max_jobs : int
(** Upper bound on [jobs]; requests are clamped to it.  Callers may size
    per-chunk reduction scratch to this bound. *)

val jobs : t -> int
(** The (clamped) parallelism the handle was acquired with. *)

val try_acquire : int -> t option
(** [try_acquire jobs] acquires the team for a holder wanting [jobs]-way
    parallelism (the holder's own domain plus [jobs - 1] workers).
    Returns [None] when [jobs <= 1] after clamping, or when the team is
    already held — callers must then use their sequential path.  Never
    blocks.  Once the workers exist, an acquire, a {!run} and a
    {!release} allocate nothing on the caller's domain beyond what the
    chunk body itself allocates. *)

val warm : int -> unit
(** [warm jobs] spawns the workers a [jobs]-way {!try_acquire} would
    need, now.  Worker spawning is the only step of an acquire/{!run}
    cycle that allocates on the caller's domain, so a caller that
    measures its own allocation warms the team before sampling its
    baseline.  Never waits for the current holder. *)

val release : t -> unit
(** Release the team for the next holder.  Workers stay parked. *)

val run : t -> chunks:int -> (int -> unit) -> unit
(** [run t ~chunks f] executes [f 0 .. f (chunks - 1)], distributed over
    the holder's domain and the team's workers; returns when all chunks
    finished.  An exception raised by a chunk body is captured and
    re-raised here (first one wins); the remaining chunks still run. *)
