(** Deterministic work counters.

    Named monotonic counters counting *work performed* (kernel calls,
    words touched, scan steps, gates built, cache probes) rather than
    time.  Counts are pure functions of the compiled input, so a
    snapshot taken around one compile is bit-identical across runs,
    [--jobs] settings and machines — unlike wall-clock or GC
    promotion statistics.

    Storage is a per-domain [int array] reached through [Domain.DLS]:
    an increment is one DLS read plus an unsafe array store, cheap
    enough for word-kernel inner loops.  Because every compile runs
    entirely on one domain (pool workers, inline [--jobs 1], serve
    worker domains alike), diffing two same-domain snapshots around a
    compile attributes exactly that compile's work, with no cross-domain
    interference and no atomics on the hot path. *)

type id = private int
(** Index of a counter in the per-domain array. *)

(* Pauli word-kernel ops (lib/pauli). *)

val pauli_commutes : id
val pauli_overlap : id
val pauli_mul : id

val pauli_words : id
(** Bitplane words touched across all kernel ops. *)

val pauli_popcounts : id
(** Popcount invocations across all kernel ops. *)

(* Algorithm-1 scheduler work (lib/schedule). *)

val sched_leader_scans : id
(** Windowed scans over live blocks looking for the next layer leader. *)

val sched_candidates : id
(** Live candidate blocks visited by leader scans. *)

val sched_padding_probes : id
(** Live blocks probed while padding a layer with commuting blocks. *)

val sched_window_truncations : id
(** Scans cut short by the lookahead window bound. *)

(* Gate-level synthesis and peephole (lib/gatelevel). *)

val circuit_gates_built : id
(** Gates appended through [Circuit.Builder.add] — synthesis output,
    swap decomposition and the peephole's output alike — plus, for
    every peephole round followed by another, that round's surviving
    gates (the per-round rebuild the fixpoint used to perform). *)

val peephole_probes : id
(** Same-qubit candidates examined by the cancellation scans' backward
    walks, counting only the walks actually made: a later fixpoint
    round skips the gates whose walk no removal can have changed. *)

val peephole_scan_rounds : id
(** Cancellation sweeps run (to fixpoint, across all stages). *)

(* Static analysis work (lib/analysis). *)

val ana_edges_scanned : id
(** Vertex pairs examined while building the commutation graph. *)

val ana_clique_iters : id
(** Candidate-set refinement steps of the greedy clique search. *)

val ana_cert_checks : id
(** Schedule-certificate validations performed by the checker. *)

(* Phoenix IR optimizer work (lib/opt). *)

val opt_groups : id
(** Mutually-commuting groups produced by the grouping pass (diagonal
    blocks before fusion). *)

val opt_diag_rotations : id
(** Rotations rewritten into the diagonal frame by the
    simultaneous-diagonalization pass. *)

val opt_fused_blocks : id
(** Blocks eliminated by the fusion pass (support merges, cross-block
    exact cancellations, emptied blocks). *)

(* Compile-cache traffic (lib/pool).  Process-scoped only: warm/cold
   dependent, so never part of a per-compile snapshot. *)

val cache_probes : id
val cache_hits_mem : id
val cache_hits_disk : id
val cache_stores : id

val sched_par_scans : id
(** Parallel candidate-scan dispatches ([Ph_schedule.Arena.leader_argmax]
    runs that actually fanned out over the domain team).  Process-scoped
    only: the count depends on --sched-jobs and on team availability,
    so it must never land in a per-compile snapshot — schedules and
    records are byte-identical across --sched-jobs settings, and this
    counter is the one place that records the difference. *)

val add : id -> int -> unit
(** [add id n] increments a counter by [n] on the calling domain. *)

val bump : id -> unit
(** [bump id] is [add id 1]. *)

val kernel_op : id -> words:int -> pops:int -> unit
(** [kernel_op id ~words ~pops] records one Pauli kernel call: bumps
    [id] and adds to [pauli_words] / [pauli_popcounts] in one DLS
    access. *)

val touch : unit -> unit
(** Force allocation and registration of the calling domain's counter
    array.  Call before sampling any allocation baseline so the
    one-time DLS setup cost is not attributed to the first compile a
    domain performs (which would differ between [--jobs] settings). *)

type snapshot
(** Immutable copy of the calling domain's counters. *)

val snapshot : unit -> snapshot

val compile_assoc : before:snapshot -> after:snapshot -> (string * int) list
(** Per-compile deltas of the compile-scoped counters (everything
    except the [cache_*] group), in declaration order.  All entries are
    deterministic for a fixed input program and configuration. *)

val totals_assoc : unit -> (string * int) list
(** Process-wide totals summed over every domain that ever counted,
    including the [cache_*] group.  Reads are racy with respect to
    concurrent increments (monotone, possibly slightly stale) — meant
    for serve [stats] style observability, not for gating. *)

val gated : string -> bool
(** Whether a counter (or derived metric) name participates in the
    regression gate.  [alloc_*] (compiler-version dependent) and
    [cache_*] (warm/cold dependent) rows are recorded but ungated;
    [seconds] and [sched_window] never become rows at all. *)
