(** Structure-of-arrays block arena: the windowed schedulers'
    ([Depth_oriented], [Max_overlap]) shared data layout and scan
    kernels.

    One arena holds every per-block feature the Algorithm-1 inner loops
    touch — head/tail string bitplanes, active-set words, depth
    estimates, the term-sorted blocks — in flat row-major [int array]s
    indexed by arena position, in the scheduler's sort order (an
    int-permutation sort with original-index tie-break, equivalent to
    the stable record sort it replaces).  All round-to-round scratch
    ([cand]idate window, [prev]ious-layer tails, [touched]/[chosen]
    stacks, the per-qubit load vector, parallel-reduction slots) is
    preallocated at {!build} and reused, so a scheduling round allocates
    nothing beyond its output layer.  The row predicates ({!depth},
    {!rows_disjoint}, {!max_load}, {!leader_score}) are pure reads —
    no counter bumps, no scratch writes — so a fit test may evaluate its
    conjuncts cheapest first and still leave every output and counter
    unchanged.

    The optionally parallel {!argmax} partitions the candidate window
    over {!Ph_exec.Team} worker domains; the ascending-chunk,
    strict-greater reduction returns the globally first maximum — the
    same choice as the sequential scan at any [jobs], so schedules,
    metrics, and perf counters are bit-identical across [--sched-jobs]
    settings (counters are charged only on the coordinating domain; see
    {!charge_overlap_kernel}). *)

open Ph_pauli_ir

type t

(** Arena order: [Active_desc] is [Depth_oriented]'s decreasing active
    length with lexicographic tie-break; [Lex] is [Max_overlap]/[Gco]'s
    lexicographic order of representatives. *)
type order = Active_desc | Lex

val build : ?rank:(Ph_pauli.Pauli.t -> int) -> order:order -> Program.t -> t

val size : t -> int

(** Words per bitplane ([Bits.words_for n_qubits]); callers use it to
    express [score_work] estimates in word-operations. *)
val words : t -> int

(** The term-sorted block at an arena index. *)
val block : t -> int -> Block.t

(** Estimated block depth ([Layer.est_block_depth]) at an arena index. *)
val depth : t -> int -> int

(** {1 Liveness} *)

val n_alive : t -> int

val first_alive : t -> int

(** Mark an arena index scheduled (dead) and advance [first_alive]. *)
val take : t -> int -> unit

(** {1 Window scan} *)

(** [collect a ~window] gathers up to [window] live indices (ascending
    from [first_alive]) into the candidate scratch and returns the
    count, bumping [sched_window_truncations] exactly as the legacy
    scan did. *)
val collect : t -> window:int -> int

(** The arena index at a candidate position of the last {!collect}. *)
val candidate : t -> int -> int

(** {1 Row kernels} (allocation-free, counter-free, pure) *)

(** Operator overlap between block [ti]'s tail string and block [hi]'s
    head string. *)
val overlap_tail_head : t -> int -> int -> int

(** Best {!overlap_tail_head} of any previous-layer tail against block
    [hi]'s head — the Algorithm-1 leader affinity. *)
val leader_score : t -> int -> int

(** Max accumulated load over a block's active qubits
    ([Qubit_set.max_over] on arena rows). *)
val max_load : t -> int -> int

(** Store a load value over a block's active qubits
    ([Qubit_set.set_over]). *)
val set_load : t -> int -> int -> unit

(** Active-support disjointness of two arena indices. *)
val rows_disjoint : t -> int -> int -> bool

(** {1 Round scratch} *)

val reset_chosen : t -> unit

val push_chosen : t -> int -> unit

(** This round's chosen blocks, in push order. *)
val chosen_blocks : t -> Block.t list

(** Promote the chosen stack to the next round's previous-layer tails. *)
val commit_prev : t -> unit

val n_prev : t -> int

(** Set a single previous tail (the [Max_overlap] chain). *)
val set_prev1 : t -> int -> unit

val reset_touched : t -> unit

val push_touched : t -> int -> unit

(** Zero the load vector over every touched block's active qubits and
    empty the stack. *)
val clear_touched_loads : t -> unit

(** {1 Deterministic argmax} *)

(** [argmax a ~jobs ~visited ~score_work score] — position in
    [0..visited-1] of the first maximum of [score] (which must be pure
    and >= 0), or [-1] when [visited = 0].  Runs on the {!Ph_exec.Team}
    when [jobs > 1], the work estimate [score_work] (in word-operations)
    clears the dispatch threshold, and the team is free; falls back to
    the bit-identical sequential scan otherwise. *)
val argmax :
  t -> jobs:int -> visited:int -> score_work:int -> (int -> int) -> int

(** Charge [scores × per_score] overlap-kernel calls (of the arena's
    word width each) to the coordinating domain's counters — the exact
    counts the legacy per-call [Pauli_string.overlap] produced. *)
val charge_overlap_kernel : t -> scores:int -> per_score:int -> unit
