(** Generic gate-level cleanup: the "industry generic compiler" stage the
    paper runs after every configuration (its Qiskit-L3 role).

    Rewrites are local and commutation-aware, in the style of Nam et al.:
    a gate cancels or merges with an earlier gate when every gate in
    between commutes with it.  Covers inverse-pair cancellation
    (H·H, CNOT·CNOT, S·S†, X·X, SWAP·SWAP, ...), rotation merging
    (Rz·Rz, Rx·Rx, Ry·Ry on the same qubit) and zero-rotation removal. *)

(** [cancel_once c] performs one left-to-right pass; returns the rewritten
    circuit and the number of gates removed.

    The backward scan from the incoming gate at slot [i] reaches a
    candidate [j] only when at most [window] (default 400) live gates
    lie in slots [j..i-1], whatever qubits they act on.  Within that
    reach it visits only the live gates sharing a qubit with the
    incoming one, through per-qubit chains of live slots.

    Cost: the gates are packed once per call into 28 bytes each (a
    16-byte slot of kind, qubits and chain links, plus 32-bit stop,
    Fenwick and merge cells) and unpacked once at the end, reusing the
    input's gate values for every slot that did not merge.  A visited
    candidate costs one slot read and one table lookup, plus an
    O(log gates) live-count query when [j] lies more than [window] slots
    back; placing a gate costs O(1) and removing one O(log gates).
    Nothing is allocated in proportion to [window]. *)
val cancel_once : ?window:int -> Circuit.t -> Circuit.t * int

(** Telemetry of one {!optimize_stats} run: [removed] equals the
    gate-count delta between input and output; [rounds] counts the
    {!cancel_once} passes executed (including the final empty one). *)
type stats = { removed : int; rounds : int }

(** [optimize c] iterates {!cancel_once} to a fixpoint (bounded by
    [max_rounds], default 20), with the same gates, [removed] and
    [rounds] as calling it round by round.

    Cost: one packing and one unpacking for the whole fixpoint.  The
    first round walks every gate; a later round walks a gate again only
    when its last walk ran out of window or the gate that stopped it
    has been removed since.  Every other gate costs O(1) per round (the
    exactness argument is in DESIGN.md §16). *)
val optimize : ?window:int -> ?max_rounds:int -> Circuit.t -> Circuit.t

(** {!optimize} returning its {!stats}. *)
val optimize_stats : ?window:int -> ?max_rounds:int -> Circuit.t -> Circuit.t * stats
