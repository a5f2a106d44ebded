(** PHOENIX-style high-level Pauli-IR optimization pipeline
    (arXiv 2504.03529 lineage), run between parsing and scheduling when
    [Config.schedule = Phoenix_like]:

    {ol
    {- {b grouping} — each block's rotations are partitioned into
       mutually-commuting classes by a deterministic first-fit greedy
       coloring over the bit-packed [Pauli_string.commutes] kernel, with
       a [Qubit_set] support union short-circuiting disjoint candidates
       (term order is scan order, so the classes are a pure function of
       the program);}
    {- {b simultaneous diagonalization} — every class is rewritten, via
       [Ph_baselines.Symplectic.diagonalize_group], into Z/I-only
       rotations bracketed by a Clifford frame, signs folded into the
       coefficients;}
    {- {b fusion} — adjacent groups with identical Clifford frames merge
       into one bracket (cross-group Clifford sharing), adjacent
       same-support same-parameter diagonal blocks merge with equal
       strings summed, strings whose total angle over a frame is exactly
       zero are cancelled across block boundaries, and the survivors are
       re-sorted lexicographically (GCO order) — all exact rewrites,
       since diagonal rotations mutually commute.}}

    The rewritten program is what downstream lint ([Check_ir],
    [Check_schedule]), the schedule certificate and the Phoenix backends
    consume; [rows] keep the (original, diagonal, sign) mapping so the
    emitted rotation trace stays in terms of the {e original} strings,
    which is exactly what the Pauli-frame verifier reconstructs through
    the Clifford bracket. *)

open Ph_pauli
open Ph_pauli_ir

type group = {
  clifford : Ph_gatelevel.Gate.t list;
      (** shared Clifford frame, application order; [[]] for all-diagonal
          groups *)
  blocks : Block.t list;  (** Z/I-only blocks, signs folded into coeffs *)
  rows : (Pauli_string.t * Pauli_string.t * float) list;
      (** (original, diagonal image, sign) — includes rows whose
          rotations were later fused or cancelled *)
}

type stats = {
  groups : int;  (** commuting classes produced by grouping (= diagonal
                     blocks before fusion); the [opt_groups] counter *)
  diag_rotations : int;
      (** rotations rewritten into the diagonal frame; [opt_diag_rotations] *)
  fused_blocks : int;
      (** blocks removed by fusion/cancellation, i.e. [groups] minus the
          post-opt block count; [opt_fused_blocks] *)
}

type t = {
  program : Program.t;
      (** the post-opt program: the groups' blocks in order — what lint,
          scheduling layers and the certificate are checked against.
          When every rotation cancels (the IR cannot be empty) it is a
          single zero-weight identity sentinel block and [groups] is
          empty. *)
  groups : group list;
  stats : stats;
}

(** Passes 1 and 2: one group per commuting class, before fusion. *)
val diagonalize : Program.t -> group list

(** Fusion's first step: each run of adjacent groups with equal frames
    becomes one group, blocks and rows concatenated in order. *)
val merge_groups : group list -> group list

(** [run p] — the full pipeline.  Deterministic: equal programs produce
    equal results and equal counter increments, on any domain.  Bumps
    [Ph_perf.Counter.opt_groups]/[opt_diag_rotations]/[opt_fused_blocks]. *)
val run : Program.t -> t
