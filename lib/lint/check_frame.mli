(** Cross-stage semantic spot-check (stage 4: the final circuit).

    Reads the compile's own Pauli-frame verdict — the lowering tail
    builds it once with the Pauli-frame verifier and every caller
    shares it — so the lowered circuit must implement exactly the
    rotation trace the synthesis stage claims, with an identity (FT /
    ion-trap) or layout-consistent permutation (SC) residual Clifford.
    A failure here means some stage changed the semantics while every
    structural invariant still held — reported as [VER001] rather than a
    bare end-to-end mismatch, because by this point the per-stage
    checkers have already cleared the earlier pipeline. *)

open Ph_pauli

(** [check ~rotations verdict] forces [verdict]: [false], or the
    verifier raising (e.g. a non-Clifford gate outside the supported
    set), is a [VER001] error.  [rotations] is the claimed trace, for
    the message. *)
val check : rotations:(Pauli_string.t * float) list -> bool Lazy.t -> Diag.t list
