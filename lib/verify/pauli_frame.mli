(** Scalable circuit verification by Pauli-frame (stabilizer tableau)
    tracking.

    A lowered kernel is a sequence of Clifford gates and [Rz] rotations.
    Scanning in application order while maintaining the conjugation
    [D(P) = C† P C] of the Clifford prefix [C], every [Rz(θ, q)] is
    extracted as the effective rotation [exp(-iθ'/2 · Q)] with
    [Q, θ'] = sign-folded [D(Z_q)], yielding the factorization

    [U = C_total · exp(-iθ'_k/2·Q_k) ⋯ exp(-iθ'_1/2·Q_1)]

    (rightmost factor applied first).  Correct compilation means the
    extracted [(Q_j, θ'_j)] sequence equals the synthesizer's rotation
    trace and [C_total] is the identity (FT backend) or a qubit
    permutation consistent with the router's layouts (SC backend).
    Cost is [O(n/62)] word operations per gate on a flat in-place
    tableau, with a string allocated only per extracted rotation —
    practical for thousands of qubits. *)

open Ph_pauli
open Ph_gatelevel

(** The residual Clifford, as conjugation images of each [Z_q]/[X_q]
    with sign exponents ([i^k], [k ∈ {0, 2}]). *)
type residue = {
  z_images : (Pauli_string.t * int) array;
  x_images : (Pauli_string.t * int) array;
}

(** [extract c] scans the circuit.  Only Clifford gates ([H], [S],
    [S†], [X], [Y], [Z], [CNOT], [SWAP], [Rx]/[Ry]/[Rxx] at [±π/2] and
    [π]), arbitrary [Rz] and arbitrary [Rxx] (a native [XX] rotation)
    are admitted.
    @raise Invalid_argument on any other gate. *)
val extract : Circuit.t -> (Pauli_string.t * float) list * residue

(** [residue_permutation r] — when the residue is a pure qubit
    permutation (up to harmless phases on [X] images), the array [perm]
    with [D(Z_q) = Z_perm(q)]; [None] otherwise. *)
val residue_permutation : residue -> int array option

(** [normalize rotations] is the normal form both sides are compared
    in: each rotation merges into the nearest earlier rotation on the
    same string when everything in between commutes with it, and
    ~zero angles are dropped. *)
val normalize : (Pauli_string.t * float) list -> (Pauli_string.t * float) list

(** [verify ?layouts ~trace circuit] — the one Pauli-frame check: the
    extracted rotations must equal [trace] after {!normalize}, and the
    residue must move each logical qubit from its initial to its final
    position, with no stray [Z] there.  With [layouts = (initial,
    final)] (a routed SC compile) the logical trace is embedded through
    [initial] first; without them (FT, ion-trap) the placement is the
    identity on every circuit qubit, so the residue must be the
    identity.
    @raise Invalid_argument as {!extract}, or when [initial] places a
    traced qubit off the circuit. *)
val verify :
  ?layouts:Ph_hardware.Layout.t * Ph_hardware.Layout.t ->
  trace:(Pauli_string.t * float) list ->
  Circuit.t ->
  bool

(** [verify_ft c ~trace] is [verify ~trace c], and [verify_sc] is
    [verify ~layouts:(initial, final)].  Both remain only because the
    benchmark harness ([perfbench/compile_path.ml]) calls them and that
    directory changes only with the benchmark; use {!verify}. *)
val verify_ft : Circuit.t -> trace:(Pauli_string.t * float) list -> bool

val verify_sc :
  circuit:Circuit.t ->
  trace:(Pauli_string.t * float) list ->
  initial:Ph_hardware.Layout.t ->
  final:Ph_hardware.Layout.t ->
  bool
