(** GF(2) symplectic machinery: Clifford conjugation of signed Pauli
    strings, and simultaneous diagonalization of mutually-commuting sets —
    the core of the t|ket⟩-style baseline ([Tk_like]). *)

open Ph_pauli
open Ph_gatelevel

(** [conjugate g (p, k)] is [g·(i^k·P)·g†] as a signed string
    ([k ∈ {0, 2}]).  [g] must be Clifford
    ([H], [S], [S†], [X], [Y], [Z], [CNOT], [SWAP], [Rx(±π/2)]).
    @raise Invalid_argument otherwise. *)
val conjugate : Gate.t -> Pauli_string.t * int -> Pauli_string.t * int

(** [diagonalize strings] — for mutually-commuting [strings], a Clifford
    gate list [c] (in application order) and the conjugated signed strings
    [d_i = C·P_i·C†], every one of which is Z/I-only.

    The construction fixes one string at a time: [S] gates clear [Y]s,
    CNOTs fold the X-support onto a pivot, [H·CNOT·H] (= CZ) clears
    leftover [Z]s, and a final [H] turns the single [X] into a [Z];
    commutation guarantees previously fixed strings stay diagonal.  The
    rows live in one flat bitplane tableau updated in place; a set with
    no X or Y anywhere comes back as given, with no gates.

    @raise Invalid_argument if the strings do not mutually commute. *)
val diagonalize :
  Pauli_string.t list -> Gate.t list * (Pauli_string.t * int) list

(** [conjugate_list gates row] folds {!conjugate} over [gates] in
    application order: [C·(i^k·P)·C†] for the whole Clifford sequence
    [C = g_m ⋯ g_1].
    @raise Invalid_argument on a non-Clifford gate. *)
val conjugate_list : Gate.t list -> Pauli_string.t * int -> Pauli_string.t * int

(** A diagonalized commuting group: the shared Clifford frame and, per
    input string in input order, its original form, its Z/I-only image
    [D_i = C·P_i·C†] and the folded sign [s_i ∈ {+1, -1}] (so that
    [exp(-iθ/2·P_i) = C†·exp(-i·s_iθ/2·D_i)·C]).  The reusable form of
    the elimination both [Tk_like.compile] and the Phoenix optimizer
    ([Ph_opt]) build on. *)
type group = {
  clifford : Gate.t list;  (** application order *)
  rows : (Pauli_string.t * Pauli_string.t * float) list;
      (** (original, diagonal image, sign) *)
}

(** [diagonalize_group strings] — {!diagonalize} packaged with the
    original strings and float signs.
    @raise Invalid_argument if the strings do not mutually commute or
    the list is empty. *)
val diagonalize_group : Pauli_string.t list -> group

(** All-Z/I check. *)
val is_diagonal : Pauli_string.t -> bool
