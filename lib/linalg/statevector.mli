(** Statevector simulation on [2^n] amplitudes, qubit 0 = least-significant
    bit of the basis index.  In-place gate application; used by the noisy
    QAOA study (Figure 11) and by small-scale verification. *)

type t

(** [zero n] is |0…0⟩ on [n] qubits. *)
val zero : int -> t

(** [basis n k] is the computational basis state |k⟩. *)
val basis : int -> int -> t

val n_qubits : t -> int
val dim : t -> int

val copy : t -> t

(** [amplitude sv k] is ⟨k|sv⟩. *)
val amplitude : t -> int -> Cplx.t

(** [apply1 sv q u] applies the 2×2 unitary [u] (row-major
    [[u00; u01; u10; u11]]) to qubit [q], in place. *)
val apply1 : t -> int -> Cplx.t array -> unit

(** [apply_cnot sv ~control ~target] applies CNOT in place. *)
val apply_cnot : t -> control:int -> target:int -> unit

(** [apply_cz sv a b] applies controlled-Z in place. *)
val apply_cz : t -> int -> int -> unit

val apply_swap : t -> int -> int -> unit

(** [apply_rzz sv θ a b] applies [exp(-iθ/2·Z_a Z_b)] in place. *)
val apply_rzz : t -> float -> int -> int -> unit

val norm : t -> float

(** [prob sv k] is |⟨k|sv⟩|². *)
val prob : t -> int -> float

(** ⟨a|b⟩. *)
val inner : t -> t -> Cplx.t

(** [sample sv ~rand] draws one basis index from the Born distribution;
    [rand] must return a uniform float in [0, 1). *)
val sample : t -> rand:(unit -> float) -> int

(** [equal_up_to_phase ?eps a b] — |⟨a|b⟩| = ‖a‖·‖b‖ up to a tolerance of
    [eps · dim] (FP error in the inner product grows with dimension;
    default [eps] is 1e-8 per dimension). *)
val equal_up_to_phase : ?eps:float -> t -> t -> bool
