(** The basic gate set every backend lowers to.

    Rotation conventions: [Rz θ q = exp(-iθ/2·Z_q)], likewise for [Rx]
    and [Ry]; a weighted Pauli term [(P, w)] inside a block with parameter
    [t] is implemented as the rotation [exp(-i·w·t·P)], i.e. angle
    [θ = 2wt]. *)

type t =
  | H of int
  | X of int
  | Y of int
  | Z of int
  | S of int
  | Sdg of int
  | Rz of float * int
  | Rx of float * int
  | Ry of float * int
  | Cnot of int * int  (** [(control, target)] *)
  | Swap of int * int
  | Rxx of float * int * int
      (** Mølmer–Sørensen gate [exp(-iθ/2·X_a X_b)] — the native two-qubit
          entangler of trapped-ion hardware (symmetric in its qubits) *)

(** Qubits touched, in declaration order. *)
val qubits : t -> int list

val is_two_qubit : t -> bool

(** Inverse gate ([H], [X], [Y], [Z], [Cnot], [Swap] are involutions;
    rotations negate their angle; [S]/[Sdg] swap). *)
val dagger : t -> t

(** [cancels a b] is [true] when [a·b = 1] (same qubits, [b = a†]).
    Rotation angles must be exactly opposite. *)
val cancels : t -> t -> bool

(** [commutes a b] is a sound (not complete) syntactic commutation check
    used by the peephole optimizer: gates on disjoint qubits always
    commute; diagonal gates commute with CNOT controls, X-axis gates with
    CNOT targets, CNOTs sharing only a control or only a target commute. *)
val commutes : t -> t -> bool

(** 2×2 matrix of a single-qubit gate (row-major).
    @raise Invalid_argument on two-qubit gates. *)
val matrix1 : t -> Ph_linalg.Cplx.t array

(** [remap f g] renames every qubit through [f] (used by routing and
    layout application). *)
val remap : (int -> int) -> t -> t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
