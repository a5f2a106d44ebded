(** Shared lowering helpers: basis changes, CNOT chains, rotation angles.

    A term [(P, w)] in a block with parameter [t] lowers to
    [exp(-i·θ/2·P)] with [θ = 2wt]:
    basis-in gates map every [X]/[Y] operator to [Z] ([H], resp.
    [Rx(π/2)]); a CNOT chain accumulates the joint parity on the last
    ("root") qubit; one [Rz θ] fires there; the chain and basis gates are
    then mirrored. *)

open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel

(** What every backend returns: the circuit plus the logical rotation
    trace (string, angle) in emission order — the witness checked by the
    verifiers. *)
type result = {
  circuit : Circuit.t;
  rotations : (Pauli_string.t * float) list;
}

(** [angle param w] = [2·w·param.value]. *)
val angle : Block.param -> float -> float

(** [add_basis_in b op q] adds the basis-change gate entering the
    Z-frame of [op] on qubit [q] ([X → H], [Y → Rx(π/2)], [Z]/[I] →
    none). *)
val add_basis_in : Circuit.Builder.t -> Pauli.t -> int -> unit

(** Mirror of {!add_basis_in} ([Y → Rx(-π/2)]). *)
val add_basis_out : Circuit.Builder.t -> Pauli.t -> int -> unit

(** [chain_length p] is the number of gates {!emit_chain} emits for
    [p] along any valid order: a basis change in and out per [X]/[Y],
    two CNOTs per chain link and the rotation (0 for the identity). *)
val chain_length : Pauli_string.t -> int

(** [emit_chain b p ~order ~theta] lowers one term along the qubit
    [order] (which must hold each qubit of the support of [p] once, root
    last), reading the operators from [p]'s planes.
    @raise Invalid_argument if [order] is not the support of [p]. *)
val emit_chain : Circuit.Builder.t -> Pauli_string.t -> order:int array -> theta:float -> unit
