(** Gate-sequence circuits with the metrics used throughout the paper's
    evaluation: CNOT count, single-qubit count, total gate count and
    circuit depth. *)

type t

(** Incremental construction (all backends emit through a builder).
    [to_circuit] charges the builder's length to the
    [circuit_gates_built] counter, once; [add] touches no counter. *)
module Builder : sig
  type circuit := t
  type t

  val create : int -> t
  val n_qubits : t -> int
  val add : t -> Gate.t -> unit
  val add_list : t -> Gate.t list -> unit
  val append : t -> circuit -> unit
  val length : t -> int
  val to_circuit : t -> circuit
end

val of_gates : int -> Gate.t list -> t

(** [of_array n gates] takes [gates] as the circuit's gate array, without
    a copy: the caller must not write to it afterwards. *)
val of_array : int -> Gate.t array -> t
val empty : int -> t

val n_qubits : t -> int
val gates : t -> Gate.t array
val to_list : t -> Gate.t list
val length : t -> int

val concat : t -> t -> t

(** {1 Metrics} *)

(** Number of [Cnot] gates; each [Swap] counts as 3 (its standard
    decomposition), matching post-compilation accounting. *)
val cnot_count : t -> int

(** Number of [Swap] gates (each counted once, not decomposed). *)
val swap_count : t -> int

val single_qubit_count : t -> int
val total_count : t -> int

(** Circuit depth by per-qubit frontier: each gate adds one level on the
    qubits it touches; gates on disjoint qubits share levels.  [Swap]
    counts as depth 3 on its qubits. *)
val depth : t -> int

(** {1 Transformations} *)

(** Replace every [Swap] by its three-CNOT decomposition; charges the
    output length to [circuit_gates_built]. *)
val decompose_swaps : t -> t

(** [remap f c] renames qubits; [f] must be injective on [0..n-1]. *)
val remap : (int -> int) -> t -> t

(** Reverse gate order and invert every gate. *)
val dagger : t -> t

(** Qubits touched by at least one gate, ascending. *)
val used_qubits : t -> int list

(** [compact c] — relabel the used qubits to [0..k−1] (ascending order
    preserved), dropping idle wires; returns the compact circuit and the
    old→new mapping (defined on used qubits only).  Shrinks simulation
    cost on wide devices. *)
val compact : t -> t * (int -> int)

(** {1 Semantics (small n)} *)

(** [apply c sv] runs the circuit on a statevector in place. *)
val apply : t -> Ph_linalg.Statevector.t -> unit

(** Full unitary; practical up to ~10 qubits.
    @raise Invalid_argument beyond 12 qubits. *)
val unitary : t -> Ph_linalg.Matrix.t

(** {1 Structure} *)

(** ASAP layering: partitions gates into maximal sets of
    qubit-disjoint gates, in order. *)
val layers : t -> Gate.t list list

val pp : Format.formatter -> t -> unit
