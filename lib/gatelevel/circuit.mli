(** Gate-sequence circuits with the metrics used throughout the paper's
    evaluation: CNOT count, single-qubit count, total gate count and
    circuit depth.

    A circuit is flat: gate [i] is one int {e code} ([codes c].(i))
    plus one angle ([angles c] at [i], [0.] on gates without one).  A
    code packs the gate's kind in bits 0–3 (the {!kind} constructors'
    order), its first qubit in bits 4–29 and its last qubit from bit 30
    (equal to the first on single-qubit gates), so every qubit index is
    below 2{^26}.  This is the only gate encoding of the gate level:
    emitters write codes, and the peephole, the metrics and the
    Pauli-frame verifier read them in place.  {!gates} and {!of_gates}
    convert to and from {!Gate.t} for the code that wants boxed gates
    (QASM, drawing, lint, simulation, baselines, tests).

    Ownership: a {!Builder.t} has one owner while it builds; a circuit
    is immutable once built, and the arrays {!codes} and {!angles}
    return are its own, to be read, never written. *)

type t

(** {1 Gate codes} *)

(** Gate kinds, in {!Gate.t} declaration order. *)
type kind = H | X | Y | Z | S | Sdg | Rz | Rx | Ry | Cnot | Swap | Rxx

(** The largest qubit index a code holds: 2{^26} − 1. *)
val max_qubit : int

(** [code k a b] is the code of kind [k] on qubits [a] (first) and [b]
    (last, e.g. a CNOT's target); a single-qubit kind ignores [b].
    @raise Invalid_argument if a qubit is negative or above
    {!max_qubit}. *)
val code : kind -> int -> int -> int

(** [encode g] is the code of [g] (its angle aside).
    @raise Invalid_argument as {!code}. *)
val encode : Gate.t -> int

val kind : int -> kind
val first : int -> int
val last : int -> int

(** Incremental construction (all backends emit through a builder).
    [to_circuit] charges the builder's length to the
    [circuit_gates_built] counter, once; no adder touches a counter.
    The code adders allocate nothing but buffer space: a small first
    buffer doubles up to 4096 gates, then further gates go into new
    4096-gate chunks, so no large buffer is ever copied or dropped
    before [to_circuit].  A builder created with the exact [capacity]
    it receives hands its buffers over as the circuit. *)
module Builder : sig
  type circuit := t
  type t

  (** [create ?capacity n]: an empty builder for [n] qubits whose
      buffers start with room for [capacity] gates (default 64). *)
  val create : ?capacity:int -> int -> t

  val n_qubits : t -> int

  (** [add b g] encodes [g].
      @raise Invalid_argument if a qubit of [g] is negative or above
      {!max_qubit}. *)
  val add : t -> Gate.t -> unit

  val add_list : t -> Gate.t list -> unit

  (** [add_code b c] adds the gate of code [c] with angle [0.]. *)
  val add_code : t -> int -> unit

  (** [add_rotation b c theta] adds the gate of code [c] with angle
      [theta]. *)
  val add_rotation : t -> int -> float -> unit

  (** [append b c] copies [c]'s gates, one blit per chunk. *)
  val append : t -> circuit -> unit

  (** [add_from b c i] copies gate [i] of [c], angle included. *)
  val add_from : t -> circuit -> int -> unit

  val length : t -> int

  (** The gates so far, in exact-size arrays: the first buffer itself
      when it is exactly full (the next adder starts another), else a
      copy of the chunks. *)
  val to_circuit : t -> circuit
end

(** @raise Invalid_argument as {!Builder.add}. *)
val of_gates : int -> Gate.t list -> t

val empty : int -> t

val n_qubits : t -> int
val length : t -> int

(** The gates as boxed values, one fresh array per call. *)
val gates : t -> Gate.t array

val to_list : t -> Gate.t list

(** [codes c] and [angles c]: the circuit's own arrays (see the
    ownership rule above), of length {!length}. *)
val codes : t -> int array

val angles : t -> Float.Array.t

(** [gate_to_string c i] is {!Gate.to_string} of gate [i] (for error
    messages). *)
val gate_to_string : t -> int -> string

val concat : t -> t -> t

(** {1 Metrics} *)

(** [counts c] is [(cnot, single, depth)] in one walk over the codes:
    {!cnot_count}, {!single_qubit_count} and {!depth} read it. *)
val counts : t -> int * int * int

(** Number of [Cnot] and [Rxx] gates; each [Swap] counts as 3 (its
    standard decomposition), matching post-compilation accounting. *)
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
