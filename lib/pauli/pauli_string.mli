(** n-qubit Pauli strings.

    A Pauli string [P = σ_{n-1} σ_{n-2} ⋯ σ_0] assigns one Pauli operator
    to each qubit; qubit [i] carries [σ_i].  The textual notation follows
    the paper: the leftmost character is the operator on the
    highest-indexed qubit ("little-endian from q_{n-1} down to q_0").

    Strings are immutable; all operations returning a string allocate. *)

type t

(** {1 Construction} *)

(** [identity n] is the all-[I] string on [n] qubits. *)
val identity : int -> t

(** [make n f] builds a string where qubit [i] carries [f i]. *)
val make : int -> (int -> Pauli.t) -> t

(** [of_ops a] uses [a.(i)] as the operator on qubit [i]. *)
val of_ops : Pauli.t array -> t

(** [of_string s] parses e.g. ["YZIXZ"]: leftmost char is the operator on
    the highest qubit ([q4=Y, ..., q0=Z] here).
    @raise Invalid_argument on non-Pauli characters or empty input. *)
val of_string : string -> t

(** [of_support n pairs] places each [(qubit, op)] of [pairs] on the
    identity string of [n] qubits.
    @raise Invalid_argument if a qubit index is out of range. *)
val of_support : int -> (int * Pauli.t) list -> t

(** [with_ops p pairs] is [p] with the listed positions replaced —
    a copy; [p] is unchanged. *)
val with_ops : t -> (int * Pauli.t) list -> t

(** {1 Access} *)

val n_qubits : t -> int

(** [get p i] is the operator on qubit [i]. *)
val get : t -> int -> Pauli.t

val to_ops : t -> Pauli.t array

(** Inverse of {!of_string}. *)
val to_string : t -> string

(** {1 Structure} *)

(** [support p] lists the qubits carrying a non-identity operator, in
    ascending order. *)
val support : t -> int list

(** [support_set p] is {!support} as a {!Qubit_set.t} — the occupancy
    form the schedulers consume. *)
val support_set : t -> Qubit_set.t

(** [weight p] is the number of non-identity operators in [p]. *)
val weight : t -> int

val is_identity : t -> bool

(** [active p i] is [true] iff qubit [i] carries a non-identity operator. *)
val active : t -> int -> bool

(** {1 Algebra} *)

(** [commutes p q] decides [pq = qp]: strings commute iff they anticommute
    on an even number of qubits. *)
val commutes : t -> t -> bool

(** [mul p q] is the product as [(k, r)] with [p·q = i^k·r], [k ∈ 0..3]. *)
val mul : t -> t -> int * t

(** {1 Comparisons and metrics} *)

val equal : t -> t -> bool

(** Structural comparison (usable as a [Map]/[Set] order). *)
val compare : t -> t -> int

val hash : t -> int

(** [compare_lex ?rank p q] is the paper's lexicographic order: qubits are
    compared from [n-1] down to [0] using [rank] (default
    {!Pauli.paper_rank}, i.e. [X < Y < Z < I]). *)
val compare_lex : ?rank:(Pauli.t -> int) -> t -> t -> int

(** [overlap p q] counts qubits on which [p] and [q] carry the {e same}
    non-identity operator — the paper's gate-cancellation potential
    metric. *)
val overlap : t -> t -> int

(** [shared_support p q] lists the qubits counted by {!overlap},
    ascending. *)
val shared_support : t -> t -> int list

(** [disjoint p q] is [true] iff the supports do not intersect (the
    strings can execute in parallel). *)
val disjoint : t -> t -> bool

val pp : Format.formatter -> t -> unit

(**/**)

(** Raw bitplane export for the scheduler's structure-of-arrays arena
    ([Ph_schedule.Arena]): build-time only, so the arena's inner loops
    can run over contiguous word arrays without re-deriving strings.
    [blit_planes p x z pos] copies the plane words ([Bits.words_for n]
    of them) into [x]/[z] starting at [pos]; [or_support_words p dst
    pos] ORs the per-word support mask ([x lor z]) into [dst] at
    [pos]. *)
val blit_planes : t -> int array -> int array -> int -> unit

val or_support_words : t -> int array -> int -> unit

(** The reverse direction, for the Pauli-frame verifier's flat tableau
    and the certificate's binary block digests: [of_planes n x z pos]
    is the [n]-qubit string whose plane words are the [Bits.words_for
    n] words of [x]/[z] at [pos] (copied; bits at positions [>= n]
    must be zero), and [x_word p w]/[z_word p w] read word [w] of each
    plane. *)
val of_planes : int -> int array -> int array -> int -> t

val x_word : t -> int -> int
val z_word : t -> int -> int

(**/**)
