(** Dense complex matrices, sized for circuit verification on a handful of
    qubits (dimensions up to a few hundred). *)

type t

val rows : t -> int
val cols : t -> int

(** [create r c] is the [r × c] zero matrix. *)
val create : int -> int -> t

(** [init r c f] fills entry [(i, j)] with [f i j]. *)
val init : int -> int -> (int -> int -> Cplx.t) -> t

(** [identity n] is the [n × n] identity. *)
val identity : int -> t

val get : t -> int -> int -> Cplx.t
val set : t -> int -> int -> Cplx.t -> unit

val copy : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : Cplx.t -> t -> t

(** Matrix product. @raise Invalid_argument on shape mismatch. *)
val mul : t -> t -> t

(** Kronecker product; [kron a b] has [a]'s structure at block level. *)
val kron : t -> t -> t

(** Conjugate transpose. *)
val dagger : t -> t

val trace : t -> Cplx.t

(** Frobenius norm of the difference. *)
val dist : t -> t -> float

(** [equal ?eps a b] is entry-wise approximate equality. *)
val equal : ?eps:float -> t -> t -> bool

(** [equal_up_to_phase ?eps a b] decides whether [a = e^{iφ}·b] for some
    global phase [φ].  The phase is estimated from the largest-magnitude
    entry of [b]. *)
val equal_up_to_phase : ?eps:float -> t -> t -> bool

(** [is_unitary ?eps u] checks [u·u† = 1]. *)
val is_unitary : ?eps:float -> t -> bool

(** [apply_vec m v] is the matrix-vector product. *)
val apply_vec : t -> Cplx.t array -> Cplx.t array

val pp : Format.formatter -> t -> unit
