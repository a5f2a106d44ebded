(** Complex arithmetic helpers on top of [Stdlib.Complex]. *)

type t = Complex.t = { re : float; im : float }

val zero : t
val one : t
val i : t

val make : float -> float -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val conj : t -> t
val scale : float -> t -> t

val norm : t -> float
val norm2 : t -> float

(** [i_pow k] is [i^k] for any integer [k] (reduced mod 4). *)
val i_pow : int -> t

(** [exp_i theta] is [e^{iθ} = cos θ + i sin θ]. *)
val exp_i : float -> t

(** [approx_equal ?eps a b] is true when [|a - b| ≤ eps]
    (default [eps = 1e-9]). *)
val approx_equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
