(** Device topologies used in the evaluation. *)

(** IBM Manhattan: the 65-qubit heavy-hexagon processor used as the SC
    backend (Section 6.1). *)
val manhattan : Coupling.t

(** IBM Melbourne-class 16-qubit device (2×8 ladder) used for the
    real-system QAOA study (Section 6.4). *)
val melbourne : Coupling.t

(** [line n] — 1-D nearest-neighbour chain. *)
val line : int -> Coupling.t

(** [grid rows cols] — 2-D nearest-neighbour lattice. *)
val grid : int -> int -> Coupling.t

(** [heavy_hex ~rows ~row_length] — parametric heavy-hexagon lattice in
    the style of IBM's Falcon/Hummingbird processors: [rows] horizontal
    lines of [row_length] qubits, linked by bridge qubits every four
    columns with alternating offsets (0 on even gaps, 2 on odd gaps).
    Max degree 3, like the real devices.
    @raise Invalid_argument when [row_length < 3] or [rows < 1]. *)
val heavy_hex : rows:int -> row_length:int -> Coupling.t
