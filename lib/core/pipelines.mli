(** The evaluation's end-to-end configurations: every compiler is
    followed by the same generic stage (peephole cleanup, and routing +
    SWAP decomposition on the SC backend), mirroring how the paper runs
    each first-stage tool through Qiskit-L3.  Used by the bench harness
    and the examples. *)

open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware

type run = {
  circuit : Circuit.t;
  rotations : (Pauli_string.t * float) list;
  initial_layout : Layout.t option;
  final_layout : Layout.t option;
  metrics : Report.metrics;
  trace : Report.trace;
      (** per-stage timings and pass counters; baseline pipelines fill
          the synthesis/peephole stages and leave scheduling at zero *)
  verdict : bool Lazy.t;  (** built by {!Compiler.lower}; see {!verified} *)
}

(** Paulihedral under one configuration ([Compiler.compile]): the
    [Config.t] names the compile — scheduler, backend, lint level,
    window — so it is also the run's cache identity
    ([Config.fingerprint]).  Build it with [Config.ft], [Config.sc] or
    [Config.ion_trap]. *)
val ph : Config.t -> Program.t -> run

(** t|ket⟩-style commuting-set synthesis, FT.  [strategy] as in
    [Ph_baselines.Tk_like.compile]: [`Pairwise] (default, the tket the
    paper benchmarked) or [`Sets] (stronger van den Berg–Temme
    diagonalization). *)
val tk_ft : ?strategy:[ `Pairwise | `Sets ] -> Ph_pauli_ir.Program.t -> run

(** t|ket⟩-style + generic router on an SC device. *)
val tk_sc : ?strategy:[ `Pairwise | `Sets ] -> Coupling.t -> Program.t -> run

(** Naive per-term synthesis, FT (the Table 1 reference). *)
val naive_ft : Program.t -> run

(** Naive + generic router on an SC device, with the router's
    [initial]/[lookahead] options. *)
val naive_sc :
  ?initial:[ `Identity | `Most_connected ] ->
  ?lookahead:int ->
  Coupling.t ->
  Program.t ->
  run

(** Algorithm-specific QAOA compiler on an SC device (Table 3). *)
val qaoa_sc : Coupling.t -> Program.t -> run

(** The run's Pauli-frame verdict, as {!Compiler.verified}: FT runs
    under the identity placement, SC runs against their layouts. *)
val verified : run -> bool
