(** Paulihedral's public compile driver: Pauli IR program in, verified
    lowered circuit out.

    The flow mirrors Figure 1: a technology-independent block scheduling
    pass (GCO or DO) followed by a technology-dependent block-wise
    synthesis pass (FT or SC backend), then the generic gate-level
    cleanup.  The output carries the rotation trace and layouts so the
    [Ph_verify] checkers can certify the compilation. *)

open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware

type output = {
  circuit : Circuit.t;
      (** lowered circuit; on the SC backend SWAPs are already decomposed
          into CNOTs *)
  rotations : (Pauli_string.t * float) list;
      (** logical rotation trace, emission order *)
  initial_layout : Layout.t option;  (** SC backend only *)
  final_layout : Layout.t option;
  metrics : Report.metrics;
  trace : Report.trace;
      (** per-stage wall-clock timings and pass counters of this compile *)
  certificate : Ph_analysis.Certificate.t;
      (** proof-carrying schedule certificate, emitted on every compile;
          [Ph_analysis.Certificate.check] replays it against the input
          program with no dependency on the scheduler.  Under
          [Phoenix_like] the certified multiset is the {e post-opt}
          program's — replay against {!field-opt_program}. *)
  opt_program : Program.t option;
      (** the rewritten program when the Phoenix IR optimizer ran
          ([Config.schedule = Phoenix_like]); [None] otherwise *)
  verdict : bool Lazy.t;
      (** the compile's one Pauli-frame verdict; read it through
          {!verified} *)
}

(** [compile config program].  When [config.lint] is [Warn] or
    [Error_level], every stage boundary runs its [Ph_lint] checker
    (config consistency, IR well-formedness, schedule permutation and
    layer commutation, gate invariants, SC coupling/layout replay, and
    the final Pauli-frame spot-check); findings and checker time land in
    [trace.lint] / [trace.lint_s].  Linting never raises — drivers
    decide what is fatal (see {!lint_errors}). *)
val compile : Config.t -> Program.t -> output

(** Error-severity lint findings of a compile ([[]] when linting was
    off or clean). *)
val lint_errors : output -> Ph_lint.Diag.t list

(** Pauli-frame certification of a compile against its own rotation
    trace ({!Ph_verify.Pauli_frame.verify}: SC outputs against their
    layouts, FT / ion-trap outputs under the identity placement).  It
    forces [verdict], built once by {!lower}: a lint-enabled compile has
    already forced it, otherwise the first call runs the verifier, and a
    verifier exception is re-raised on every call.  [Lazy.t] is not
    domain-safe: only the domain that owns an output may call this, and
    outputs must never be compared structurally. *)
val verified : output -> bool

(** A compile's lint accumulator; only {!compile} makes one. *)
type lint

(** The tail's result: [metrics] has [seconds = 0.], and [trace] sets
    only the SWAP-decomposition and peephole fields. *)
type lowered = {
  circuit : Circuit.t;
  metrics : Report.metrics;
  trace : Report.trace;
  swap_words : int;  (** minor words of SWAP decomposition *)
  peephole_words : int;
  verdict : bool Lazy.t;
}

(** [lower ?lint ?replay ~peephole ~rotations ?layouts c] — the
    post-synthesis tail of every compile family ({!compile} and the
    {!Pipelines} baselines): gate checks, the SC replay check when
    [replay = (device, claimed SWAPs)], SWAP decomposition when
    [layouts] is given, the peephole when [peephole], the final gate
    and Pauli-frame checks, metrics, and the lazy verdict against
    [rotations].  Checks run only under a [lint] accumulator. *)
val lower :
  ?lint:lint ->
  ?replay:Coupling.t * int ->
  peephole:bool ->
  rotations:(Pauli_string.t * float) list ->
  ?layouts:Layout.t * Layout.t ->
  Circuit.t ->
  lowered
