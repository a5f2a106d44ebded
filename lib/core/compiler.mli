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
    trace: SC outputs against their qubit layouts, FT / ion-trap
    outputs against the identity residue ({!Ph_verify.Pauli_frame.verify}). *)
val verified : output -> bool
