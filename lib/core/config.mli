(** Compilation configurations: which scheduler, which backend, whether
    the generic gate-level cleanup runs afterwards, and how strictly the
    per-stage linter checks the pipeline. *)

open Ph_hardware

type schedule =
  | Program_order  (** no scheduling pass — blocks as written *)
  | Gco            (** gate-count-oriented, Section 4.1 *)
  | Depth_oriented (** Algorithm 1 *)
  | Max_overlap    (** greedy TSP-style chaining (Gui et al.) *)
  | Phoenix_like
      (** PHOENIX-style IR optimizer ([Ph_opt]): commuting-set grouping,
          simultaneous diagonalization into shared Clifford frames, block
          fusion/cancellation — then frame-bracketed synthesis.  Not
          supported on the [Ion_trap] backend. *)

type backend =
  | Ft  (** fault-tolerant: all-to-all, cancellation-maximizing *)
  | Sc of { coupling : Coupling.t; noise : Noise_model.t option }
      (** superconducting: coupling-constrained, SWAP-minimizing *)
  | Ion_trap
      (** trapped-ion: all-to-all with native Mølmer–Sørensen gates *)

type t = {
  schedule : schedule;
  backend : backend;
  peephole : bool;  (** run the generic cleanup stage (default true;
                        ignored — and defaulted to [false] — on
                        [Ion_trap], whose native lowering interleaves
                        its own cleanup) *)
  lint : Ph_lint.Diag.level;
      (** [Off] (default): no checking.  [Warn] / [Error_level]: every
          stage boundary of [Compiler.compile] runs its
          [Ph_lint] checker and the findings land in
          [Report.trace.lint]; the distinction between the two levels is
          enforced by the drivers (phc exit code, fuzzer property, CI),
          not by the compiler itself. *)
  window : int;
      (** Candidate scan window of the window-limited schedulers
          ([Depth_oriented] leader/padding scans, [Max_overlap]
          chaining); default {!default_window}.  Recorded in
          [Report.trace.counters] so bench runs document the knob.
          Ignored by [Program_order] and [Gco]. *)
  analyze : bool;
      (** Run the static analyzer ([Ph_analysis]) inside the compile:
          commutation-graph lower bounds and optimality-gap [ANA0xx]
          diagnostics land in [Report.trace] (default [false]).  The
          schedule certificate is emitted unconditionally. *)
  gap_threshold : float;
      (** Achieved/floor ratio above which the analyzer's ANA003
          warning fires; default {!default_gap_threshold}. *)
  sched_jobs : int;
      (** Worker domains for the schedulers' candidate scans within one
          compile ([Ph_schedule.Arena.leader_argmax] over [Ph_exec.Team];
          default 1 = sequential).  Output-invariant: schedules,
          metrics, and perf counters are bit-identical at any value, so
          it is excluded from {!fingerprint} and compiles at different
          settings share cache entries. *)
}

(** The schedulers' shared default scan window
    ([Ph_schedule.Depth_oriented.default_window]). *)
val default_window : int

(** Default ANA003 gap-warning threshold (8×): generous enough that the
    table-2 suites stay warning-free at their observed gaps, tight
    enough to flag a schedule an order of magnitude off its floor. *)
val default_gap_threshold : float

(** FT defaults: GCO scheduling (the paper's FT results pair naturally
    with either GCO or DO; see Table 4), peephole on. *)
val ft :
  ?schedule:schedule ->
  ?lint:Ph_lint.Diag.level ->
  ?window:int ->
  ?analyze:bool ->
  ?gap_threshold:float ->
  ?sched_jobs:int ->
  unit ->
  t

(** SC defaults: DO scheduling on the given device, peephole on. *)
val sc :
  ?schedule:schedule ->
  ?noise:Noise_model.t ->
  ?lint:Ph_lint.Diag.level ->
  ?window:int ->
  ?analyze:bool ->
  ?gap_threshold:float ->
  ?sched_jobs:int ->
  Coupling.t ->
  t

(** Ion-trap defaults: GCO scheduling (all-to-all, gate count is the
    objective), peephole [false] — the backend never runs the generic
    stage, and the config must not pretend it does. *)
val ion_trap :
  ?schedule:schedule ->
  ?lint:Ph_lint.Diag.level ->
  ?window:int ->
  ?analyze:bool ->
  ?gap_threshold:float ->
  ?sched_jobs:int ->
  unit ->
  t

(** Compiler version tag, part of every compile-cache key
    ({!fingerprint} embeds it).  Bumped whenever any pass can change its
    output for an unchanged (program, config) pair, which invalidates
    all previously cached compiles. *)
val version_tag : string

(** [schedule_name s] — the CLI spelling
    ([gco]/[do]/[maxov]/[phoenix]/[none]). *)
val schedule_name : schedule -> string

(** Stable textual identity of the configuration: version tag, schedule,
    backend (SC includes qubit count and the sorted coupling edge list),
    peephole, lint level and window.  Two configs with equal fingerprints
    compile any program to bit-identical results, so the fingerprint is
    the config component of [Ph_pool.Cache] keys. *)
val fingerprint : t -> string

(** [false] when the config embeds state with no stable identity (an SC
    noise model): such compiles must bypass the cache. *)
val cacheable : t -> bool
