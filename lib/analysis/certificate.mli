(** Proof-carrying schedule certificates.

    [Compiler.compile] attaches a compact certificate to every output:
    per layer, the digest of the leader block, the digests of every
    block in the layer, the layer's active-qubit mask, and an estimated
    block depth; globally, the block count, the summed depth estimate
    and the achieved cost accounting.  {!check} replays the certificate
    against the {e input program only} — this module never touches the
    scheduler, so a certificate validates independently of the code
    that produced the schedule (CI runs the checker over every compile).

    Block digests are MD5 over the block's packed binary form — qubit
    count, term count, each term's plane words and coefficient bits,
    the parameter value's bits — with terms in a fixed total order on
    (planes, coefficient bits), so they are insensitive to the term
    reorderings schedulers are allowed to make, while any change to a
    string, coefficient (including [-0.] for [0.]), parameter value or
    qubit count produces a new digest.

    Failures surface as stable [Ph_lint.Diag] codes:
    - [ANA010] — version or qubit-count mismatch;
    - [ANA011] — block digest multiset differs from the program;
    - [ANA012] — a layer record is internally inconsistent (leader not
      first, wrong qubit mask, wrong depth estimate, wrong total);
    - [ANA013] — a padding block overlaps its layer's leader;
    - [ANA014] — cost accounting differs from the compiled metrics;
    - [ANA015] — the Phoenix optimizer accounting does not explain the
      certified block count. *)

type layer_cert = {
  leader_digest : string;
  block_digests : string list;  (** leader first, then padding *)
  qubits_hex : string;  (** layer active-qubit mask, little-endian hex *)
  est_depth : int;  (** max single-block depth estimate in the layer *)
}

type opt_acc = {
  blocks_in : int;  (** blocks in the pre-opt program *)
  groups : int;  (** commuting classes the grouping pass produced *)
  fused : int;  (** blocks removed by fusion/cancellation *)
}
(** Accounting of the Phoenix IR optimizer ([Ph_opt.Pass]) when it ran
    before scheduling; the certified block multiset is then the
    {e post-opt} program's. *)

type t = {
  version : string;  (** ["phc-cert/2"]; any other version is ANA010 *)
  n_qubits : int;
  layers : layer_cert list;
  blocks : int;  (** total blocks across layers *)
  est_depth_total : int;  (** sum of per-layer [est_depth] *)
  cnot : int;  (** achieved metrics accounting *)
  single : int;
  depth : int;
  opt : opt_acc option;
      (** [None] unless [Config.schedule = Phoenix_like]; the JSON field
          is omitted when [None], so pre-Phoenix certificates round-trip
          unchanged *)
}

val version : string

val block_digest : Ph_pauli_ir.Block.t -> string
(** Canonical digest: hex MD5 of the packed block (see above).  Term
    order never changes the digest; any string, coefficient, parameter
    or qubit-count change does. *)

val build :
  n_qubits:int ->
  ?opt:opt_acc ->
  cnot:int ->
  single:int ->
  depth:int ->
  Ph_pauli_ir.Block.t list list ->
  t
(** Build a certificate from the scheduled layers (each a leader-first
    block list) and the achieved metrics.  [?opt] attaches the Phoenix
    optimizer's accounting; when given, {!check} additionally verifies
    [groups - fused] against the certified block count (ANA015). *)

val check :
  program:Ph_pauli_ir.Program.t -> ?metrics:int * int * int -> t -> Ph_lint.Diag.t list
(** Replay the certificate against the input program: recompute every
    digest, qubit mask and depth estimate from scratch and compare.
    [?metrics] is [(cnot, single, depth)] from the compiled output;
    when given, the certificate's cost accounting must match (ANA014).
    Returns [[]] iff the certificate validates.  Each call bumps
    [Ph_perf.Counter.ana_cert_checks]. *)

val to_json : t -> Ph_json.t
val of_json : Ph_json.t -> t
(** @raise Ph_json.Parse_error on schema mismatch. *)
