(* The compile path exactly as [phc compile --json --normalize] runs it:
   parse the text, compile, certify with the Pauli-frame verifier, and
   serialize the normalized record.  [run] is what the benchmark times;
   the certificate replay ([certificate_ok]) is a correctness gate
   outside the timed window. *)

open Paulihedral
open Ph_pauli_ir

type result = {
  program : Program.t;
  out : Compiler.output;
  verified : bool;
  json : string;  (** the normalized record, as phc prints it *)
}

let counts r =
  let m = r.out.Compiler.metrics in
  Report.(m.cnot, m.single, m.total, m.depth)

let parse (item : Inputs.item) = Parser.parse ~params:item.Inputs.params item.Inputs.text

let verify (out : Compiler.output) =
  match out.Compiler.initial_layout, out.Compiler.final_layout with
  | Some initial, Some final ->
    Ph_verify.Pauli_frame.verify_sc ~circuit:out.Compiler.circuit
      ~trace:out.Compiler.rotations ~initial ~final
  | _ -> Ph_verify.Pauli_frame.verify_ft out.Compiler.circuit ~trace:out.Compiler.rotations

let serialize (item : Inputs.item) program (out : Compiler.output) =
  let record =
    {
      Report.bench = item.Inputs.name;
      config = Inputs.config_name item;
      qubits = Program.n_qubits program;
      paulis = Program.term_count program;
      metrics = out.Compiler.metrics;
      trace = out.Compiler.trace;
    }
  in
  Json.to_string (Report.record_to_json (Report.normalize_record record))

(* [traced] records a span around each library call. *)
let run ?(traced = false) (item : Inputs.item) =
  let span name f = if traced then Span.record name f else f () in
  let program = span "pauli_ir.parse" (fun () -> parse item) in
  let out =
    span "core.compile" (fun () -> Compiler.compile (Inputs.config_of item) program)
  in
  let verified = span "verify.frame" (fun () -> verify out) in
  { program; out; verified; json = span "core.serialize" (fun () -> serialize item program out) }

(* Certificate replay against the input program (the post-opt program
   under phoenix), with the achieved metrics' accounting. *)
let certificate_ok r =
  let m = r.out.Compiler.metrics in
  let program = Option.value r.out.Compiler.opt_program ~default:r.program in
  Ph_analysis.Certificate.check ~program
    ~metrics:Report.(m.cnot, m.single, m.depth)
    r.out.Compiler.certificate
  = []
