(* Quickstart: write a simulation kernel in the textual Pauli IR, compile
   it for both backends, inspect the result, and verify it.

     dune exec examples/quickstart.exe *)

open Paulihedral

(* An H2-style kernel (Figure 6a): one weighted Pauli string per block,
   all sharing the Trotter step dt. *)
let h2 =
  {|
  // H2 molecule fragment, Jordan-Wigner encoded
  {(IIIZ,  0.171), dt};
  {(IIZI,  0.171), dt};
  {(IZII, -0.223), dt};
  {(ZIII, -0.223), dt};
  {(IIZZ,  0.169), dt};
  {(IZIZ,  0.120), dt};
  {(ZIIZ,  0.166), dt};
  {(IZZI,  0.166), dt};
  {(ZIZI,  0.120), dt};
  {(ZZII,  0.174), dt};
  {(XXYY, -0.045), dt};
  {(XYYX,  0.045), dt};
  {(YXXY,  0.045), dt};
  {(YYXX, -0.045), dt};
|}

let () =
  let program = Ph_pauli_ir.Parser.parse ~params:[ "dt", 0.1 ] h2 in
  Format.printf "Parsed kernel: %d blocks on %d qubits@."
    (Ph_pauli_ir.Program.block_count program)
    (Ph_pauli_ir.Program.n_qubits program);

  (* Fault-tolerant backend: all-to-all connectivity, cancellation-
     oriented synthesis. *)
  let ft = Compiler.compile (Config.ft ()) program in
  Format.printf "@.FT backend:   %a@." Report.pp_metrics ft.Compiler.metrics;
  Format.printf "verified (Pauli frame): %b@."
    (Ph_verify.Pauli_frame.verify ~trace:ft.Compiler.rotations ft.Compiler.circuit);
  Format.printf "verified (dense unitary): %b@."
    (Ph_verify.Unitary_check.circuit_implements ft.Compiler.circuit ft.Compiler.rotations);

  (* Superconducting backend: a 5-qubit line device. *)
  let coupling = Ph_hardware.Devices.line 5 in
  let sc = Compiler.compile (Config.sc coupling) program in
  Format.printf "@.SC backend (5-qubit line): %a@." Report.pp_metrics sc.Compiler.metrics;
  (* the compile's own verdict: the same check, against its layouts *)
  Format.printf "verified on hardware: %b@." (Compiler.verified sc);

  (* Draw the start of the FT circuit. *)
  Format.printf "@.FT circuit (first layers):@.%s"
    (Ph_gatelevel.Draw.render ~max_columns:12 ft.Compiler.circuit);
  Format.printf "(%d gates total)@." (Ph_gatelevel.Circuit.length ft.Compiler.circuit)
