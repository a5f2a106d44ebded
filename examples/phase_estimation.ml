(* Iterative phase estimation with a controlled simulation kernel — the
   "(controlled-)exp(iHt)" form of the paper's kernel (Section 2.2).

   We estimate an eigenvalue of a small Ising Hamiltonian: computational
   basis states are eigenstates of the diagonal H, so the phase the
   ancilla accumulates is exactly -E·t, and Kitaev's iterative protocol
   reads its bits from most to least significant.

     dune exec examples/phase_estimation.exe *)

open Paulihedral
open Ph_pauli
open Ph_pauli_ir
open Ph_linalg
open Ph_gatelevel

let n_system = 4
let n_qubits = n_system + 1
let ancilla = n_system
let time = 0.7
let bits = 12

(* A diagonal Ising ring: H = Σ J_e Z_u Z_v. *)
let hamiltonian_terms =
  List.mapi
    (fun i (u, v) ->
      Pauli_term.make
        (Pauli_string.of_support n_qubits [ u, Pauli.Z; v, Pauli.Z ])
        (0.3 +. (0.2 *. float_of_int i)))
    [ 0, 1; 1, 2; 2, 3; 3, 0 ]

(* Exact eigenvalue of the basis state |b⟩. *)
let exact_energy b =
  List.fold_left
    (fun acc (t : Pauli_term.t) ->
      let sign =
        List.fold_left
          (fun s q -> if (b lsr q) land 1 = 1 then -.s else s)
          1.
          (Pauli_string.support t.str)
      in
      acc +. (sign *. t.coeff))
    0. hamiltonian_terms

let () =
  let eigenstate = 0b0110 in
  let energy = exact_energy eigenstate in
  Printf.printf "Ising ring on %d qubits; eigenstate |%d> with E = %+.4f\n"
    n_system eigenstate energy;

  (* Compile exp(-iHt) once with Paulihedral; the ancilla is left free. *)
  let program =
    Trotter.trotterize ~n_qubits ~terms:hamiltonian_terms ~time ~steps:1
  in
  let kernel = Compiler.compile (Config.ft ()) program in
  Printf.printf "kernel: %s\n"
    (Format.asprintf "%a" Report.pp_metrics kernel.Compiler.metrics);

  (* The diagonal H makes single-step Trotter exact: the circuit applies
     the phase e^{-iEt} to |b⟩.  Iterative PE recovers the phase
     φ = -E·t/(2π) bit by bit, least significant first. *)
  let apply_iteration ~k ~feedback =
    let sv = Statevector.basis n_qubits eigenstate in
    let b = Circuit.Builder.create n_qubits in
    Circuit.Builder.add b (Gate.H ancilla);
    Circuit.Builder.append b
      (Ph_synthesis.Controlled.powers kernel.Compiler.circuit ~control:ancilla ~k);
    Circuit.Builder.add b (Gate.Rz (feedback, ancilla));
    Circuit.Builder.add b (Gate.H ancilla);
    Circuit.apply (Circuit.Builder.to_circuit b) sv;
    (* Probability that the ancilla reads 1. *)
    let p1 = ref 0. in
    for idx = 0 to Statevector.dim sv - 1 do
      if (idx lsr ancilla) land 1 = 1 then p1 := !p1 +. Statevector.prob sv idx
    done;
    if !p1 > 0.5 then 1 else 0
  in
  let phase = ref 0. in
  for j = bits - 1 downto 0 do
    (* Measured phase so far occupies the lower bits; feed it back. *)
    let feedback = -2. *. Float.pi *. !phase *. float_of_int (1 lsl j) in
    let bit = apply_iteration ~k:j ~feedback in
    phase := (!phase +. (float_of_int bit /. float_of_int (2 lsl j)))
  done;
  (* φ = fractional part of -E·t/(2π). *)
  let expected = Float.rem (-.energy *. time /. (2. *. Float.pi)) 1.0 in
  let expected = if expected < 0. then expected +. 1. else expected in
  Printf.printf "estimated phase: %.6f (expected %.6f, %d bits)\n" !phase expected bits;
  let estimated_energy =
    (* invert φ = (-E·t/2π) mod 1, assuming |E·t| < π *)
    let f = if !phase > 0.5 then !phase -. 1. else !phase in
    -.f *. 2. *. Float.pi /. time
  in
  Printf.printf "estimated energy: %+.4f (exact %+.4f)\n" estimated_energy energy;
  if abs_float (estimated_energy -. energy) < 1e-2 then
    print_endline "phase estimation succeeded"
  else print_endline "phase estimation FAILED"
