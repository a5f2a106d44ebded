(* Compiling a UCCSD VQE ansatz (the paper's flagship SC workload):
   the block structure keeps each excitation's Jordan-Wigner strings
   together under one variational parameter, and the block-wise passes
   exploit exactly that structure.

     dune exec examples/uccsd_vqe.exe *)

open Paulihedral
open Ph_pauli_ir

let describe name (r : Pipelines.run) =
  let m = r.Pipelines.metrics in
  Printf.printf "  %-22s cnot=%-6d single=%-6d total=%-6d depth=%-6d %.2fs  verified=%b\n"
    name m.Report.cnot m.Report.single m.Report.total m.Report.depth m.Report.seconds
    (Pipelines.verified r)

let () =
  let n_qubits = 12 in
  let ansatz = Ph_benchmarks.Uccsd.ansatz ~n_qubits () in
  let singles, doubles = Ph_benchmarks.Uccsd.excitation_counts ~n_qubits in
  Printf.printf
    "UCCSD-%d ansatz: %d single + %d double excitations = %d blocks, %d Pauli strings\n"
    n_qubits singles doubles (Program.block_count ansatz) (Program.term_count ansatz);

  (* Every string inside a block shares its excitation's parameter and
     the strings mutually commute — the constraint the IR encodes. *)
  let all_commuting =
    List.for_all Block.mutually_commuting (Program.blocks ansatz)
  in
  Printf.printf "all excitation blocks internally commuting: %b\n\n" all_commuting;

  Printf.printf "Fault-tolerant backend:\n";
  describe "naive" (Pipelines.naive_ft ansatz);
  describe "PH (GCO)" (Pipelines.ph (Config.ft ~schedule:Config.Gco ()) ansatz);
  describe "PH (DO)"
    (Pipelines.ph (Config.ft ~schedule:Config.Depth_oriented ()) ansatz);
  describe "tket-like (pairwise)" (Pipelines.tk_ft ansatz);
  describe "tket-like (sets)" (Pipelines.tk_ft ~strategy:`Sets ansatz);

  Printf.printf "\nTrapped-ion backend (all-to-all, native MS gates):\n";
  describe "PH (ion)" (Pipelines.ph (Config.ion_trap ()) ansatz);

  let device = Ph_hardware.Devices.manhattan in
  Printf.printf "\nSuperconducting backend (IBM Manhattan, 65 qubits):\n";
  describe "naive + router" (Pipelines.naive_sc device ansatz);
  describe "PH" (Pipelines.ph (Config.sc device) ansatz);
  describe "tket-like + router" (Pipelines.tk_sc device ansatz)
