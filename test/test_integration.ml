(* Integration tests: whole-pipeline runs over the real benchmark suite,
   regression pins for the paper-matching results documented in
   EXPERIMENTS.md, and cross-checks between independent components
   (compilers × verifiers × simulators × QASM). *)

open Paulihedral
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware
open Ph_benchmarks

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let manhattan = Devices.manhattan

(* --- every pipeline on every (small) suite benchmark, verified --- *)

let small_sc = [ "REG-20-4"; "Rand-20-0.3"; "TSP-4"; "UCCSD-8" ]
let small_ft = [ "Ising-1D"; "Ising-2D"; "Heisen-1D"; "Heisen-2D"; "Rand-30" ]

let test_sc_pipelines_verified () =
  List.iter
    (fun name ->
      let prog = (Suite.find name).Suite.generate () in
      List.iter
        (fun (pname, run) ->
          check (name ^ "/" ^ pname) true (Pipelines.verified run))
        [
          "ph", Pipelines.ph (Config.sc manhattan) prog;
          "tk", Pipelines.tk_sc manhattan prog;
          "naive", Pipelines.naive_sc manhattan prog;
        ])
    small_sc

let test_ft_pipelines_verified () =
  List.iter
    (fun name ->
      let prog = (Suite.find name).Suite.generate () in
      List.iter
        (fun (pname, run) ->
          check (name ^ "/" ^ pname) true (Pipelines.verified run))
        [
          "ph-gco", Pipelines.ph (Config.ft ~schedule:Config.Gco ()) prog;
          "ph-do", Pipelines.ph (Config.ft ~schedule:Config.Depth_oriented ()) prog;
          "ph-it", Pipelines.ph (Config.ion_trap ()) prog;
          "tk", Pipelines.tk_ft prog;
          "naive", Pipelines.naive_ft prog;
        ])
    small_ft

let test_sc_circuits_respect_manhattan () =
  List.iter
    (fun name ->
      let prog = (Suite.find name).Suite.generate () in
      let run = Pipelines.ph (Config.sc manhattan) prog in
      check (name ^ " coupling") true
        (Array.for_all
           (fun g ->
             match g with
             | Gate.Cnot (a, b) | Gate.Swap (a, b) | Gate.Rxx (_, a, b) ->
               Coupling.adjacent manhattan a b
             | _ -> true)
           (Circuit.gates run.Pipelines.circuit)))
    small_sc

(* --- Table 1 regression pins (exact paper matches) --- *)

let naive_counts name =
  let prog = (Suite.find name).Suite.generate () in
  let r = Ph_synthesis.Naive.synthesize prog in
  Circuit.cnot_count r.Ph_synthesis.Emit.circuit,
  Circuit.single_qubit_count r.Ph_synthesis.Emit.circuit

let test_table1_pins () =
  List.iter
    (fun (name, cnot, single) ->
      let c, s = naive_counts name in
      check_int (name ^ " cnot") cnot c;
      check_int (name ^ " single") single s)
    [
      "REG-20-4", 80, 40;
      "REG-20-8", 160, 80;
      "REG-20-12", 240, 120;
      "TSP-4", 192, 112;
      "TSP-5", 400, 225;
      "Ising-1D", 58, 29;
      "Ising-2D", 98, 49;
      "Ising-3D", 118, 59;
      "Heisen-1D", 174, 319;
      "Heisen-2D", 294, 539;
      "Heisen-3D", 354, 649;
    ]

(* --- headline result regressions (generous bounds, not exact pins) --- *)

let test_ph_sc_beats_tk_on_uccsd () =
  let prog = (Suite.find "UCCSD-8").Suite.generate () in
  let ph = Pipelines.ph (Config.sc manhattan) prog in
  let tk = Pipelines.tk_sc manhattan prog in
  check
    (Printf.sprintf "ph %d < tk %d cnots" ph.Pipelines.metrics.Report.cnot
       tk.Pipelines.metrics.Report.cnot)
    true
    (ph.Pipelines.metrics.Report.cnot < tk.Pipelines.metrics.Report.cnot)

let test_reg20_4_near_paper () =
  (* Paper: 366 CNOT.  Pin a generous window so regressions surface. *)
  let prog = (Suite.find "REG-20-4").Suite.generate () in
  let ph = Pipelines.ph (Config.sc manhattan) prog in
  let c = ph.Pipelines.metrics.Report.cnot in
  check (Printf.sprintf "REG-20-4 cnot %d within [300, 450]" c) true
    (c >= 300 && c <= 450)

let test_ising_do_depth () =
  (* Paper: depth 6 for Ising-1D under PH(DO) — exact match we keep. *)
  let prog = (Suite.find "Ising-1D").Suite.generate () in
  let run = Pipelines.ph (Config.ft ~schedule:Config.Depth_oriented ()) prog in
  check_int "Ising-1D depth" 6 run.Pipelines.metrics.Report.depth;
  check_int "Ising-1D cnot" 58 run.Pipelines.metrics.Report.cnot

let test_bc_zero_on_two_local () =
  (* Paper: block-wise compilation gains exactly 0% on Ising. *)
  let prog = (Suite.find "Ising-2D").Suite.generate () in
  let ph = Pipelines.ph (Config.ft ~schedule:Config.Gco ()) prog in
  let naive = Pipelines.naive_ft (Ph_schedule.Gco.run prog) in
  check_int "same cnots" naive.Pipelines.metrics.Report.cnot
    ph.Pipelines.metrics.Report.cnot

let test_do_padding_parallelizes_heisenberg () =
  let prog = (Suite.find "Heisen-1D").Suite.generate () in
  let dor = Pipelines.ph (Config.ft ~schedule:Config.Depth_oriented ()) prog in
  let gco = Pipelines.ph (Config.ft ~schedule:Config.Gco ()) prog in
  check
    (Printf.sprintf "DO depth %d << GCO depth %d" dor.Pipelines.metrics.Report.depth
       gco.Pipelines.metrics.Report.depth)
    true
    (dor.Pipelines.metrics.Report.depth * 4 < gco.Pipelines.metrics.Report.depth)

(* --- QASM round trip of a real compiled benchmark --- *)

let test_qasm_roundtrip_compiled () =
  let prog = (Suite.find "Rand-20-0.1").Suite.generate () in
  let run = Pipelines.ph (Config.sc manhattan) prog in
  let reparsed = Qasm.parse (Qasm.export run.Pipelines.circuit) in
  check_int "same gate count" (Circuit.length run.Pipelines.circuit)
    (Circuit.length reparsed);
  check "same gates" true
    (List.for_all2 Gate.equal
       (Circuit.to_list run.Pipelines.circuit)
       (Circuit.to_list reparsed))

(* --- Pauli IR text round trip of a generated benchmark --- *)

let test_ir_text_roundtrip_uccsd () =
  let prog = Uccsd.ansatz ~n_qubits:8 () in
  let text = Parser.to_text prog in
  let reparsed = Parser.parse ~default:1.0 text in
  check "same multiset" true (Program.same_multiset prog reparsed);
  (* and it still compiles and verifies *)
  check "compiles verified" true
    (Pipelines.verified (Pipelines.ph (Config.ft ()) reparsed))

(* --- end-to-end noisy QAOA sanity (mini Figure 11) --- *)

let test_fig11_instance () =
  let g = Graphs.regular ~seed:409 9 4 in
  let gamma, beta = Ph_sim.Qaoa_run.optimize_parameters ~grid:8 g in
  let prog = Qaoa.maxcut g ~gamma in
  let device = Devices.melbourne in
  let noise = Noise_model.calibrated device ~seed:42 ~cnot:0.02 () in
  let kernel_of (r : Pipelines.run) =
    {
      Ph_sim.Qaoa_run.phase = r.Pipelines.circuit;
      initial_layout = Option.get r.Pipelines.initial_layout;
      final_layout = Option.get r.Pipelines.final_layout;
    }
  in
  let ph = Pipelines.ph (Config.sc device) prog in
  let outcome =
    Ph_sim.Qaoa_run.evaluate ~noise ~trajectories:150 ~seed:3 g (kernel_of ph) ~beta
  in
  check "esp positive" true (outcome.Ph_sim.Qaoa_run.esp > 0.);
  check "success sane" true
    (outcome.Ph_sim.Qaoa_run.success > 0. && outcome.Ph_sim.Qaoa_run.success <= 1.)

(* --- compile-time sanity: large benchmark in bounded time --- *)

let test_large_benchmark_fast () =
  let prog = (Suite.find "Rand-40").Suite.generate () in
  let run, seconds = Report.timed (fun () -> Pipelines.ph (Config.ft ()) prog) in
  check "verified" true (Pipelines.verified run);
  check (Printf.sprintf "compiled in %.1fs < 30s" seconds) true (seconds < 30.)

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "sc suite verified" `Slow test_sc_pipelines_verified;
          Alcotest.test_case "ft suite verified" `Slow test_ft_pipelines_verified;
          Alcotest.test_case "coupling respected" `Slow test_sc_circuits_respect_manhattan;
        ] );
      ( "paper_pins",
        [
          Alcotest.test_case "table 1 exact counts" `Quick test_table1_pins;
          Alcotest.test_case "ph beats tk (uccsd sc)" `Quick test_ph_sc_beats_tk_on_uccsd;
          Alcotest.test_case "reg-20-4 near paper" `Quick test_reg20_4_near_paper;
          Alcotest.test_case "ising-1d depth 6" `Quick test_ising_do_depth;
          Alcotest.test_case "bc zero on 2-local" `Quick test_bc_zero_on_two_local;
          Alcotest.test_case "do parallelizes heisenberg" `Quick
            test_do_padding_parallelizes_heisenberg;
        ] );
      ( "round_trips",
        [
          Alcotest.test_case "qasm of compiled benchmark" `Quick test_qasm_roundtrip_compiled;
          Alcotest.test_case "pauli ir text of uccsd" `Quick test_ir_text_roundtrip_uccsd;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "noisy qaoa instance" `Slow test_fig11_instance;
          Alcotest.test_case "large benchmark bounded time" `Slow test_large_benchmark_fast;
        ] );
    ]
