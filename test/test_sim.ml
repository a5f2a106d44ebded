open Ph_gatelevel
open Ph_hardware
open Ph_benchmarks
open Ph_sim

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let noiseless = Noise_model.uniform ~cnot:0. ~single:0. ~readout:0. ()

(* --- Noisy_sim --- *)

let test_noiseless_distribution () =
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1) ] in
  let dist = Noisy_sim.output_distribution ~noise:noiseless ~trajectories:0 ~seed:0 c in
  checkf "bell 00" 0.5 dist.(0);
  checkf "bell 11" 0.5 dist.(3);
  checkf "bell 01" 0. dist.(1)

let test_noisy_degrades () =
  let noisy = Noise_model.uniform ~cnot:0.05 ~single:0.01 ~readout:0. () in
  let c =
    Circuit.of_gates 2
      [ Gate.H 0; Gate.Cnot (0, 1); Gate.Cnot (0, 1); Gate.H 0 ]
  in
  (* Ideal output = |00>. *)
  let dist = Noisy_sim.output_distribution ~noise:noisy ~trajectories:200 ~seed:5 c in
  check "fidelity below 1" true (dist.(0) < 1.0);
  check "fidelity still high" true (dist.(0) > 0.7);
  let total = Array.fold_left ( +. ) 0. dist in
  checkf "normalized" 1.0 total

let test_noisy_deterministic_seed () =
  let noisy = Noise_model.uniform ~cnot:0.05 ~single:0.01 ~readout:0. () in
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1) ] in
  let d1 = Noisy_sim.output_distribution ~noise:noisy ~trajectories:50 ~seed:3 c in
  let d2 = Noisy_sim.output_distribution ~noise:noisy ~trajectories:50 ~seed:3 c in
  check "same seed, same result" true (d1 = d2)

let test_success_probability () =
  let dist = [| 0.25; 0.25; 0.25; 0.25 |] in
  let p =
    Noisy_sim.success_probability dist ~measure:[ 0; 1 ]
      ~readout:(fun _ -> 0.)
      ~is_success:(fun bits -> bits = 0 || bits = 3)
  in
  checkf "half the mass" 0.5 p;
  let p_ro =
    Noisy_sim.success_probability dist ~measure:[ 0; 1 ]
      ~readout:(fun _ -> 0.1)
      ~is_success:(fun bits -> bits = 0 || bits = 3)
  in
  checkf "degraded by readout" (0.5 *. 0.81) p_ro

let test_measure_reordering () =
  (* |10⟩ on physical wires; logical order reversed by the measure list. *)
  let dist = Array.make 4 0. in
  dist.(0b10) <- 1.0;
  let p =
    Noisy_sim.success_probability dist ~measure:[ 1; 0 ]
      ~readout:(fun _ -> 0.)
      ~is_success:(fun bits -> bits = 0b01)
  in
  checkf "logical bit order follows measure list" 1.0 p

(* --- Qaoa_run --- *)

let triangle = { Graphs.n = 3; edges = [ 0, 1, 1.0; 1, 2, 1.0; 0, 2, 1.0 ] }

let logical_kernel g gamma =
  (* Identity-layout physical kernel for testing. *)
  let prog = Qaoa.maxcut g ~gamma in
  let r = Ph_synthesis.Naive.synthesize prog in
  {
    Qaoa_run.phase = r.circuit;
    initial_layout = Layout.identity g.Graphs.n g.Graphs.n;
    final_layout = Layout.identity g.Graphs.n g.Graphs.n;
  }

let test_full_circuit_shape () =
  let kernel = logical_kernel triangle 0.4 in
  let c = Qaoa_run.full_circuit kernel ~beta:0.3 in
  (* 3 H + kernel + 3 Rx *)
  Alcotest.(check int) "gate count" (6 + Circuit.length kernel.Qaoa_run.phase)
    (Circuit.length c);
  Alcotest.(check (list int)) "measure qubits" [ 0; 1; 2 ]
    (Qaoa_run.measure_qubits kernel)

let test_expected_cut_uniform () =
  (* H-layer only: uniform superposition; expected cut of a triangle =
     (3 edges)·(1/2) = 1.5. *)
  let dist = Array.make 8 (1. /. 8.) in
  checkf "uniform expected cut" 1.5 (Qaoa_run.expected_cut triangle dist);
  (* Optimal cuts of a unit triangle have value 2 (6 of 8 bitstrings). *)
  checkf "optimal fraction" 0.75 (Qaoa_run.optimal_fraction triangle dist)

let test_qaoa_beats_random_guessing () =
  let gamma, beta = Qaoa_run.optimize_parameters ~grid:10 triangle in
  let kernel = logical_kernel triangle gamma in
  let outcome =
    Qaoa_run.evaluate ~noise:noiseless ~trajectories:0 ~seed:0 triangle kernel ~beta
  in
  checkf "noiseless esp = 1" 1.0 outcome.Qaoa_run.esp;
  check
    (Printf.sprintf "p=1 QAOA above uniform baseline (%.3f > 0.75)" outcome.Qaoa_run.success)
    true
    (outcome.Qaoa_run.success > 0.75)

let test_noise_reduces_success () =
  let gamma, beta = Qaoa_run.optimize_parameters ~grid:8 triangle in
  let kernel = logical_kernel triangle gamma in
  let ideal =
    Qaoa_run.evaluate ~noise:noiseless ~trajectories:0 ~seed:0 triangle kernel ~beta
  in
  let noisy_model = Noise_model.uniform ~cnot:0.05 ~single:0.005 ~readout:0.02 () in
  let noisy =
    Qaoa_run.evaluate ~noise:noisy_model ~trajectories:150 ~seed:11 triangle kernel ~beta
  in
  check "noise reduces success" true (noisy.Qaoa_run.success < ideal.Qaoa_run.success);
  check "esp below 1" true (noisy.Qaoa_run.esp < 1.0)

let test_evaluate_on_device () =
  (* Compile to Melbourne with the SC backend and run the full study path. *)
  let g = Graphs.regular ~seed:3 6 2 in
  let gamma, beta = Qaoa_run.optimize_parameters ~grid:8 g in
  let prog = Qaoa.maxcut g ~gamma in
  let out =
    Paulihedral.Compiler.compile (Paulihedral.Config.sc Devices.melbourne) prog
  in
  let kernel =
    {
      Qaoa_run.phase = out.Paulihedral.Compiler.circuit;
      initial_layout = Option.get out.Paulihedral.Compiler.initial_layout;
      final_layout = Option.get out.Paulihedral.Compiler.final_layout;
    }
  in
  let noise = Noise_model.calibrated Devices.melbourne ~seed:1 () in
  let outcome = Qaoa_run.evaluate ~noise ~trajectories:100 ~seed:7 g kernel ~beta in
  check "esp in (0,1)" true (outcome.Qaoa_run.esp > 0. && outcome.Qaoa_run.esp < 1.);
  check "success in (0,1]" true
    (outcome.Qaoa_run.success > 0. && outcome.Qaoa_run.success <= 1.)

let () =
  Alcotest.run "sim"
    [
      ( "noisy_sim",
        [
          Alcotest.test_case "noiseless bell" `Quick test_noiseless_distribution;
          Alcotest.test_case "noise degrades fidelity" `Quick test_noisy_degrades;
          Alcotest.test_case "seeded determinism" `Quick test_noisy_deterministic_seed;
          Alcotest.test_case "success probability" `Quick test_success_probability;
          Alcotest.test_case "measure reordering" `Quick test_measure_reordering;
        ] );
      ( "qaoa_run",
        [
          Alcotest.test_case "full circuit shape" `Quick test_full_circuit_shape;
          Alcotest.test_case "expected cut" `Quick test_expected_cut_uniform;
          Alcotest.test_case "qaoa beats uniform" `Quick test_qaoa_beats_random_guessing;
          Alcotest.test_case "noise reduces success" `Quick test_noise_reduces_success;
          Alcotest.test_case "end-to-end on melbourne" `Quick test_evaluate_on_device;
        ] );
    ]
