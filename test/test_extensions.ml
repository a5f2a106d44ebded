(* Tests for the extension features: controlled kernels (phase
   estimation support), observable expectation values, and the
   max-overlap scheduler integration in the compiler. *)

open Paulihedral
open Ph_pauli
open Ph_pauli_ir
open Ph_linalg
open Ph_gatelevel
open Ph_sim

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let qcheck = QCheck_alcotest.to_alcotest

let term s w = Pauli_term.make (Pauli_string.of_string s) w

(* --- Controlled kernels --- *)

(* controlled-U as a dense matrix: |0⟩⟨0|⊗1 + |1⟩⟨1|⊗U with the control
   as the top wire (highest qubit). *)
let controlled_reference u n_sys =
  let d = 1 lsl n_sys in
  Matrix.init (2 * d) (2 * d) (fun i j ->
      if i < d && j < d then if i = j then Cplx.one else Cplx.zero
      else if i >= d && j >= d then Matrix.get u (i - d) (j - d)
      else Cplx.zero)

let test_controlled_correct () =
  let prog =
    Program.make 3
      [
        Block.make [ term "ZZI" 0.8 ] (Block.fixed 0.4);
        Block.make [ term "IXY" 0.5 ] (Block.fixed 0.4);
      ]
  in
  (* Compile on 4 wires so qubit 3 is a free control. *)
  let wide =
    Program.make 4
      (List.map
         (fun (b : Block.t) ->
           Block.make
             (List.map
                (fun (t : Pauli_term.t) ->
                  Pauli_term.make
                    (Pauli_string.of_support 4
                       (List.map
                          (fun q -> q, Pauli_string.get t.str q)
                          (Pauli_string.support t.str)))
                    t.coeff)
                (Block.terms b))
             (Block.param b))
         (Program.blocks prog))
  in
  let kernel = Compiler.compile (Config.ft ()) wide in
  let ctrl = Ph_synthesis.Controlled.of_circuit kernel.Compiler.circuit ~control:3 in
  let u_kernel =
    Ph_verify.Unitary_check.rotations_unitary ~n_qubits:3
      (List.map
         (fun (p, t) ->
           ( Pauli_string.of_support 3
               (List.map (fun q -> q, Pauli_string.get p q) (Pauli_string.support p)),
             t ))
         kernel.Compiler.rotations)
  in
  check "controlled kernel equals block-diag(1, U)" true
    (Matrix.equal_up_to_phase (Circuit.unitary ctrl) (controlled_reference u_kernel 3))

let test_controlled_validation () =
  let c = Circuit.of_gates 2 [ Gate.Rz (0.3, 0) ] in
  check "rejects used control" true
    (match Ph_synthesis.Controlled.of_circuit c ~control:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "rejects out of range" true
    (match Ph_synthesis.Controlled.of_circuit c ~control:7 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_controlled_off_is_identity () =
  let prog = Program.make 3 [ Block.make [ term "IZY" 0.9 ] (Block.fixed 0.3) ] in
  let kernel = Compiler.compile (Config.ft ()) prog in
  let widened = Circuit.of_gates 4 (Circuit.to_list kernel.Compiler.circuit) in
  let ctrl = Ph_synthesis.Controlled.of_circuit widened ~control:3 in
  (* control |0⟩: any system input must come back unchanged *)
  let sv = Statevector.basis 4 0b0101 in
  Circuit.apply ctrl sv;
  checkf "system untouched" 1. (Statevector.prob sv 0b0101)

let test_controlled_powers () =
  let prog = Program.make 2 [ Block.make [ term "ZI" 0.7 ] (Block.fixed 0.2) ] in
  let kernel = Compiler.compile (Config.ft ()) prog in
  let widened = Circuit.of_gates 3 (Circuit.to_list kernel.Compiler.circuit) in
  let twice = Ph_synthesis.Controlled.powers widened ~control:2 ~k:1 in
  let once = Ph_synthesis.Controlled.powers widened ~control:2 ~k:0 in
  check "2^1 applications = U applied twice" true
    (Matrix.equal_up_to_phase
       (Circuit.unitary twice)
       (Matrix.mul (Circuit.unitary once) (Circuit.unitary once)))

(* --- Observables --- *)

let test_pauli_expectation_basis () =
  let sv = Statevector.basis 2 0b01 in
  (* q0 = |1⟩: ⟨Z0⟩ = −1; q1 = |0⟩: ⟨Z1⟩ = +1 *)
  checkf "Z0" (-1.) (Observables.pauli_expectation sv (Pauli_string.of_string "IZ"));
  checkf "Z1" 1. (Observables.pauli_expectation sv (Pauli_string.of_string "ZI"));
  checkf "X0 on basis state" 0.
    (Observables.pauli_expectation sv (Pauli_string.of_string "IX"))

let test_pauli_expectation_plus () =
  let sv = Statevector.zero 1 in
  Statevector.apply1 sv 0 (Gate.matrix1 (Gate.H 0));
  checkf "⟨X⟩ of |+⟩" 1. (Observables.pauli_expectation sv (Pauli_string.of_string "X"))

let test_energy_matches_dense () =
  let prog =
    Program.make 2
      [
        Block.make [ term "ZZ" 1.5 ] (Block.fixed 0.4);
        Block.make [ term "XI" 0.3; term "IY" 0.8 ] (Block.fixed 0.9);
      ]
  in
  let sv = Statevector.zero 2 in
  Statevector.apply1 sv 0 (Gate.matrix1 (Gate.H 0));
  Statevector.apply_cnot sv ~control:0 ~target:1;
  (* dense reference *)
  let h = Semantics.hamiltonian prog in
  let amps = Array.init 4 (Statevector.amplitude sv) in
  let h_amps = Matrix.apply_vec h amps in
  let dense =
    Array.to_list (Array.mapi (fun i a -> Cplx.mul (Cplx.conj amps.(i)) a) h_amps)
    |> List.fold_left Cplx.add Cplx.zero
  in
  checkf "energy matches dense ⟨ψ|H|ψ⟩" dense.Cplx.re (Observables.energy prog sv)

let prop_energy_real_and_bounded =
  QCheck.Test.make ~name:"⟨H⟩ bounded by Σ|w·t|" ~count:50
    QCheck.(pair (int_bound 1000) (int_bound 3))
    (fun (seed, rotations) ->
      let rand = Random.State.make [| seed |] in
      let letter () = [| "X"; "Y"; "Z"; "I" |].(Random.State.int rand 4) in
      let s () =
        let s = String.concat "" [ letter (); letter (); letter () ] in
        if s = "III" then "ZII" else s
      in
      let prog =
        Program.make 3
          [
            Block.make [ term (s ()) 0.7; term (s ()) (-0.4) ] (Block.fixed 0.5);
            Block.make [ term (s ()) 1.1 ] (Block.fixed 0.3);
          ]
      in
      let sv = Statevector.zero 3 in
      for _ = 0 to rotations do
        Statevector.apply1 sv (Random.State.int rand 3) (Gate.matrix1 (Gate.H 0))
      done;
      let bound = (0.5 *. (0.7 +. 0.4)) +. (0.3 *. 1.1) in
      abs_float (Observables.energy prog sv) <= bound +. 1e-9)

(* --- Ion-trap backend / Rxx native gate --- *)

let half = Float.pi /. 2.

let test_rxx_unitary () =
  let u = Circuit.unitary (Circuit.of_gates 2 [ Gate.Rxx (0.7, 0, 1) ]) in
  let reference =
    Matrix.add
      (Matrix.scale { Cplx.re = cos 0.35; im = 0. } (Matrix.identity 4))
      (Matrix.scale { Cplx.re = 0.; im = -.sin 0.35 }
         (Semantics.pauli_matrix (Pauli_string.of_string "XX")))
  in
  check "Rxx(θ) = exp(-iθ/2 XX)" true (Matrix.equal u reference)

let test_cnot_ms_decomposition () =
  let lowered = Ph_synthesis.Ion_trap.lower_to_native (Circuit.of_gates 2 [ Gate.Cnot (0, 1) ]) in
  check "one MS gate" true
    (Array.exists (function Gate.Rxx _ -> true | _ -> false) (Circuit.gates lowered));
  check "no CNOT left" true
    (Array.for_all (function Gate.Cnot _ -> false | _ -> true) (Circuit.gates lowered));
  check "decomposition exact up to phase" true
    (Matrix.equal_up_to_phase (Circuit.unitary lowered)
       (Circuit.unitary (Circuit.of_gates 2 [ Gate.Cnot (0, 1) ])));
  (* and for the reversed direction + swap *)
  let rev = Ph_synthesis.Ion_trap.lower_to_native (Circuit.of_gates 2 [ Gate.Cnot (1, 0) ]) in
  check "reversed direction" true
    (Matrix.equal_up_to_phase (Circuit.unitary rev)
       (Circuit.unitary (Circuit.of_gates 2 [ Gate.Cnot (1, 0) ])));
  let swp = Ph_synthesis.Ion_trap.lower_to_native (Circuit.of_gates 2 [ Gate.Swap (0, 1) ]) in
  check "swap lowering" true
    (Matrix.equal_up_to_phase (Circuit.unitary swp)
       (Circuit.unitary (Circuit.of_gates 2 [ Gate.Swap (0, 1) ])))

let test_rxx_extraction () =
  let c = Circuit.of_gates 2 [ Gate.Rxx (0.7, 0, 1) ] in
  check "native rotation extracted" true
    (Ph_verify.Pauli_frame.verify c ~trace:[ Pauli_string.of_string "XX", 0.7 ])

let test_rxx_clifford_frame_matches_dense () =
  (* Rxx(π/2) conjugation rules in the tableau must agree with the dense
     simulator: Rxx(π/2); Rz(θ,0); Rxx(-π/2) is some Pauli rotation. *)
  List.iter
    (fun (pre, post) ->
      let c =
        Circuit.of_gates 2 [ Gate.Rxx (pre, 0, 1); Gate.Rz (0.4, 0); Gate.Rxx (post, 0, 1) ]
      in
      let rotations, _ = Ph_verify.Pauli_frame.extract c in
      check "identity residue" true (Ph_verify.Pauli_frame.verify c ~trace:rotations);
      check "matches dense" true
        (Ph_verify.Unitary_check.circuit_implements c rotations))
    [ half, -.half; -.half, half ]

let test_rxx_merge_and_cancel () =
  let c = Circuit.of_gates 2 [ Gate.Rxx (0.3, 0, 1); Gate.Rxx (0.2, 1, 0) ] in
  let o = Ph_gatelevel.Peephole.optimize c in
  Alcotest.(check int) "merged across orientation" 1 (Circuit.length o);
  let z = Circuit.of_gates 2 [ Gate.Rxx (0.3, 0, 1); Gate.Rxx (-0.3, 1, 0) ] in
  Alcotest.(check int) "cancelled" 0 (Circuit.length (Ph_gatelevel.Peephole.optimize z))

let test_ph_it_pipeline () =
  let prog =
    Program.make 3
      [
        Block.make [ term "ZZI" 1.0; term "IZZ" 0.5 ] (Block.fixed 0.3);
        Block.make [ term "XYZ" 0.7 ] (Block.fixed 0.3);
      ]
  in
  let run = Pipelines.ph (Config.ion_trap ()) prog in
  check "no cnots or swaps in native circuit" true
    (Array.for_all
       (function Gate.Cnot _ | Gate.Swap _ -> false | _ -> true)
       (Circuit.gates run.Pipelines.circuit));
  check "verified by pauli frame" true (Pipelines.verified run);
  check "verified dense" true
    (Ph_verify.Unitary_check.circuit_implements run.Pipelines.circuit
       run.Pipelines.rotations);
  (* entangler count matches the FT backend's *)
  let ft = Pipelines.ph (Config.ft ()) prog in
  Alcotest.(check int) "same entangler count"
    ft.Pipelines.metrics.Report.cnot run.Pipelines.metrics.Report.cnot

let prop_ph_it_correct =
  let gen =
    QCheck.Gen.(
      let gen_str =
        map
          (fun ops ->
            let s = Pauli_string.of_ops (Array.of_list ops) in
            if Pauli_string.is_identity s then Pauli_string.of_string "IIZ" else s)
          (list_repeat 3 (oneofl Ph_pauli.Pauli.all))
      in
      list_size (int_range 1 5) (pair gen_str (float_bound_inclusive 1.)))
  in
  QCheck.Test.make ~name:"ion-trap backend always verified" ~count:40 (QCheck.make gen)
    (fun strs ->
      let prog =
        Program.make 3
          (List.map
             (fun (s, w) -> Block.make [ Pauli_term.make s (w +. 0.1) ] (Block.fixed 0.4))
             strs)
      in
      let run = Pipelines.ph (Config.ion_trap ()) prog in
      Pipelines.verified run
      && Ph_verify.Unitary_check.circuit_implements run.Pipelines.circuit
           run.Pipelines.rotations)

(* --- Max-overlap through the public compiler --- *)

let test_compile_max_overlap () =
  let prog =
    Program.make 3
      [
        Block.make [ term "ZZI" 1.0 ] (Block.fixed 0.3);
        Block.make [ term "IXX" 0.5 ] (Block.fixed 0.3);
        Block.make [ term "ZZX" 0.2 ] (Block.fixed 0.3);
      ]
  in
  let out = Compiler.compile (Config.ft ~schedule:Config.Max_overlap ()) prog in
  check "verified" true
    (Ph_verify.Pauli_frame.verify out.Compiler.circuit ~trace:out.Compiler.rotations)

let () =
  Alcotest.run "extensions"
    [
      ( "controlled",
        [
          Alcotest.test_case "dense equivalence" `Quick test_controlled_correct;
          Alcotest.test_case "validation" `Quick test_controlled_validation;
          Alcotest.test_case "control off = identity" `Quick test_controlled_off_is_identity;
          Alcotest.test_case "powers" `Quick test_controlled_powers;
        ] );
      ( "observables",
        [
          Alcotest.test_case "basis expectations" `Quick test_pauli_expectation_basis;
          Alcotest.test_case "plus state" `Quick test_pauli_expectation_plus;
          Alcotest.test_case "energy vs dense" `Quick test_energy_matches_dense;
          qcheck prop_energy_real_and_bounded;
        ] );
      ( "ion_trap",
        [
          Alcotest.test_case "rxx unitary" `Quick test_rxx_unitary;
          Alcotest.test_case "cnot decomposition" `Quick test_cnot_ms_decomposition;
          Alcotest.test_case "rxx extraction" `Quick test_rxx_extraction;
          Alcotest.test_case "rxx clifford frame" `Quick test_rxx_clifford_frame_matches_dense;
          Alcotest.test_case "rxx merge/cancel" `Quick test_rxx_merge_and_cancel;
          Alcotest.test_case "pipeline" `Quick test_ph_it_pipeline;
          qcheck prop_ph_it_correct;
        ] );
      ( "schedulers",
        [ Alcotest.test_case "max-overlap compiles" `Quick test_compile_max_overlap ] );
    ]
