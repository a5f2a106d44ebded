(* Failure injection: the verifiers must catch every class of
   compilation bug we can plant — dropped gates, wrong angles, reversed
   CNOTs, stray Cliffords, misreported layouts, reordered non-commuting
   rotations.  A verifier that accepts everything proves nothing. *)

open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware
open Ph_synthesis
open Ph_verify

let check = Alcotest.(check bool)
let qcheck = QCheck_alcotest.to_alcotest

let term s w = Pauli_term.make (Pauli_string.of_string s) w

let program_of_strings ?(param = 0.3) n strs =
  Program.make n
    (List.map (fun (s, w) -> Block.make [ term s w ] (Block.fixed param)) strs)

let sample =
  program_of_strings 4 [ "ZZXI", 1.0; "IZZY", 0.7; "XIIX", 0.4; "ZZXI", 0.2 ]

let compiled = Naive.synthesize sample

let mutate_drop i c =
  let gates = Circuit.gates c in
  Circuit.of_gates (Circuit.n_qubits c)
    (List.filteri (fun j _ -> j <> i) (Array.to_list gates))

let mutate_replace i g c =
  let gates = Array.copy (Circuit.gates c) in
  gates.(i) <- g;
  Circuit.of_gates (Circuit.n_qubits c) (Array.to_list gates)

let rejects name circuit =
  check name false (Pauli_frame.verify circuit ~trace:compiled.Emit.rotations)

let test_accepts_unmutated () =
  check "sanity: unmutated accepted" true
    (Pauli_frame.verify compiled.Emit.circuit ~trace:compiled.Emit.rotations)

let test_dropped_cnot_rejected () =
  let gates = Circuit.gates compiled.Emit.circuit in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.Cnot _ -> rejects (Printf.sprintf "drop cnot @%d" i) (mutate_drop i compiled.Emit.circuit)
      | _ -> ())
    gates

let test_dropped_basis_gate_rejected () =
  let gates = Circuit.gates compiled.Emit.circuit in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.H _ | Gate.Rx _ ->
        rejects (Printf.sprintf "drop basis gate @%d" i) (mutate_drop i compiled.Emit.circuit)
      | _ -> ())
    gates

let test_wrong_angle_rejected () =
  let gates = Circuit.gates compiled.Emit.circuit in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.Rz (t, q) ->
        rejects
          (Printf.sprintf "angle flip @%d" i)
          (mutate_replace i (Gate.Rz (t +. 0.311, q)) compiled.Emit.circuit)
      | _ -> ())
    gates

let test_reversed_cnot_rejected () =
  let gates = Circuit.gates compiled.Emit.circuit in
  let found = ref false in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.Cnot (a, b) when not !found ->
        found := true;
        rejects "reversed cnot" (mutate_replace i (Gate.Cnot (b, a)) compiled.Emit.circuit)
      | _ -> ())
    gates

let test_stray_clifford_rejected () =
  let c = Circuit.concat compiled.Emit.circuit (Circuit.of_gates 4 [ Gate.S 2 ]) in
  rejects "trailing S" c;
  let c = Circuit.concat (Circuit.of_gates 4 [ Gate.X 0 ]) compiled.Emit.circuit in
  rejects "leading X" c

let test_wrong_trace_rejected () =
  let wrong_string =
    List.mapi
      (fun i (p, t) -> if i = 1 then Pauli_string.of_string "ZZZZ", t else p, t)
      compiled.Emit.rotations
  in
  check "wrong string" false (Pauli_frame.verify compiled.Emit.circuit ~trace:wrong_string);
  let missing = List.tl compiled.Emit.rotations in
  check "missing rotation" false (Pauli_frame.verify compiled.Emit.circuit ~trace:missing)

let test_noncommuting_reorder_rejected () =
  (* ZZXI and IZZY anticommute: swapping them in the trace is NOT
     semantics-preserving and must be caught. *)
  let p1 = Pauli_string.of_string "ZZXI" and p2 = Pauli_string.of_string "IZZY" in
  check "they anticommute" false (Pauli_string.commutes p1 p2);
  let swapped =
    match compiled.Emit.rotations with
    | a :: b :: rest -> b :: a :: rest
    | l -> l
  in
  check "non-commuting reorder" false
    (Pauli_frame.verify compiled.Emit.circuit ~trace:swapped)

let test_commuting_merge_accepted () =
  (* The trace contains ZZXI twice (weights 1.0 and 0.2): after peephole
     the two rotations may merge — normalization must accept that. *)
  let optimized = Peephole.optimize compiled.Emit.circuit in
  check "peepholed circuit still accepted" true
    (Pauli_frame.verify optimized ~trace:compiled.Emit.rotations)

(* --- SC-side injections --- *)

let sc_result =
  let layers = Ph_schedule.Depth_oriented.schedule sample in
  Sc_backend.synthesize ~coupling:(Devices.line 4) ~n_qubits:4 layers

let sc_layouts = sc_result.Sc_backend.initial_layout, sc_result.Sc_backend.final_layout

let test_sc_sanity () =
  check "sanity: SC unmutated accepted" true
    (Pauli_frame.verify sc_result.Sc_backend.circuit
       ~trace:sc_result.Sc_backend.rotations
       ~layouts:sc_layouts)

let test_sc_wrong_final_layout_rejected () =
  let scrambled = Layout.copy sc_result.Sc_backend.final_layout in
  Layout.swap_physical scrambled 0 3;
  check "scrambled final layout" false
    (Pauli_frame.verify sc_result.Sc_backend.circuit
       ~trace:sc_result.Sc_backend.rotations
       ~layouts:(sc_result.Sc_backend.initial_layout, scrambled))

let test_sc_wrong_initial_layout_rejected () =
  let scrambled = Layout.copy sc_result.Sc_backend.initial_layout in
  Layout.swap_physical scrambled 1 2;
  check "scrambled initial layout" false
    (Pauli_frame.verify sc_result.Sc_backend.circuit
       ~trace:sc_result.Sc_backend.rotations
       ~layouts:(scrambled, sc_result.Sc_backend.final_layout))

let test_sc_dropped_swap_rejected () =
  let gates = Circuit.gates sc_result.Sc_backend.circuit in
  let found = ref false in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.Swap _ when not !found ->
        found := true;
        let mutated =
          Circuit.of_gates 4 (List.filteri (fun j _ -> j <> i) (Array.to_list gates))
        in
        check "dropped swap" false
          (Pauli_frame.verify mutated
             ~trace:sc_result.Sc_backend.rotations
             ~layouts:sc_layouts)
      | _ -> ())
    gates;
  check "a swap existed to drop" true !found

(* --- Property: random single-gate mutations are rejected --- *)

let prop_random_mutation_rejected =
  (* Replace one random gate by a different one on the same qubits; the
     dense checker decides ground truth, the Pauli-frame verifier must
     agree whenever the mutation really changes the unitary. *)
  QCheck.Test.make ~name:"random gate substitution caught" ~count:60
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (seed, pos) ->
      let rand = Random.State.make [| seed |] in
      let prog =
        program_of_strings 3
          [
            (String.init 3 (fun _ -> [| 'X'; 'Y'; 'Z'; 'I' |].(Random.State.int rand 4)), 0.5);
            ("Z" ^ String.init 2 (fun _ -> [| 'X'; 'Z' |].(Random.State.int rand 2)), 0.9);
          ]
      in
      let r = Naive.synthesize prog in
      let m = Circuit.length r.Emit.circuit in
      if m = 0 then true
      else begin
        let i = pos mod m in
        let g = (Circuit.gates r.Emit.circuit).(i) in
        let replacement =
          match g with
          | Gate.H q -> Gate.S q
          | Gate.Rx (t, q) -> Gate.Rx (-.t, q)
          | Gate.Rz (t, q) -> Gate.Rz (t +. 1., q)
          | Gate.Cnot (a, b) -> Gate.Cnot (b, a)
          | g -> g
        in
        if Gate.equal replacement g then true
        else begin
          let mutated = mutate_replace i replacement r.Emit.circuit in
          let frame_ok =
            try Pauli_frame.verify mutated ~trace:r.Emit.rotations
            with Invalid_argument _ -> false
          in
          let dense_ok = Ph_verify.Unitary_check.circuit_implements mutated r.Emit.rotations in
          (* The scalable check may only accept when the dense truth
             accepts. *)
          (not frame_ok) || dense_ok
        end
      end)

let () =
  Alcotest.run "failure_injection"
    [
      ( "ft",
        [
          Alcotest.test_case "unmutated accepted" `Quick test_accepts_unmutated;
          Alcotest.test_case "dropped cnots" `Quick test_dropped_cnot_rejected;
          Alcotest.test_case "dropped basis gates" `Quick test_dropped_basis_gate_rejected;
          Alcotest.test_case "wrong angles" `Quick test_wrong_angle_rejected;
          Alcotest.test_case "reversed cnot" `Quick test_reversed_cnot_rejected;
          Alcotest.test_case "stray cliffords" `Quick test_stray_clifford_rejected;
          Alcotest.test_case "wrong traces" `Quick test_wrong_trace_rejected;
          Alcotest.test_case "non-commuting reorder" `Quick test_noncommuting_reorder_rejected;
          Alcotest.test_case "commuting merge accepted" `Quick test_commuting_merge_accepted;
          qcheck prop_random_mutation_rejected;
        ] );
      ( "sc",
        [
          Alcotest.test_case "unmutated accepted" `Quick test_sc_sanity;
          Alcotest.test_case "wrong final layout" `Quick test_sc_wrong_final_layout_rejected;
          Alcotest.test_case "wrong initial layout" `Quick test_sc_wrong_initial_layout_rejected;
          Alcotest.test_case "dropped swap" `Quick test_sc_dropped_swap_rejected;
        ] );
    ]
