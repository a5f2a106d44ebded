open Ph_pauli
open Ph_gatelevel
open Ph_hardware
open Ph_verify

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let str = Pauli_string.of_string

(* --- Pauli_frame.extract on hand-built circuits --- *)

let test_extract_plain_rz () =
  let c = Circuit.of_gates 2 [ Gate.Rz (0.3, 1) ] in
  let rots, _ = Pauli_frame.extract c in
  check "identity residue" true (Pauli_frame.verify c ~trace:rots);
  match rots with
  | [ (p, theta) ] ->
    Alcotest.(check string) "Z on q1" "ZI" (Pauli_string.to_string p);
    Alcotest.(check (float 1e-12)) "angle" 0.3 theta
  | _ -> Alcotest.fail "expected one rotation"

let test_extract_conjugated () =
  (* H q0; Rz q0; H q0  ==  exp(-iθ/2 X0) *)
  let c = Circuit.of_gates 1 [ Gate.H 0; Gate.Rz (0.4, 0); Gate.H 0 ] in
  let rots, _ = Pauli_frame.extract c in
  check "identity residue" true (Pauli_frame.verify c ~trace:rots);
  (match rots with
  | [ (p, _) ] -> Alcotest.(check string) "X rotation" "X" (Pauli_string.to_string p)
  | _ -> Alcotest.fail "one rotation");
  (* CNOT conjugation: exp(-iθ/2 Z0 Z1) *)
  let c =
    Circuit.of_gates 2 [ Gate.Cnot (0, 1); Gate.Rz (0.4, 1); Gate.Cnot (0, 1) ]
  in
  let rots, _ = Pauli_frame.extract c in
  check "identity residue" true (Pauli_frame.verify c ~trace:rots);
  match rots with
  | [ (p, _) ] -> Alcotest.(check string) "ZZ rotation" "ZZ" (Pauli_string.to_string p)
  | _ -> Alcotest.fail "one rotation"

let test_extract_sign_folding () =
  (* X q0; Rz q0; X q0 == exp(-iθ/2 (−Z)) == exp(+iθ/2 Z) *)
  let c = Circuit.of_gates 1 [ Gate.X 0; Gate.Rz (0.4, 0); Gate.X 0 ] in
  let rots, _ = Pauli_frame.extract c in
  match rots with
  | [ (p, theta) ] ->
    Alcotest.(check string) "still Z" "Z" (Pauli_string.to_string p);
    Alcotest.(check (float 1e-12)) "negated angle" (-0.4) theta
  | _ -> Alcotest.fail "one rotation"

let test_extract_y_basis () =
  (* Rx(π/2); Rz; Rx(−π/2) == exp(-iθ/2 Y) *)
  let h = Float.pi /. 2. in
  let c = Circuit.of_gates 1 [ Gate.Rx (h, 0); Gate.Rz (0.4, 0); Gate.Rx (-.h, 0) ] in
  let rots, _ = Pauli_frame.extract c in
  check "identity residue" true (Pauli_frame.verify c ~trace:rots);
  match rots with
  | [ (p, theta) ] ->
    Alcotest.(check string) "Y rotation" "Y" (Pauli_string.to_string p);
    check "positive angle" true (theta > 0.)
  | _ -> Alcotest.fail "one rotation"

let test_extract_rejects_nonclifford () =
  let c = Circuit.of_gates 1 [ Gate.Rx (0.3, 0) ] in
  check "raises" true
    (match Pauli_frame.extract c with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Cross-validate tableau extraction against the dense simulator. *)
let test_extract_matches_dense () =
  let circuits =
    [
      Circuit.of_gates 3
        [
          Gate.H 0; Gate.Cnot (0, 1); Gate.S 2; Gate.Rz (0.3, 1); Gate.Cnot (0, 1);
          Gate.Sdg 2; Gate.H 0;
        ];
      Circuit.of_gates 2
        [ Gate.S 0; Gate.H 0; Gate.Rz (0.7, 0); Gate.H 0; Gate.Sdg 0 ];
      Circuit.of_gates 3
        [
          Gate.Swap (0, 2); Gate.Rz (0.2, 0); Gate.Swap (0, 2); Gate.Y 1;
          Gate.Rz (0.5, 1); Gate.Y 1;
        ];
    ]
  in
  List.iter
    (fun c ->
      let rots, _ = Pauli_frame.extract c in
      if Pauli_frame.verify c ~trace:rots then
        check "tableau factorization matches dense unitary" true
          (Unitary_check.circuit_implements c rots))
    circuits

let test_residue_permutation () =
  let c = Circuit.of_gates 3 [ Gate.Swap (0, 1); Gate.Swap (1, 2) ] in
  let _, residue = Pauli_frame.extract c in
  check "not identity" false (Pauli_frame.verify c ~trace:[]);
  match Pauli_frame.residue_permutation residue with
  | Some perm ->
    (* data initially at 0 ends at ... SWAP(0,1) then SWAP(1,2): 0→1→2 *)
    check_int "0 goes to 2" 2 perm.(0);
    check_int "1 goes to 0" 0 perm.(1);
    check_int "2 goes to 1" 1 perm.(2)
  | None -> Alcotest.fail "expected permutation"

let test_residue_permutation_rejects_entangler () =
  let c = Circuit.of_gates 2 [ Gate.Cnot (0, 1) ] in
  let _, residue = Pauli_frame.extract c in
  check "cnot is not a permutation" true (Pauli_frame.residue_permutation residue = None)

(* --- verify under the identity placement (FT / ion-trap) --- *)

let test_identity_accepts () =
  let c =
    Circuit.of_gates 2
      [ Gate.H 0; Gate.H 1; Gate.Cnot (0, 1); Gate.Rz (0.6, 1); Gate.Cnot (0, 1);
        Gate.H 0; Gate.H 1 ]
  in
  check "XX rotation accepted" true (Pauli_frame.verify c ~trace:[ str "XX", 0.6 ])

let test_identity_rejects_wrong_trace () =
  let c = Circuit.of_gates 2 [ Gate.Rz (0.6, 0) ] in
  check "wrong string rejected" false (Pauli_frame.verify c ~trace:[ str "ZI", 0.6 ]);
  check "wrong angle rejected" false (Pauli_frame.verify c ~trace:[ str "IZ", 0.5 ]);
  check "right trace accepted" true (Pauli_frame.verify c ~trace:[ str "IZ", 0.6 ])

let test_identity_rejects_leftover_clifford () =
  let c = Circuit.of_gates 2 [ Gate.Rz (0.6, 0); Gate.H 1 ] in
  check "leftover H rejected" false (Pauli_frame.verify c ~trace:[ str "IZ", 0.6 ])

let test_identity_rejects_permutation_and_stray_z () =
  (* The identity placement admits no data movement and no sign: a
     leftover SWAP passes only with layouts that record it, and a stray
     Z (a flipped X image) never passes on a data wire. *)
  let trace = [ str "IZ", 0.6 ] in
  let swapped = Circuit.of_gates 2 [ Gate.Rz (0.6, 0); Gate.Swap (0, 1) ] in
  check "leftover SWAP rejected" false (Pauli_frame.verify swapped ~trace);
  let final = Layout.identity 2 2 in
  Layout.swap_physical final 0 1;
  check "the same SWAP with its layouts accepted" true
    (Pauli_frame.verify swapped ~trace ~layouts:(Layout.identity 2 2, final));
  check "stray Z on qubit 1 rejected" false
    (Pauli_frame.verify (Circuit.of_gates 2 [ Gate.Rz (0.6, 0); Gate.Z 1 ]) ~trace);
  check "stray Z on qubit 0 rejected" false
    (Pauli_frame.verify (Circuit.of_gates 2 [ Gate.Rz (0.6, 0); Gate.Z 0 ]) ~trace)

(* --- verify with layouts (SC) --- *)

let test_layouts_swap () =
  (* Physical circuit on 3 qubits, logical 2: rotation then a routing swap. *)
  let initial = Layout.identity 2 3 in
  let final = Layout.identity 2 3 in
  Layout.swap_physical final 1 2;
  let c = Circuit.of_gates 3 [ Gate.Rz (0.3, 1); Gate.Swap (1, 2) ] in
  check "accepted" true
    (Pauli_frame.verify c ~trace:[ str "ZI", 0.3 ] ~layouts:(initial, final));
  check "wrong final layout rejected" false
    (Pauli_frame.verify c ~trace:[ str "ZI", 0.3 ] ~layouts:(initial, (Layout.identity 2 3)))

let test_layouts_rotation_after_swap () =
  (* The rotation physically happens at q2 but logically on qubit 1. *)
  let initial = Layout.identity 2 3 in
  let final = Layout.identity 2 3 in
  Layout.swap_physical final 1 2;
  let c = Circuit.of_gates 3 [ Gate.Swap (1, 2); Gate.Rz (0.3, 2) ] in
  check "conjugated back to initial frame" true
    (Pauli_frame.verify c ~trace:[ str "ZI", 0.3 ] ~layouts:(initial, final))

let test_identity_zero_angle_trace () =
  (* A zero-angle claimed rotation is the identity: it must neither
     require a gate nor block trace-side merging — the peephole pass
     deletes Rz(0) from the circuit and merges the rotations around the
     gap, so the verifier has to merge across the zero entry too. *)
  let c = Circuit.of_gates 1 [ Gate.H 0; Gate.Rz (0.8, 0); Gate.H 0 ] in
  check "zero entry is transparent" true
    (Pauli_frame.verify c
       ~trace:[ str "X", 0.4; str "Z", 0.; str "X", 0.4 ]);
  check "all-zero trace needs no gates" true
    (Pauli_frame.verify (Circuit.of_gates 1 []) ~trace:[ str "Z", 0. ]);
  check "nonzero rotation still required" false
    (Pauli_frame.verify (Circuit.of_gates 1 []) ~trace:[ str "Z", 0.3 ])

(* --- residue_permutation on routed circuits with ancillas --- *)

let test_layouts_ancilla_only_swap () =
  (* 2 logical qubits on 4 physical; routing swaps only the two ancilla
     wires, so the data never moves and the layouts stay identical. *)
  let initial = Layout.identity 2 4 in
  let final = Layout.identity 2 4 in
  let c = Circuit.of_gates 4 [ Gate.Rz (0.3, 0); Gate.Swap (2, 3) ] in
  (let _, residue = Pauli_frame.extract c in
   match Pauli_frame.residue_permutation residue with
   | Some perm ->
     check_int "data 0 fixed" 0 perm.(0);
     check_int "data 1 fixed" 1 perm.(1);
     check_int "ancilla 2 moved" 3 perm.(2);
     check_int "ancilla 3 moved" 2 perm.(3)
   | None -> Alcotest.fail "expected a permutation residue");
  check "ancilla-only swap accepted" true
    (Pauli_frame.verify c ~trace:[ str "IZ", 0.3 ] ~layouts:(initial, final))

let test_layouts_data_ancilla_swap () =
  (* A swap moving data 1 onto an ancilla wire is fine iff the final
     layout records the move. *)
  let initial = Layout.identity 2 4 in
  let final = Layout.identity 2 4 in
  Layout.swap_physical final 1 2;
  let c = Circuit.of_gates 4 [ Gate.Rz (0.3, 1); Gate.Swap (1, 2) ] in
  check "accepted with updated layout" true
    (Pauli_frame.verify c ~trace:[ str "ZI", 0.3 ] ~layouts:(initial, final));
  check "rejected with stale layout" false
    (Pauli_frame.verify c ~trace:[ str "ZI", 0.3 ] ~layouts:(initial, (Layout.identity 2 4)))

let test_layouts_stray_z_placement () =
  (* A leftover Z is a sign flip on the X row of the wire it lands on:
     tolerated on a |0⟩ ancilla, rejected on a data wire. *)
  let initial = Layout.identity 2 4 in
  let trace = [ str "IZ", 0.3 ] in
  let on_ancilla = Circuit.of_gates 4 [ Gate.Rz (0.3, 0); Gate.Z 3 ] in
  check "stray Z on ancilla tolerated" true
    (Pauli_frame.verify on_ancilla ~trace ~layouts:(initial, initial));
  let on_data = Circuit.of_gates 4 [ Gate.Rz (0.3, 0); Gate.Z 1 ] in
  check "stray Z on data rejected" false
    (Pauli_frame.verify on_data ~trace ~layouts:(initial, initial))

(* --- verify: the FT/SC dispatch on compiled circuits --- *)

let test_verify_dispatch () =
  let open Paulihedral in
  let prog =
    Ph_pauli_ir.Program.make 4
      (List.map
         (fun s ->
           Ph_pauli_ir.Block.make
             [ Pauli_term.make (str s) 0.5 ]
             (Ph_pauli_ir.Block.fixed 0.3))
         [ "ZIIZ"; "XXYI"; "IZZY" ])
  in
  (* the first Rz gains 0.1 rad: structurally fine, semantically wrong *)
  let mutated c =
    let hit = ref false in
    Circuit.of_gates (Circuit.n_qubits c)
      (List.map
         (function
           | Gate.Rz (t, q) when not !hit ->
             hit := true;
             Gate.Rz (t +. 0.1, q)
           | g -> g)
         (Circuit.to_list c))
  in
  let ft = Compiler.compile (Config.ft ()) prog in
  let trace = ft.Compiler.rotations in
  check "FT compile accepted" true (Pauli_frame.verify ~trace ft.Compiler.circuit);
  check "mutated FT circuit rejected" false
    (Pauli_frame.verify ~trace (mutated ft.Compiler.circuit));
  let sc = Compiler.compile (Config.sc (Devices.line 4)) prog in
  let layouts =
    match sc.Compiler.initial_layout, sc.Compiler.final_layout with
    | Some i, Some f -> i, f
    | _ -> Alcotest.fail "SC compile without layouts"
  in
  check "routing moved qubits" true
    (Layout.to_array (fst layouts) <> Layout.to_array (snd layouts));
  let trace = sc.Compiler.rotations in
  check "SC compile accepted with its layouts" true
    (Pauli_frame.verify ~layouts ~trace sc.Compiler.circuit);
  check "SC compile rejected without layouts" false
    (Pauli_frame.verify ~trace sc.Compiler.circuit);
  check "mutated SC circuit rejected" false
    (Pauli_frame.verify ~layouts ~trace (mutated sc.Compiler.circuit));
  check "Compiler.verified agrees" true (Compiler.verified sc && Compiler.verified ft)

(* --- one verdict per compile --- *)

(* [f ()] with the [pauli_mul] kernel calls it made on this domain. *)
let with_muls f =
  let before = Ph_perf.Counter.snapshot () in
  let r = f () in
  let after = Ph_perf.Counter.snapshot () in
  r, List.assoc "pauli_mul" (Ph_perf.Counter.compile_assoc ~before ~after)

let layouts_of (o : Paulihedral.Compiler.output) =
  match o.initial_layout, o.final_layout with Some i, Some f -> Some (i, f) | _ -> None

let test_verdict_built_once () =
  let open Paulihedral in
  let prog =
    Ph_pauli_ir.Program.make 4
      (List.map
         (fun (s, w) ->
           Ph_pauli_ir.Block.make [ Pauli_term.make (str s) w ] (Ph_pauli_ir.Block.fixed 0.3))
         [ "ZIIZ", 0.5; "XXYI", 0.5; "IZZY", 0.5; "ZZII", 0.2; "XIIX", 0.7 ])
  in
  let lint = Ph_lint.Diag.Error_level in
  List.iter
    (fun (name, config) ->
      let out = Compiler.compile config prog in
      check (name ^ ": lint forced the verdict") true (Lazy.is_val out.Compiler.verdict);
      check_int (name ^ ": no lint errors") 0 (List.length (Compiler.lint_errors out));
      let first, muls1 = with_muls (fun () -> Compiler.verified out) in
      let second, muls2 = with_muls (fun () -> Compiler.verified out) in
      check (name ^ ": verified") true (first && second);
      check_int (name ^ ": no second extraction") 0 (muls1 + muls2);
      check (name ^ ": equals a fresh verify") first
        (Pauli_frame.verify ?layouts:(layouts_of out) ~trace:out.Compiler.rotations
           out.Compiler.circuit))
    [
      "FT GCO", Config.ft ~lint ();
      "FT phoenix", Config.ft ~lint ~schedule:Config.Phoenix_like ();
      "SC DO manhattan", Config.sc ~lint ~schedule:Config.Depth_oriented Devices.manhattan;
      "ion trap", Config.ion_trap ~lint ();
    ];
  (* lint off: the compile never forces its verdict *)
  let out = Compiler.compile (Config.ft ()) prog in
  check "lint off leaves the verdict unforced" false (Lazy.is_val out.Compiler.verdict);
  (* a baseline has no lint: the first call extracts, the second reads *)
  let run = Pipelines.tk_sc Devices.manhattan prog in
  check "baseline verdict unforced" false (Lazy.is_val run.Pipelines.verdict);
  let first, muls1 = with_muls (fun () -> Pipelines.verified run) in
  let second, muls2 = with_muls (fun () -> Pipelines.verified run) in
  check "baseline verified" true (first && second);
  check "first call runs the verifier" true (muls1 > 0);
  check_int "second call reads the verdict" 0 muls2

let test_verdict_exception_kept () =
  (* a verifier exception reaches every reader, and lint reports it *)
  let verdict = lazy (Pauli_frame.verify ~trace:[] (Circuit.of_gates 1 [ Gate.Rx (0.3, 0) ])) in
  let raises () = match Lazy.force verdict with exception Invalid_argument _ -> true | _ -> false in
  check "first force raises" true (raises ());
  check "second force raises" true (raises ());
  match Ph_lint.Check_frame.check ~rotations:[] verdict with
  | [ d ] -> Alcotest.(check string) "VER001" "VER001" d.Ph_lint.Diag.code
  | _ -> Alcotest.fail "expected one VER001"

(* --- flat tableau vs the boxed oracle (test/pauli_frame_ref.ml) --- *)

let half_pi = Float.pi /. 2.

(* Clifford angles as callers write them: ±π/2 and ±π, also shifted by
   whole turns so [canonical] has to reduce them. *)
let clifford_angles =
  [| half_pi; -.half_pi; Float.pi; -.Float.pi; 3. *. half_pi; -3. *. half_pi;
     5. *. half_pi; 3. *. Float.pi |]

let random_angle st = Random.State.float st 6. -. 3.

(* Every gate [extract] admits, on [n] qubits; a poisoned circuit gets
   one generic-angle Rx or Ry, which both sides must reject alike. *)
let random_circuit st n =
  let q () = Random.State.int st n in
  let pair () =
    let a = q () in
    a, (a + 1 + Random.State.int st (n - 1)) mod n
  in
  let clifford () = clifford_angles.(Random.State.int st (Array.length clifford_angles)) in
  let gate () =
    match Random.State.int st (if n >= 2 then 14 else 10) with
    | 0 -> Gate.H (q ())
    | 1 -> Gate.S (q ())
    | 2 -> Gate.Sdg (q ())
    | 3 -> Gate.X (q ())
    | 4 -> Gate.Y (q ())
    | 5 -> Gate.Z (q ())
    | 6 | 7 -> Gate.Rz (random_angle st, q ())
    | 8 -> Gate.Rx (clifford (), q ())
    | 9 -> Gate.Ry (clifford (), q ())
    | 10 | 11 ->
      let a, b = pair () in
      Gate.Cnot (a, b)
    | 12 ->
      let a, b = pair () in
      Gate.Swap (a, b)
    | _ ->
      let a, b = pair () in
      Gate.Rxx ((if Random.State.bool st then clifford () else random_angle st), a, b)
  in
  let gates = List.init ((3 * n) + 20) (fun _ -> gate ()) in
  let gates =
    if Random.State.int st 8 <> 0 then gates
    else
      let at = Random.State.int st (List.length gates) in
      List.mapi
        (fun i g ->
          if i <> at then g
          else if Random.State.bool st then Gate.Rx (0.3 +. random_angle st, q ())
          else Gate.Ry (-0.2 +. random_angle st, q ()))
        gates
  in
  Circuit.of_gates n gates

let rotation_eq (s1, t1) (s2, t2) = Pauli_string.equal s1 s2 && t1 = t2

let image_eq (s1, k1) (s2, k2) = Pauli_string.equal s1 s2 && k1 = k2

let same_extraction a b =
  match a, b with
  | Ok (r1, (res1 : Pauli_frame.residue)), Ok (r2, (res2 : Pauli_frame.residue)) ->
    List.length r1 = List.length r2
    && List.for_all2 rotation_eq r1 r2
    && Array.for_all2 image_eq res1.Pauli_frame.z_images res2.Pauli_frame.z_images
    && Array.for_all2 image_eq res1.Pauli_frame.x_images res2.Pauli_frame.x_images
  | Error e1, Error e2 -> e1 = e2
  | _ -> false

(* The Pauli-kernel counters one extraction moves. *)
let kernel_deltas f =
  let before = Ph_perf.Counter.snapshot () in
  let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
  let after = Ph_perf.Counter.snapshot () in
  let d = Ph_perf.Counter.compile_assoc ~before ~after in
  r, List.map (fun k -> List.assoc k d) [ "pauli_mul"; "pauli_words"; "pauli_popcounts" ]

let test_extract_matches_oracle () =
  let st = Random.State.make [| 21 |] in
  (* word boundaries at 62 and 124 qubits, plus random sizes *)
  let sizes =
    [ 1; 2; 3; 5; 61; 62; 63; 64; 123; 124; 125; 130 ]
    @ List.init 60 (fun _ -> 1 + Random.State.int st 130)
  in
  let raised = ref 0 and completed = ref 0 in
  List.iteri
    (fun i n ->
      let c = random_circuit st n in
      let flat, flat_ops = kernel_deltas (fun () -> Pauli_frame.extract c) in
      let boxed, boxed_ops = kernel_deltas (fun () -> Pauli_frame_ref.extract c) in
      (match boxed with Ok _ -> incr completed | Error _ -> incr raised);
      check (Printf.sprintf "circuit %d (%d qubits) matches the oracle" i n) true
        (same_extraction flat boxed);
      check (Printf.sprintf "circuit %d charges the same kernel work" i) true
        (flat_ops = boxed_ops))
    sizes;
  check "some circuits complete" true (!completed > 40);
  check "some circuits are rejected" true (!raised > 3)

(* Words over a few short strings: repeats, exact cancellations, ~zero
   angles and runs of commuting (Z-only) strings. *)
let test_normalize_matches_oracle () =
  let st = Random.State.make [| 7 |] in
  let pool = Array.map str [| "ZZIZ"; "IZZI"; "ZIIZ"; "XXII"; "IYZI"; "XIIX"; "ZZZZ"; "IIIY" |] in
  let angles = [| 0.3; -0.3; 0.5; 1e-13; 0.; -1e-13; 0.7 |] in
  for i = 0 to 599 do
    let len = Random.State.int st 40 in
    let word = ref [] in
    for _ = 1 to len do
      match !word with
      | (p, t) :: _ when Random.State.int st 5 = 0 -> word := (p, -.t) :: !word
      | _ ->
        let p = pool.(Random.State.int st (if i mod 3 = 0 then 3 else Array.length pool)) in
        word := (p, angles.(Random.State.int st (Array.length angles))) :: !word
    done;
    let w = List.rev !word in
    let a = Pauli_frame.normalize w and b = Pauli_frame_ref.normalize w in
    check (Printf.sprintf "word %d normalizes like the oracle" i) true
      (List.length a = List.length b && List.for_all2 rotation_eq a b)
  done

(* --- Unitary_check --- *)

let test_rotations_unitary () =
  let u = Unitary_check.rotations_unitary ~n_qubits:2 [ str "ZZ", 0.4; str "XI", 0.2 ] in
  check "unitary" true (Ph_linalg.Matrix.is_unitary u)

let test_circuit_implements_rejects () =
  let c = Circuit.of_gates 2 [ Gate.Rz (0.4, 0) ] in
  check "accepts correct" true (Unitary_check.circuit_implements c [ str "IZ", 0.4 ]);
  check "rejects wrong" false (Unitary_check.circuit_implements c [ str "ZI", 0.4 ])

let test_sc_circuit_leak_detection () =
  (* A circuit entangling an ancilla must be rejected. *)
  let initial = Layout.identity 2 3 in
  let c = Circuit.of_gates 3 [ Gate.H 2; Gate.Cnot (2, 0); Gate.Rz (0.3, 0) ] in
  check "leaking circuit rejected" false
    (Unitary_check.sc_circuit_implements ~circuit:c ~rotations:[ str "IZ", 0.3 ]
       ~initial ~final:initial)

let () =
  Alcotest.run "verify"
    [
      ( "pauli_frame",
        [
          Alcotest.test_case "plain rz" `Quick test_extract_plain_rz;
          Alcotest.test_case "clifford conjugation" `Quick test_extract_conjugated;
          Alcotest.test_case "sign folding" `Quick test_extract_sign_folding;
          Alcotest.test_case "y basis" `Quick test_extract_y_basis;
          Alcotest.test_case "rejects non-clifford" `Quick test_extract_rejects_nonclifford;
          Alcotest.test_case "matches dense simulator" `Quick test_extract_matches_dense;
          Alcotest.test_case "permutation residue" `Quick test_residue_permutation;
          Alcotest.test_case "entangler is no permutation" `Quick
            test_residue_permutation_rejects_entangler;
          Alcotest.test_case "extract vs boxed oracle" `Quick test_extract_matches_oracle;
          Alcotest.test_case "normalize vs oracle" `Quick test_normalize_matches_oracle;
        ] );
      ( "verify_identity",
        [
          Alcotest.test_case "accepts" `Quick test_identity_accepts;
          Alcotest.test_case "rejects wrong trace" `Quick test_identity_rejects_wrong_trace;
          Alcotest.test_case "rejects leftover clifford" `Quick
            test_identity_rejects_leftover_clifford;
          Alcotest.test_case "rejects a permutation or a stray Z" `Quick
            test_identity_rejects_permutation_and_stray_z;
          Alcotest.test_case "zero-angle trace entries" `Quick
            test_identity_zero_angle_trace;
        ] );
      ( "verify_layouts",
        [
          Alcotest.test_case "swap residue" `Quick test_layouts_swap;
          Alcotest.test_case "rotation after swap" `Quick test_layouts_rotation_after_swap;
          Alcotest.test_case "ancilla-only swap" `Quick test_layouts_ancilla_only_swap;
          Alcotest.test_case "data-ancilla swap" `Quick test_layouts_data_ancilla_swap;
          Alcotest.test_case "stray Z placement" `Quick test_layouts_stray_z_placement;
        ] );
      "verify", [ Alcotest.test_case "FT/SC dispatch" `Quick test_verify_dispatch ];
      ( "verdict",
        [
          Alcotest.test_case "built once per compile" `Quick test_verdict_built_once;
          Alcotest.test_case "exception kept" `Quick test_verdict_exception_kept;
        ] );
      ( "unitary_check",
        [
          Alcotest.test_case "rotations unitary" `Quick test_rotations_unitary;
          Alcotest.test_case "accept/reject" `Quick test_circuit_implements_rejects;
          Alcotest.test_case "ancilla leak detection" `Quick test_sc_circuit_leak_detection;
        ] );
    ]
