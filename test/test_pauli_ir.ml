open Ph_pauli
open Ph_pauli_ir
open Ph_linalg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck = QCheck_alcotest.to_alcotest

let term s w = Pauli_term.make (Pauli_string.of_string s) w

(* --- Block --- *)

let uccsd_like =
  Block.make
    [ term "XXXY" 0.25; term "XXYX" (-0.25); term "YYYX" 0.25 ]
    (Block.symbolic "theta" 0.8)

let mixed_support =
  Block.make [ term "ZZII" 1.0; term "ZIZI" 1.0 ] (Block.fixed 0.5)

let test_block_basics () =
  check_int "qubits" 4 (Block.n_qubits uccsd_like);
  check_int "terms" 3 (Block.term_count uccsd_like);
  Alcotest.(check (list int)) "active" [ 0; 1; 2; 3 ] (Block.active_qubits uccsd_like);
  check_int "active length" 4 (Block.active_length uccsd_like);
  Alcotest.(check (list int)) "core (all strings everywhere)" [ 0; 1; 2; 3 ]
    (Block.core_qubits uccsd_like);
  (* Core of ZZII/ZIZI: only q3 is active in both strings. *)
  Alcotest.(check (list int)) "core excludes partial support" [ 3 ]
    (Block.core_qubits mixed_support);
  Alcotest.(check (list int)) "active is the union" [ 1; 2; 3 ]
    (Block.active_qubits mixed_support)

let test_block_sort () =
  let sorted = Block.sort_terms_lex uccsd_like in
  let first = Block.representative sorted in
  (* X < Y lexicographically from the top qubit: XXXY < XXYX < YYXI *)
  Alcotest.(check string) "lex first" "XXXY" (Pauli_string.to_string first.str)

let test_block_overlap_disjoint () =
  let a = Block.make [ term "ZZII" 1.0 ] (Block.fixed 1.0) in
  let b = Block.make [ term "IIZZ" 1.0 ] (Block.fixed 1.0) in
  let c = Block.make [ term "IZZI" 1.0 ] (Block.fixed 1.0) in
  check "disjoint" true (Block.disjoint a b);
  check "not disjoint" false (Block.disjoint a c);
  check_int "overlap a/c" 1 (Block.overlap a c)

let test_block_validation () =
  Alcotest.check_raises "empty block" (Invalid_argument "Block.make: empty term list")
    (fun () -> ignore (Block.make [] (Block.fixed 1.)));
  Alcotest.check_raises "mixed sizes" (Invalid_argument "Block.make: mixed qubit counts")
    (fun () -> ignore (Block.make [ term "ZZ" 1.; term "ZZZ" 1. ] (Block.fixed 1.)))

let test_mutually_commuting () =
  check "uccsd-like commuting" true (Block.mutually_commuting uccsd_like);
  let anti = Block.make [ term "XI" 1.; term "ZI" 1. ] (Block.fixed 1.) in
  check "XI,ZI anticommute" false (Block.mutually_commuting anti)

(* --- Program --- *)

let sample_program =
  Program.make 3
    [
      Block.make [ term "ZZI" 0.5 ] (Block.fixed 0.1);
      Block.make [ term "IZZ" 1.5; term "XXI" 0.2 ] (Block.fixed 0.2);
    ]

let test_program_basics () =
  check_int "blocks" 2 (Program.block_count sample_program);
  check_int "terms" 3 (Program.term_count sample_program);
  check_int "rotations" 3 (List.length (Program.rotations sample_program))

let test_rotation_angles () =
  match Program.rotations sample_program with
  | (_, theta) :: _ -> Alcotest.(check (float 1e-12)) "theta = 2wt" 0.1 theta
  | [] -> Alcotest.fail "no rotations"

let test_same_multiset () =
  let reordered =
    Program.with_blocks sample_program (List.rev (Program.blocks sample_program))
  in
  check "permutation is same multiset" true (Program.same_multiset sample_program reordered);
  let other = Program.make 3 [ Block.make [ term "ZZI" 0.5 ] (Block.fixed 0.1) ] in
  check "different programs differ" false (Program.same_multiset sample_program other)

(* --- Semantics --- *)

let test_pauli_matrix_zz () =
  let m = Semantics.pauli_matrix (Pauli_string.of_string "ZZ") in
  List.iteri
    (fun i expected ->
      check (Printf.sprintf "ZZ diag %d" i) true
        (Cplx.approx_equal (Matrix.get m i i) { re = expected; im = 0. }))
    [ 1.; -1.; -1.; 1. ]

let test_pauli_matrix_hermitian_unitary () =
  List.iter
    (fun s ->
      let m = Semantics.pauli_matrix (Pauli_string.of_string s) in
      check (s ^ " hermitian") true (Matrix.equal m (Matrix.dagger m));
      check (s ^ " unitary") true (Matrix.is_unitary m))
    [ "XY"; "ZI"; "YY"; "XZ" ]

let test_term_unitary () =
  let p = Pauli_string.of_string "ZZ" in
  let u = Semantics.term_unitary p 0.7 in
  check "unitary" true (Matrix.is_unitary u);
  (* exp(-i θ/2 ZZ)|00> = e^{-iθ/2}|00> *)
  check "eigenphase" true
    (Cplx.approx_equal (Matrix.get u 0 0) (Cplx.exp_i (-0.35)))

let test_semantics_block_permutation_invariant () =
  let reordered =
    Program.with_blocks sample_program (List.rev (Program.blocks sample_program))
  in
  check "hamiltonian invariant under block permutation" true
    (Matrix.equal (Semantics.hamiltonian sample_program) (Semantics.hamiltonian reordered))

let test_kernel_unitary_is_unitary () =
  check "kernel unitary" true (Matrix.is_unitary (Semantics.kernel_unitary sample_program))

let prop_hamiltonian_invariant =
  let gen =
    QCheck.Gen.(
      let gen_str =
        map
          (fun ops -> Pauli_string.of_ops (Array.of_list ops))
          (list_repeat 3 (oneofl Pauli.all))
      in
      let gen_block =
        map2
          (fun s w -> Block.make [ Pauli_term.make s w ] (Block.fixed 1.0))
          gen_str (float_bound_inclusive 2.)
      in
      list_size (int_range 1 5) gen_block)
  in
  QCheck.Test.make ~name:"⟦program⟧ invariant under any block permutation" ~count:40
    (QCheck.make gen)
    (fun blocks ->
      let prog = Program.make 3 blocks in
      let shuffled =
        Program.with_blocks prog
          (List.sort
             (fun a b ->
               Pauli_string.compare (Block.representative a).str
                 (Block.representative b).str)
             blocks)
      in
      Matrix.equal (Semantics.hamiltonian prog) (Semantics.hamiltonian shuffled))

(* --- Parser / printer --- *)

let h2_text =
  {|
// H2 fragment (Figure 6a)
{(IIIZ, 0.214), dt};
{(IIZI, -0.37), dt};
{(XXXX, 0.042), 0.5};
|}

let test_parse_h2 () =
  let prog = Parser.parse ~params:[ "dt", 0.1 ] h2_text in
  check_int "3 blocks" 3 (Program.block_count prog);
  check_int "4 qubits" 4 (Program.n_qubits prog);
  match Program.blocks prog with
  | b1 :: _ ->
    Alcotest.(check (float 1e-12)) "dt bound" 0.1 (Block.param b1).value;
    Alcotest.(check string) "first string" "IIIZ"
      (Pauli_string.to_string (Block.representative b1).str)
  | [] -> Alcotest.fail "no blocks"

let test_parse_multi_term_block () =
  let prog = Parser.parse "{(ZZ, 1.0), (XX, -0.5), 0.3};" in
  check_int "1 block" 1 (Program.block_count prog);
  check_int "2 terms" 2 (Program.term_count prog)

let test_parse_errors () =
  let fails s =
    match Parser.parse s with
    | exception Parser.Parse_error _ -> true
    | _ -> false
  in
  check "unbound param" true (fails "{(ZZ, 1.0), omega};");
  check "empty" true (fails "");
  check "garbage" true (fails "{(QQ, 1.0), 0.1};");
  check "missing brace" true (fails "{(ZZ, 1.0), 0.1");
  check "default rescues unbound" true
    (match Parser.parse ~default:1.0 "{(ZZ, 1.0), omega};" with
    | _ -> true
    | exception Parser.Parse_error _ -> false)

let test_parse_error_positions () =
  let message s =
    match Parser.parse s with
    | exception Parser.Parse_error msg -> msg
    | _ -> Alcotest.fail "expected Parse_error"
  in
  Alcotest.(check string) "missing ';' reported at next block"
    "line 2, column 1: expected ';' between blocks, got '{'"
    (message "{(ZZ, 1.0), 0.3}\n{(XX, 1.0), 0.2};");
  Alcotest.(check string) "bad Pauli letters located mid-line"
    "line 1, column 14: expected Pauli string, got \"QQ\""
    (message "{(ZZ, 1.0), (QQ, 2.0), 0.1};");
  Alcotest.(check string) "comment lines advance the position"
    "line 2, column 12: expected ',' after term, got number"
    (message "// comment\n{(ZZ, 1.0) 0.3};");
  Alcotest.(check string) "truncated input points past the end"
    "line 1, column 16: unexpected end of input"
    (message "{(ZZ, 1.0), 0.1");
  Alcotest.(check string) "unbound parameter names the identifier"
    "line 1, column 13: unbound parameter \"omega\""
    (message "{(ZZ, 1.0), omega};")

(* Weights and parameters must be finite: a non-finite value would
   otherwise reach the compiler and fail only at verification. *)
let test_parse_non_finite () =
  let message ?params ?default s =
    match Parser.parse ?params ?default s with
    | exception Parser.Parse_error msg -> msg
    | _ -> Alcotest.fail "expected Parse_error"
  in
  Alcotest.(check string) "overflowing weight literal"
    "line 1, column 7: number \"1e400\" is not finite"
    (message "{(XX, 1e400), 1};");
  Alcotest.(check string) "overflowing parameter literal"
    "line 1, column 13: number \"-1e999\" is not finite"
    (message "{(XX, 0.5), -1e999};");
  List.iter
    (fun (v, shown) ->
      Alcotest.(check string) ("binding " ^ shown)
        (Printf.sprintf
           "line 2, column 13: parameter \"t\" is bound to %s, not a finite \
            number"
           shown)
        (message ~params:[ "t", v ] "{(ZZ, 1.0), 0.1};\n{(XX, 0.5), t};"))
    [ Float.nan, "nan"; Float.infinity, "inf"; Float.neg_infinity, "-inf" ];
  Alcotest.(check string) "non-finite default names the parameter"
    "line 1, column 13: parameter \"omega\" is bound to inf, not a finite \
     number"
    (message ~default:Float.infinity "{(ZZ, 1.0), omega};");
  check "unused non-finite binding is harmless" true
    (match Parser.parse ~params:[ "t", Float.nan ] "{(ZZ, 1.0), 0.1};" with
    | _ -> true
    | exception Parser.Parse_error _ -> false)

let test_parse_numeric_forms () =
  let prog = Parser.parse "{(ZZ, 1e-3), 2.5e2}; {(XX, -0.5), -1.25};" in
  match Program.rotations prog with
  | [ (_, t1); (_, t2) ] ->
    Alcotest.(check (float 1e-12)) "exponent weight" (2. *. 1e-3 *. 250.) t1;
    Alcotest.(check (float 1e-12)) "negative pair" (2. *. -0.5 *. -1.25) t2
  | _ -> Alcotest.fail "expected two rotations"

let test_roundtrip () =
  let prog = Parser.parse ~params:[ "dt", 0.1 ] h2_text in
  let reparsed = Parser.parse ~params:[ "dt", 0.1 ] (Parser.to_text prog) in
  check "roundtrip same multiset" true (Program.same_multiset prog reparsed);
  check "roundtrip same denotation" true
    (Matrix.equal (Semantics.hamiltonian prog) (Semantics.hamiltonian reparsed))

(* --- Trotter --- *)

let test_trotterize () =
  let terms = [ term "ZZ" 1.0; term "XI" 0.5 ] in
  let prog = Trotter.trotterize ~n_qubits:2 ~terms ~time:1.0 ~steps:4 in
  check_int "2 terms x 4 steps" 8 (Program.block_count prog);
  match Program.blocks prog with
  | b :: _ -> Alcotest.(check (float 1e-12)) "dt" 0.25 (Block.param b).value
  | [] -> Alcotest.fail "no blocks"

let test_trotter_converges () =
  (* First-order Trotter: more steps -> closer to exp(-iHt). Verify the
     kernel unitary approaches the exact exponential computed by
     diagonalizing a 1-qubit-free case: H = Z0 + X0 is avoided; use
     commuting terms where Trotter is exact. *)
  let terms = [ term "ZI" 0.4; term "IZ" 0.7 ] in
  let prog = Trotter.trotterize ~n_qubits:2 ~terms ~time:0.9 ~steps:1 in
  let u = Semantics.kernel_unitary prog in
  (* Commuting terms: product of individual exponentials, any order. *)
  let exact =
    Matrix.mul
      (Semantics.term_unitary (Pauli_string.of_string "ZI") (2. *. 0.4 *. 0.9))
      (Semantics.term_unitary (Pauli_string.of_string "IZ") (2. *. 0.7 *. 0.9))
  in
  check "exact for commuting terms" true (Matrix.equal_up_to_phase u exact)

let test_second_order_structure () =
  let terms = [ term "ZZ" 1.0; term "XI" 0.5 ] in
  let prog = Trotter.second_order ~n_qubits:2 ~terms ~time:1.0 ~steps:3 in
  (* per step: forward + reversed = 4 blocks *)
  check_int "blocks" 12 (Program.block_count prog);
  match Program.blocks prog with
  | b :: _ -> Alcotest.(check (float 1e-12)) "half step" (1. /. 6.) (Block.param b).value
  | [] -> Alcotest.fail "no blocks"

let test_second_order_more_accurate () =
  (* Non-commuting pair: second order at equal steps must be closer to
     the true evolution than first order. *)
  let terms = [ term "ZI" 0.8; term "XI" 0.6 ] in
  let exact =
    Semantics.kernel_unitary
      (Trotter.trotterize ~n_qubits:2 ~terms ~time:1.0 ~steps:512)
  in
  let err prog = Matrix.dist (Semantics.kernel_unitary prog) exact in
  let first = err (Trotter.trotterize ~n_qubits:2 ~terms ~time:1.0 ~steps:4) in
  let second = err (Trotter.second_order ~n_qubits:2 ~terms ~time:1.0 ~steps:4) in
  check (Printf.sprintf "second (%.4f) < first (%.4f)" second first) true (second < first)

let test_qaoa_layer () =
  let prog = Trotter.qaoa_layer ~n_qubits:2 ~terms:[ term "ZZ" 1.0 ] ~gamma:0.5 in
  check_int "single block" 1 (Program.block_count prog);
  match Program.blocks prog with
  | [ b ] -> check "gamma label" true ((Block.param b).label = Some "gamma")
  | _ -> Alcotest.fail "expected one block"

let () =
  Alcotest.run "pauli_ir"
    [
      ( "block",
        [
          Alcotest.test_case "basics" `Quick test_block_basics;
          Alcotest.test_case "lexicographic term sort" `Quick test_block_sort;
          Alcotest.test_case "overlap and disjointness" `Quick test_block_overlap_disjoint;
          Alcotest.test_case "validation" `Quick test_block_validation;
          Alcotest.test_case "mutual commutation" `Quick test_mutually_commuting;
        ] );
      ( "program",
        [
          Alcotest.test_case "basics" `Quick test_program_basics;
          Alcotest.test_case "rotation angles" `Quick test_rotation_angles;
          Alcotest.test_case "multiset comparison" `Quick test_same_multiset;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "ZZ matrix" `Quick test_pauli_matrix_zz;
          Alcotest.test_case "hermitian+unitary" `Quick test_pauli_matrix_hermitian_unitary;
          Alcotest.test_case "term unitary" `Quick test_term_unitary;
          Alcotest.test_case "block permutation invariance" `Quick
            test_semantics_block_permutation_invariant;
          Alcotest.test_case "kernel unitary" `Quick test_kernel_unitary_is_unitary;
          qcheck prop_hamiltonian_invariant;
        ] );
      ( "parser",
        [
          Alcotest.test_case "H2 example" `Quick test_parse_h2;
          Alcotest.test_case "multi-term blocks" `Quick test_parse_multi_term_block;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_parse_error_positions;
          Alcotest.test_case "numeric forms" `Quick test_parse_numeric_forms;
          Alcotest.test_case "non-finite numbers" `Quick test_parse_non_finite;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        ] );
      ( "trotter",
        [
          Alcotest.test_case "trotterize" `Quick test_trotterize;
          Alcotest.test_case "exact on commuting terms" `Quick test_trotter_converges;
          Alcotest.test_case "second order structure" `Quick test_second_order_structure;
          Alcotest.test_case "second order accuracy" `Quick test_second_order_more_accurate;
          Alcotest.test_case "qaoa layer" `Quick test_qaoa_layer;
        ] );
    ]
