open Ph_pauli
open Ph_pauli_ir
open Ph_opt
open Paulihedral

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck = QCheck_alcotest.to_alcotest

let str = Pauli_string.of_string
let term s w = Pauli_term.make (str s) w

let block ?(param = 0.3) terms = Block.make terms (Block.fixed param)

let prog n blocks = Program.make n blocks

(* Every structural invariant of a pass result in one place. *)
let check_pass_invariants p (o : Pass.t) =
  check_int "n_qubits preserved" (Program.n_qubits p)
    (Program.n_qubits o.Pass.program);
  List.iter
    (fun b ->
      List.iter
        (fun (t : Pauli_term.t) ->
          check "post-opt block diagonal" true
            (Ph_baselines.Symplectic.is_diagonal t.Pauli_term.str))
        (Block.terms b))
    (Program.blocks o.Pass.program);
  let s = o.Pass.stats in
  check "accounting explains block count" true
    (s.Pass.groups - s.Pass.fused_blocks = Program.block_count o.Pass.program
    || (s.Pass.groups = s.Pass.fused_blocks
       && Program.block_count o.Pass.program = 1))

let test_grouping_splits_anticommuting () =
  (* XX and ZZ commute; XI anticommutes with both: at least two groups,
     no rotation lost. *)
  let p = prog 2 [ block [ term "XX" 1.0; term "ZZ" 0.5; term "XI" 0.2 ] ] in
  let o = Pass.run p in
  check_pass_invariants p o;
  check "at least 2 groups" true (o.Pass.stats.Pass.groups >= 2);
  check_int "rotations all rewritten" 3 o.Pass.stats.Pass.diag_rotations

let test_all_diagonal_is_noop_frame () =
  let p = prog 3 [ block [ term "ZZI" 1.0; term "IZZ" 0.5 ] ] in
  let o = Pass.run p in
  check_pass_invariants p o;
  List.iter
    (fun (g : Pass.group) -> check "identity frame" true (g.Pass.clifford = []))
    o.Pass.groups

let test_cancellation_leaves_sentinel () =
  (* Equal strings with opposite coefficients in one frame cancel; the IR
     cannot be empty, so a single identity sentinel block remains. *)
  let p = prog 2 [ block [ term "ZZ" 1.0; term "ZZ" (-1.0) ] ] in
  let o = Pass.run p in
  check_pass_invariants p o;
  check_int "sentinel block" 1 (Program.block_count o.Pass.program);
  check_int "all groups fused away" o.Pass.stats.Pass.groups
    o.Pass.stats.Pass.fused_blocks

let test_aliased_terms_kept () =
  (* The same term object twice must count as two rotations (physical
     aliasing regression guard). *)
  let t = term "XX" 0.7 in
  let p = prog 2 [ block [ t; t ] ] in
  let o = Pass.run p in
  check_pass_invariants p o;
  check_int "both aliases rewritten" 2 o.Pass.stats.Pass.diag_rotations;
  let total =
    List.fold_left
      (fun acc b -> acc + Block.term_count b)
      0
      (Program.blocks o.Pass.program)
  in
  check "merged weight or two rotations survive" true (total >= 1)

let test_deterministic () =
  let p =
    prog 3
      [
        block [ term "XXI" 1.0; term "IYY" 0.5; term "ZIZ" 0.25 ];
        block ~param:0.7 [ term "ZZZ" 1.0 ];
      ]
  in
  let a = Pass.run p and b = Pass.run p in
  check "equal programs" true (a.Pass.program = b.Pass.program);
  check "equal stats" true (a.Pass.stats = b.Pass.stats)

let dense_equivalent p =
  let phx = Pipelines.ph (Config.ft ~schedule:Config.Phoenix_like ()) p in
  let base = Pipelines.ph (Config.ft ()) p in
  check "phoenix run verified" true (Pipelines.verified phx);
  Ph_linalg.Matrix.equal_up_to_phase
    (Ph_gatelevel.Circuit.unitary phx.Pipelines.circuit)
    (Ph_gatelevel.Circuit.unitary base.Pipelines.circuit)

let test_semantics_commuting_program () =
  (* Fully commuting: phoenix must produce the same unitary as plain GCO
     scheduling, up to global phase. *)
  check "unitary equal" true
    (dense_equivalent
       (prog 3
          [
            block [ term "ZZI" 0.8; term "IZZ" 0.4 ];
            block ~param:0.11 [ term "XXX" 1.0; term "YYX" (-0.5) ];
          ]))

let prop_opt_invariants =
  let gen =
    QCheck.Gen.(
      let gen_str n =
        map
          (fun ops ->
            let arr = Array.of_list ops in
            if Array.for_all (fun p -> p = Pauli.I) arr then arr.(0) <- Pauli.Z;
            Pauli_string.of_ops arr)
          (list_repeat n (oneofl Pauli.all))
      in
      let gen_block n =
        map
          (fun (ws, p) ->
            Block.make
              (List.map (fun (s, w) -> Pauli_term.make s w) ws)
              (Block.fixed p))
          (pair
             (list_size (int_range 1 4)
                (pair (gen_str n) (float_range (-2.0) 2.0)))
             (float_range 0.05 1.0))
      in
      map
        (fun bs -> Program.make 4 bs)
        (list_size (int_range 1 3) (gen_block 4)))
  in
  QCheck.Test.make ~name:"opt pass invariants on random programs" ~count:100
    (QCheck.make gen)
    (fun p ->
      let o = Pass.run p in
      check_pass_invariants p o;
      true)

(* --- merge_groups vs its quadratic reference form --- *)

(* The pass's original statement of the merge, kept as the oracle: it
   re-appends the merged prefix at every step. *)
let rec merge_groups_ref = function
  | (a : Pass.group) :: b :: rest
    when List.compare_lengths a.clifford b.clifford = 0
         && List.for_all2 Ph_gatelevel.Gate.equal a.clifford b.clifford ->
    merge_groups_ref
      ({ Pass.clifford = a.clifford; blocks = a.blocks @ b.blocks; rows = a.rows @ b.rows }
       :: rest)
  | a :: rest -> a :: merge_groups_ref rest
  | [] -> []

let check_merge name prog =
  let groups = Pass.diagonalize prog in
  let merged = Pass.merge_groups groups in
  check (name ^ ": merged groups equal the reference") true
    (merged = merge_groups_ref groups)

let test_merge_groups_table2 () =
  List.iter
    (fun (b : Ph_benchmarks.Suite.t) -> check_merge b.Ph_benchmarks.Suite.name (b.generate ()))
    (Ph_benchmarks.Suite.all ())

let test_merge_groups_all_diagonal () =
  (* 8,000 single-ZZ blocks share the empty frame: one run, one group *)
  let st = Random.State.make [| 8000 |] in
  let zz () =
    let a = Random.State.int st 64 in
    let b = (a + 1 + Random.State.int st 63) mod 64 in
    Pauli_string.of_support 64 [ a, Pauli.Z; b, Pauli.Z ]
  in
  let prog =
    prog 64
      (List.init 8000 (fun _ ->
           Block.make [ Pauli_term.make (zz ()) 0.5 ] (Block.fixed (Random.State.float st 1.))))
  in
  check_int "one group" 1 (List.length (Pass.merge_groups (Pass.diagonalize prog)));
  check_merge "all-diagonal 8000" prog

let () =
  Alcotest.run "opt"
    [
      ( "pass",
        [
          Alcotest.test_case "splits anticommuting terms" `Quick
            test_grouping_splits_anticommuting;
          Alcotest.test_case "all-diagonal keeps identity frame" `Quick
            test_all_diagonal_is_noop_frame;
          Alcotest.test_case "full cancellation leaves sentinel" `Quick
            test_cancellation_leaves_sentinel;
          Alcotest.test_case "aliased terms both kept" `Quick
            test_aliased_terms_kept;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          qcheck prop_opt_invariants;
        ] );
      ( "merge_groups",
        [
          Alcotest.test_case "table-2 programs vs reference" `Quick test_merge_groups_table2;
          Alcotest.test_case "all-diagonal 8000 blocks vs reference" `Quick
            test_merge_groups_all_diagonal;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "commuting program unitary preserved" `Quick
            test_semantics_commuting_program;
        ] );
    ]
