open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware
open Ph_baselines
open Ph_verify

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck = QCheck_alcotest.to_alcotest

let str = Pauli_string.of_string
let term s w = Pauli_term.make (str s) w

let program_of_strings ?(param = 0.3) n strs =
  Program.make n
    (List.map (fun (s, w) -> Block.make [ term s w ] (Block.fixed param)) strs)

(* --- Symplectic.conjugate: cross-check every rule against dense matrices --- *)

let clifford_gates_2q =
  [
    Gate.H 0; Gate.H 1; Gate.S 0; Gate.Sdg 1; Gate.X 0; Gate.Y 1; Gate.Z 0;
    Gate.Cnot (0, 1); Gate.Cnot (1, 0); Gate.Swap (0, 1);
    Gate.Rx (Float.pi /. 2., 0); Gate.Rx (-.Float.pi /. 2., 1);
  ]

let all_2q_paulis =
  List.concat_map
    (fun a -> List.map (fun b -> Pauli_string.of_ops [| a; b |]) Pauli.all)
    Pauli.all
  |> List.filter (fun p -> not (Pauli_string.is_identity p))

let test_conjugate_matches_dense () =
  let open Ph_linalg in
  List.iter
    (fun g ->
      let u = Circuit.unitary (Circuit.of_gates 2 [ g ]) in
      List.iter
        (fun p ->
          let q, k = Symplectic.conjugate g (p, 0) in
          check (Printf.sprintf "phase of %s under %s" (Pauli_string.to_string p) (Gate.to_string g))
            true (k = 0 || k = 2);
          let lhs = Matrix.mul (Matrix.mul u (Semantics.pauli_matrix p)) (Matrix.dagger u) in
          let rhs =
            Matrix.scale
              (Cplx.i_pow k)
              (Semantics.pauli_matrix q)
          in
          check
            (Printf.sprintf "g·%s·g† for %s" (Pauli_string.to_string p) (Gate.to_string g))
            true (Matrix.equal lhs rhs))
        all_2q_paulis)
    clifford_gates_2q

let prop_conjugate_preserves_weighted_commutation =
  let gen =
    QCheck.Gen.(
      pair (oneofl clifford_gates_2q)
        (pair
           (map (fun l -> Pauli_string.of_ops (Array.of_list l)) (list_repeat 2 (oneofl Pauli.all)))
           (map (fun l -> Pauli_string.of_ops (Array.of_list l)) (list_repeat 2 (oneofl Pauli.all)))))
  in
  QCheck.Test.make ~name:"conjugation preserves commutation" ~count:200 (QCheck.make gen)
    (fun (g, (p, q)) ->
      let p', _ = Symplectic.conjugate g (p, 0) in
      let q', _ = Symplectic.conjugate g (q, 0) in
      Pauli_string.commutes p q = Pauli_string.commutes p' q')

(* --- Symplectic.diagonalize --- *)

let test_diagonalize_basic () =
  let strings = [ str "XX"; str "YY" ] in
  check "input commutes" true (Pauli_string.commutes (str "XX") (str "YY"));
  let gates, diags = Symplectic.diagonalize strings in
  List.iter
    (fun (d, k) ->
      check "diagonal" true (Symplectic.is_diagonal d);
      check "hermitian sign" true (k = 0 || k = 2))
    diags;
  (* The Clifford actually conjugates the inputs to the reported rows. *)
  List.iter2
    (fun p (d, k) ->
      let conj =
        List.fold_left (fun acc g -> Symplectic.conjugate g acc) (p, 0) gates
      in
      check "conjugation consistent" true
        (Pauli_string.equal (fst conj) d && snd conj = k))
    strings diags

let test_diagonalize_rejects_noncommuting () =
  check "raises" true
    (match Symplectic.diagonalize [ str "XI"; str "ZI" ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Rows must be reproducible by folding the group's own Clifford over the
   originals — the consistency contract every edge case below re-checks. *)
let check_group_consistent (g : Symplectic.group) =
  List.iter
    (fun (orig, d, sign) ->
      check "row diagonal" true (Symplectic.is_diagonal d);
      check "row sign" true (sign = 1.0 || sign = -1.0);
      let q, k = Symplectic.conjugate_list g.Symplectic.clifford (orig, 0) in
      check "row conjugation" true
        (Pauli_string.equal q d && (if k = 0 then 1.0 else -1.0) = sign))
    g.Symplectic.rows

let test_diagonalize_single_qubit () =
  List.iter
    (fun s ->
      let g = Symplectic.diagonalize_group [ str s ] in
      check_int (s ^ " one row") 1 (List.length g.Symplectic.rows);
      check_group_consistent g)
    [ "X"; "Y"; "Z" ]

let test_diagonalize_all_diagonal_identity () =
  let strings = [ str "ZIZ"; str "IZZ"; str "ZZZ" ] in
  let g = Symplectic.diagonalize_group strings in
  check "clifford is identity" true (g.Symplectic.clifford = []);
  List.iter2
    (fun p (orig, d, sign) ->
      check "original kept" true (Pauli_string.equal p orig);
      check "image unchanged" true (Pauli_string.equal p d);
      check "sign +1" true (sign = 1.0))
    strings g.Symplectic.rows

let test_diagonalize_word_boundary () =
  (* Widths 63 and 64 straddle the 62-bit packing word; put support on
     both sides of the boundary and at the extreme ends. *)
  List.iter
    (fun n ->
      let at ops i = List.assoc_opt i ops |> Option.value ~default:Pauli.I in
      let s1 =
        Pauli_string.make n (at [ 0, Pauli.X; 61, Pauli.X; n - 1, Pauli.X ])
      and s2 =
        (* agree at 0, anticommute at 61 and n-1: two anticommuting
           positions, so the pair commutes *)
        Pauli_string.make n (at [ 0, Pauli.X; 61, Pauli.Y; n - 1, Pauli.Y ])
      and s3 = Pauli_string.make n (at [ 61, Pauli.Z; 62, Pauli.Z ]) in
      check "XY set commutes" true (Pauli_string.commutes s1 s2);
      let g = Symplectic.diagonalize_group [ s1; s2 ] in
      check_int "both rows" 2 (List.length g.Symplectic.rows);
      check_group_consistent g;
      check "Z straddling words already diagonal" true (Symplectic.is_diagonal s3);
      check_group_consistent (Symplectic.diagonalize_group [ s3 ]))
    [ 63; 64 ]

let gen_commuting_set n =
  (* Build commuting sets by multiplying random subsets of commuting
     generators (Z-strings and matched X-strings). *)
  QCheck.Gen.(
    let gen_z =
      map
        (fun bits ->
          Pauli_string.make n (fun i ->
              if List.nth bits i then Pauli.Z else Pauli.I))
        (list_repeat n bool)
    in
    map
      (fun zs ->
        List.filter (fun p -> not (Pauli_string.is_identity p)) zs
        |> List.sort_uniq Pauli_string.compare)
      (list_size (int_range 1 4) gen_z))

let prop_diagonalize_z_sets =
  QCheck.Test.make ~name:"diagonalize: any Z-set stays diagonal" ~count:50
    (QCheck.make (gen_commuting_set 4))
    (fun strings ->
      strings = []
      ||
      let gates, diags = Symplectic.diagonalize strings in
      gates = [] && List.for_all (fun (d, _) -> Symplectic.is_diagonal d) diags)

let prop_diagonalize_conjugated_sets =
  (* Conjugate a commuting Z-set by a random Clifford: still commuting,
     and diagonalize must succeed. *)
  let gen =
    QCheck.Gen.(
      pair (gen_commuting_set 4)
        (list_size (int_range 0 10) (oneofl
          [ Gate.H 0; Gate.H 2; Gate.S 1; Gate.Cnot (0, 1); Gate.Cnot (2, 3);
            Gate.Cnot (1, 2); Gate.Sdg 3; Gate.Swap (0, 3) ])))
  in
  QCheck.Test.make ~name:"diagonalize any commuting set" ~count:100 (QCheck.make gen)
    (fun (zset, cliff) ->
      match zset with
      | [] -> true
      | _ ->
        let strings =
          List.map
            (fun p -> fst (List.fold_left (fun acc g -> Symplectic.conjugate g acc) (p, 0) cliff))
            zset
          |> List.sort_uniq Pauli_string.compare
        in
        let gates, diags = Symplectic.diagonalize strings in
        List.for_all (fun (d, _) -> Symplectic.is_diagonal d) diags
        && List.for_all2
             (fun p (d, k) ->
               let c = List.fold_left (fun acc g -> Symplectic.conjugate g acc) (p, 0) gates in
               Pauli_string.equal (fst c) d && snd c = k)
             strings diags)

(* --- Symplectic.diagonalize against the list-based reference --- *)

(* Identical gate lists and identical signed images. *)
let check_same_as_ref what strings =
  let gates, images = Symplectic.diagonalize strings in
  let ref_gates, ref_images = Symplectic_ref.diagonalize strings in
  check (what ^ ": gates") true (List.equal Gate.equal gates ref_gates);
  check (what ^ ": signed images") true
    (List.equal
       (fun (p, k) (q, l) -> Pauli_string.equal p q && k = l)
       images ref_images)

(* [count] random Cliffords on [n] qubits; CNOTs pick any two qubits,
   so they cross the packing-word boundary. *)
let random_cliffords rand n count =
  let q () = Random.State.int rand n in
  List.init count (fun _ ->
      match Random.State.int rand (if n = 1 then 3 else 5) with
      | 0 -> Gate.H (q ())
      | 1 -> Gate.S (q ())
      | 2 -> Gate.Sdg (q ())
      | _ ->
        let a = q () in
        Gate.Cnot (a, (a + 1 + Random.State.int rand (n - 1)) mod n))

let conjugated gates strings =
  List.map (fun p -> fst (Symplectic.conjugate_list gates (p, 0))) strings

let test_diagonalize_matches_ref_widths () =
  let rand = Random.State.make [| 29 |] in
  for n = 1 to 130 do
    for _ = 1 to 3 do
      let zset = QCheck.Gen.generate1 ~rand (gen_commuting_set n) in
      if zset <> [] then begin
        let what = Printf.sprintf "n=%d" n in
        check_same_as_ref (what ^ " all-diagonal") zset;
        check_same_as_ref (what ^ " scrambled")
          (conjugated (random_cliffords rand n (4 * n)) zset);
        (* H then S on every qubit turns the Z-set into Y/I strings; a
           few CNOTs keep it Y-heavy. *)
        let to_y = List.init n (fun q -> Gate.H q) @ List.init n (fun q -> Gate.S q) in
        check_same_as_ref (what ^ " Y-heavy")
          (conjugated (to_y @ random_cliffords rand n (1 + (n / 8))) zset)
      end;
      let single =
        Pauli_string.make n (fun _ -> List.nth Pauli.all (Random.State.int rand 4))
      in
      if not (Pauli_string.is_identity single) then
        check_same_as_ref (Printf.sprintf "n=%d singleton" n) [ single ]
    done
  done

(* First-fit commuting classes of each block, in term order — the
   optimizer's grouping (its disjoint-support shortcut never changes a
   placement), checked against [Pass.run]'s class count. *)
let phoenix_classes prog =
  List.concat_map
    (fun b ->
      let classes = ref [] in
      if (Block.param b).Block.value <> 0. then
        List.iter
          (fun (t : Pauli_term.t) ->
            let s = t.Pauli_term.str in
            if (not (Pauli_string.is_identity s)) && t.Pauli_term.coeff <> 0. then
              match
                List.find_opt (fun c -> List.for_all (Pauli_string.commutes s) !c) !classes
              with
              | Some c -> c := !c @ [ s ]
              | None -> classes := !classes @ [ ref [ s ] ])
          (Block.terms b);
      List.map ( ! ) !classes)
    (Program.blocks prog)

let test_diagonalize_matches_ref_table2 () =
  List.iter
    (fun (b : Ph_benchmarks.Suite.t) ->
      let prog = b.Ph_benchmarks.Suite.generate () in
      let classes = phoenix_classes prog in
      check_int (b.Ph_benchmarks.Suite.name ^ " classes")
        (Ph_opt.Pass.run prog).Ph_opt.Pass.stats.Ph_opt.Pass.groups
        (List.length classes);
      List.iteri
        (fun i c -> check_same_as_ref (Printf.sprintf "%s class %d" b.Ph_benchmarks.Suite.name i) c)
        classes)
    (Ph_benchmarks.Suite.all ())

(* --- Tk_like --- *)

let test_tk_partition_commuting () =
  let prog =
    program_of_strings 3 [ "ZZI", 1.0; "IZZ", 0.5; "XXI", 0.3; "ZZZ", 0.2 ]
  in
  let sets = Tk_like.partition prog in
  check_int "total terms preserved" 4
    (List.fold_left (fun a s -> a + List.length s) 0 sets);
  List.iter
    (fun set ->
      let rec pairwise = function
        | [] -> true
        | (p, _) :: rest ->
          List.for_all (fun (q, _) -> Pauli_string.commutes p q) rest && pairwise rest
      in
      check "set mutually commutes" true (pairwise set))
    sets

let test_tk_compile_correct () =
  let prog =
    program_of_strings 3 [ "ZZI", 1.0; "IZZ", 0.5; "XXI", 0.3; "YIY", 0.7 ]
  in
  let r = Tk_like.compile prog in
  check "pauli-frame verified" true (Pauli_frame.verify r.circuit ~trace:r.rotations);
  check "dense verified" true (Unitary_check.circuit_implements r.circuit r.rotations)

let prop_tk_correct =
  let gen =
    QCheck.Gen.(
      let gen_str =
        map
          (fun ops ->
            let s = Pauli_string.of_ops (Array.of_list ops) in
            if Pauli_string.is_identity s then str "IIZ" else s)
          (list_repeat 3 (oneofl Pauli.all))
      in
      list_size (int_range 1 6) (pair gen_str (float_bound_inclusive 1.)))
  in
  QCheck.Test.make ~name:"TK baseline is always correct" ~count:60 (QCheck.make gen)
    (fun terms ->
      let prog = program_of_strings 3 (List.map (fun (s, w) -> Pauli_string.to_string s, w +. 0.1) terms) in
      let r = Tk_like.compile prog in
      Pauli_frame.verify r.circuit ~trace:r.rotations
      && Unitary_check.circuit_implements r.circuit r.rotations)

let test_tk_ising_overhead () =
  (* The paper's observation: on Ising-1D (all-commuting ZZ chain) the
     diagonalization machinery adds no benefit — TK must not beat plain
     chains, and its set partition is a single set. *)
  let prog =
    program_of_strings 6
      (List.init 5 (fun i ->
           String.init 6 (fun j -> if j = 5 - i || j = 4 - i then 'Z' else 'I'), 1.0))
  in
  let sets = Tk_like.partition prog in
  check_int "single commuting set" 1 (List.length sets);
  let r = Tk_like.compile prog in
  check "correct" true (Pauli_frame.verify r.circuit ~trace:r.rotations)

(* --- Router --- *)

let test_router_respects_coupling () =
  let coupling = Devices.line 5 in
  let c =
    Circuit.of_gates 5
      [ Gate.Cnot (0, 4); Gate.H 2; Gate.Cnot (4, 1); Gate.Cnot (3, 0) ]
  in
  let r = Router.route ~coupling c in
  Array.iter
    (fun g ->
      match g with
      | Gate.Cnot (a, b) | Gate.Swap (a, b) ->
        check "adjacent" true (Coupling.adjacent coupling a b)
      | _ -> ())
    (Circuit.gates r.circuit)

let test_router_preserves_semantics () =
  let coupling = Devices.line 4 in
  (* A kernel-shaped circuit so the Pauli-frame verifier applies. *)
  let prog = program_of_strings 4 [ "ZIIZ", 1.0; "XXII", 0.5 ] in
  let lowered = Ph_synthesis.Naive.synthesize prog in
  let r = Router.route ~coupling lowered.circuit in
  check "routed circuit equivalent" true
    (Pauli_frame.verify r.circuit ~trace:lowered.rotations
       ~layouts:(r.initial_layout, r.final_layout))

let prop_router_correct =
  let gen =
    QCheck.Gen.(
      let gen_str =
        map
          (fun ops ->
            let s = Pauli_string.of_ops (Array.of_list ops) in
            if Pauli_string.is_identity s then str "IIIZ" else s)
          (list_repeat 4 (oneofl Pauli.all))
      in
      list_size (int_range 1 5) (pair gen_str (float_bound_inclusive 1.)))
  in
  QCheck.Test.make ~name:"router preserves kernel semantics" ~count:40 (QCheck.make gen)
    (fun terms ->
      let prog =
        program_of_strings 4
          (List.map (fun (s, w) -> Pauli_string.to_string s, w +. 0.1) terms)
      in
      let lowered = Ph_synthesis.Naive.synthesize prog in
      let r = Router.route ~coupling:(Devices.grid 2 2) lowered.circuit in
      Pauli_frame.verify r.circuit ~trace:lowered.rotations
        ~layouts:(r.initial_layout, r.final_layout)
      && Array.for_all
           (fun g ->
             match g with
             | Gate.Cnot (a, b) | Gate.Swap (a, b) ->
               Coupling.adjacent (Devices.grid 2 2) a b
             | _ -> true)
           (Circuit.gates r.circuit))

(* --- QAOA compiler --- *)

let maxcut_prog =
  Trotter.qaoa_layer ~n_qubits:4
    ~terms:[ term "IIZZ" 1.0; term "ZZII" 0.8; term "ZIIZ" 0.6; term "IZZI" 0.4 ]
    ~gamma:0.7

let test_qaoa_compiler_correct () =
  let coupling = Devices.line 4 in
  let r = Qaoa_compiler.compile ~coupling maxcut_prog in
  check_int "all terms lowered" 4 (List.length r.rotations);
  check "verified" true
    (Pauli_frame.verify r.circuit ~trace:r.rotations
       ~layouts:(r.initial_layout, r.final_layout));
  Array.iter
    (fun g ->
      match g with
      | Gate.Cnot (a, b) | Gate.Swap (a, b) ->
        check "adjacent" true (Coupling.adjacent coupling a b)
      | _ -> ())
    (Circuit.gates r.circuit)

let test_qaoa_compiler_rejects_non_ising () =
  check "raises on XX" true
    (match
       Qaoa_compiler.compile ~coupling:(Devices.line 4)
         (program_of_strings 4 [ "IIXX", 1.0 ])
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_qaoa_compiler_singles () =
  let prog = program_of_strings 3 [ "IIZ", 1.0; "ZZI", 0.5 ] in
  let r = Qaoa_compiler.compile ~coupling:(Devices.line 3) prog in
  check_int "both lowered" 2 (List.length r.rotations);
  check "verified" true
    (Pauli_frame.verify r.circuit ~trace:r.rotations
       ~layouts:(r.initial_layout, r.final_layout))

let () =
  Alcotest.run "baselines"
    [
      ( "symplectic",
        [
          Alcotest.test_case "conjugation matches dense (all rules)" `Quick
            test_conjugate_matches_dense;
          Alcotest.test_case "diagonalize XX/YY" `Quick test_diagonalize_basic;
          Alcotest.test_case "rejects non-commuting" `Quick
            test_diagonalize_rejects_noncommuting;
          Alcotest.test_case "single-qubit groups" `Quick
            test_diagonalize_single_qubit;
          Alcotest.test_case "all-diagonal input keeps identity Clifford"
            `Quick test_diagonalize_all_diagonal_identity;
          Alcotest.test_case "widths 63/64 straddle the packing word" `Quick
            test_diagonalize_word_boundary;
          qcheck prop_conjugate_preserves_weighted_commutation;
          qcheck prop_diagonalize_z_sets;
          qcheck prop_diagonalize_conjugated_sets;
          Alcotest.test_case "matches reference, widths 1-130" `Quick
            test_diagonalize_matches_ref_widths;
          Alcotest.test_case "matches reference, table-2 classes" `Quick
            test_diagonalize_matches_ref_table2;
        ] );
      ( "tk_like",
        [
          Alcotest.test_case "partition" `Quick test_tk_partition_commuting;
          Alcotest.test_case "compile correct" `Quick test_tk_compile_correct;
          Alcotest.test_case "ising single set" `Quick test_tk_ising_overhead;
          qcheck prop_tk_correct;
        ] );
      ( "router",
        [
          Alcotest.test_case "respects coupling" `Quick test_router_respects_coupling;
          Alcotest.test_case "preserves semantics" `Quick test_router_preserves_semantics;
          qcheck prop_router_correct;
        ] );
      ( "qaoa_compiler",
        [
          Alcotest.test_case "correct on maxcut" `Quick test_qaoa_compiler_correct;
          Alcotest.test_case "rejects non-ising" `Quick test_qaoa_compiler_rejects_non_ising;
          Alcotest.test_case "single-qubit terms" `Quick test_qaoa_compiler_singles;
        ] );
    ]
