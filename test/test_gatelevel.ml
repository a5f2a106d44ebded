open Ph_gatelevel
open Ph_linalg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck = QCheck_alcotest.to_alcotest

(* --- Gate --- *)

let test_dagger () =
  check "H self-inverse" true (Gate.equal (Gate.dagger (Gate.H 0)) (Gate.H 0));
  check "S dagger" true (Gate.equal (Gate.dagger (Gate.S 1)) (Gate.Sdg 1));
  check "Rz dagger" true (Gate.equal (Gate.dagger (Gate.Rz (0.5, 2))) (Gate.Rz (-0.5, 2)))

let test_cancels () =
  check "cnot cancels itself" true (Gate.cancels (Gate.Cnot (0, 1)) (Gate.Cnot (0, 1)));
  check "cnot reversed doesn't" false (Gate.cancels (Gate.Cnot (0, 1)) (Gate.Cnot (1, 0)));
  check "swap either order" true (Gate.cancels (Gate.Swap (0, 1)) (Gate.Swap (1, 0)));
  check "rz opposite angles" true (Gate.cancels (Gate.Rz (0.3, 0)) (Gate.Rz (-0.3, 0)))

let test_commutes () =
  check "disjoint commute" true (Gate.commutes (Gate.H 0) (Gate.X 3));
  check "rz with cnot control" true (Gate.commutes (Gate.Rz (0.1, 0)) (Gate.Cnot (0, 1)));
  check "rz with cnot target" false (Gate.commutes (Gate.Rz (0.1, 1)) (Gate.Cnot (0, 1)));
  check "rx with cnot target" true (Gate.commutes (Gate.Rx (0.1, 1)) (Gate.Cnot (0, 1)));
  check "cnots sharing control" true (Gate.commutes (Gate.Cnot (0, 1)) (Gate.Cnot (0, 2)));
  check "cnots sharing target" true (Gate.commutes (Gate.Cnot (0, 2)) (Gate.Cnot (1, 2)));
  check "cnots chained don't" false (Gate.commutes (Gate.Cnot (0, 1)) (Gate.Cnot (1, 2)))

(* Dense checks: commuting/cancelling claims must hold as matrices. *)
let gate_unitary n g = Circuit.unitary (Circuit.of_gates n [ g ])

let all_gates_on_2q =
  [
    Gate.H 0; Gate.X 0; Gate.Y 1; Gate.Z 0; Gate.S 1; Gate.Sdg 0;
    Gate.Rz (0.7, 0); Gate.Rx (0.7, 1); Gate.Ry (0.7, 0);
    Gate.Cnot (0, 1); Gate.Cnot (1, 0); Gate.Swap (0, 1);
  ]

let test_commutes_sound () =
  List.iter
    (fun g ->
      List.iter
        (fun h ->
          if Gate.commutes g h then begin
            let ug = gate_unitary 2 g and uh = gate_unitary 2 h in
            check
              (Printf.sprintf "%s commutes with %s" (Gate.to_string g) (Gate.to_string h))
              true
              (Matrix.equal (Matrix.mul ug uh) (Matrix.mul uh ug))
          end)
        all_gates_on_2q)
    all_gates_on_2q

let test_cancels_sound () =
  List.iter
    (fun g ->
      List.iter
        (fun h ->
          if Gate.cancels g h then
            check
              (Printf.sprintf "%s cancels %s" (Gate.to_string g) (Gate.to_string h))
              true
              (Matrix.equal_up_to_phase
                 (Matrix.mul (gate_unitary 2 h) (gate_unitary 2 g))
                 (Matrix.identity 4)))
        all_gates_on_2q)
    all_gates_on_2q

let test_dagger_sound () =
  List.iter
    (fun g ->
      let u = gate_unitary 2 g in
      let ud = gate_unitary 2 (Gate.dagger g) in
      check
        (Printf.sprintf "dagger of %s" (Gate.to_string g))
        true
        (Matrix.equal_up_to_phase (Matrix.mul ud u) (Matrix.identity 4)))
    all_gates_on_2q

(* --- Circuit --- *)

let sample_circuit =
  Circuit.of_gates 3
    [ Gate.H 0; Gate.Cnot (0, 1); Gate.Swap (1, 2); Gate.Rz (0.5, 2); Gate.X 0 ]

let test_counts () =
  check_int "cnot count (swap=3)" 4 (Circuit.cnot_count sample_circuit);
  check_int "single count" 3 (Circuit.single_qubit_count sample_circuit);
  check_int "total" 7 (Circuit.total_count sample_circuit)

let test_depth () =
  (* H(0) level1; CNOT(0,1) level2; SWAP(1,2) levels 3-5; Rz(2) level6;
     X(0) level3 -> depth 6 *)
  check_int "depth" 6 (Circuit.depth sample_circuit);
  check_int "parallel gates share depth" 1
    (Circuit.depth (Circuit.of_gates 3 [ Gate.H 0; Gate.H 1; Gate.H 2 ]))

let test_swap_count () =
  (* only [Swap] counts — not the CNOTs or Rxx a SWAP resembles *)
  let c =
    Circuit.of_gates 3
      [ Gate.Swap (0, 1); Gate.Cnot (1, 2); Gate.Rxx (0.3, 0, 2); Gate.H 0; Gate.Swap (1, 2) ]
  in
  check_int "two swaps" 2 (Circuit.swap_count c);
  check_int "none after decomposition" 0 (Circuit.swap_count (Circuit.decompose_swaps c));
  check_int "empty circuit" 0 (Circuit.swap_count (Circuit.empty 2))

let test_decompose_swaps () =
  let c = Circuit.decompose_swaps sample_circuit in
  check "no swaps left" true
    (Array.for_all (function Gate.Swap _ -> false | _ -> true) (Circuit.gates c));
  check_int "same cnot count" (Circuit.cnot_count sample_circuit) (Circuit.cnot_count c);
  check "same unitary" true
    (Matrix.equal (Circuit.unitary c) (Circuit.unitary sample_circuit))

let test_dagger_circuit () =
  let u = Circuit.unitary sample_circuit in
  let ud = Circuit.unitary (Circuit.dagger sample_circuit) in
  check "dagger inverts" true
    (Matrix.equal_up_to_phase (Matrix.mul ud u) (Matrix.identity 8))

let test_remap () =
  let c = Circuit.remap (fun q -> 2 - q) sample_circuit in
  check "remapped gate" true (Gate.equal (Circuit.gates c).(0) (Gate.H 2))

let test_builder () =
  let b = Circuit.Builder.create 2 in
  for _ = 1 to 100 do
    Circuit.Builder.add b (Gate.H 0)
  done;
  check_int "builder length" 100 (Circuit.length (Circuit.Builder.to_circuit b))

let test_layers () =
  let ls = Circuit.layers (Circuit.of_gates 3 [ Gate.H 0; Gate.H 1; Gate.Cnot (0, 1) ]) in
  check_int "two layers" 2 (List.length ls);
  check_int "first layer has 2 gates" 2 (List.length (List.hd ls))

let test_compact () =
  let wide = Circuit.of_gates 6 [ Gate.H 1; Gate.Cnot (1, 4); Gate.Rz (0.2, 4) ] in
  let compacted, f = Circuit.compact wide in
  check_int "two wires" 2 (Circuit.n_qubits compacted);
  check_int "q1 -> 0" 0 (f 1);
  check_int "q4 -> 1" 1 (f 4);
  check "same gates up to relabel" true
    (List.for_all2 Gate.equal (Circuit.to_list compacted)
       [ Gate.H 0; Gate.Cnot (0, 1); Gate.Rz (0.2, 1) ]);
  check "unused qubit rejected" true
    (match f 0 with exception Invalid_argument _ -> true | _ -> false)

(* --- Peephole --- *)

let test_peephole_pairs () =
  let c =
    Circuit.of_gates 2
      [ Gate.H 0; Gate.H 0; Gate.Cnot (0, 1); Gate.Cnot (0, 1); Gate.S 1; Gate.Sdg 1 ]
  in
  check_int "all cancelled" 0 (Circuit.length (Peephole.optimize c))

let test_peephole_commuting () =
  (* Rz on the control commutes through the CNOT: the two H's cancel. *)
  let c = Circuit.of_gates 2 [ Gate.Rz (0.1, 0); Gate.Cnot (0, 1); Gate.Rz (-0.1, 0) ] in
  check_int "rz through cnot" 1 (Circuit.length (Peephole.optimize c));
  let blocked = Circuit.of_gates 2 [ Gate.Rz (0.1, 1); Gate.Cnot (0, 1); Gate.Rz (-0.1, 1) ] in
  check_int "rz blocked by target" 3 (Circuit.length (Peephole.optimize blocked))

let test_peephole_merge () =
  let c = Circuit.of_gates 1 [ Gate.Rz (0.1, 0); Gate.Rz (0.2, 0) ] in
  let o = Peephole.optimize c in
  check_int "merged" 1 (Circuit.length o);
  (match (Circuit.gates o).(0) with
  | Gate.Rz (t, 0) -> Alcotest.(check (float 1e-12)) "angle sum" 0.3 t
  | g -> Alcotest.failf "unexpected gate %s" (Gate.to_string g));
  let z = Circuit.of_gates 1 [ Gate.Rx (0.1, 0); Gate.Rx (-0.1, 0) ] in
  check_int "zero rotation removed" 0 (Circuit.length (Peephole.optimize z))

let test_peephole_stats_consistent () =
  let c =
    Circuit.of_gates 2
      [
        Gate.H 0; Gate.H 0;               (* cancel: -2 *)
        Gate.Rz (0.1, 0); Gate.Rz (0.2, 0); (* merge: -1 *)
        Gate.Rx (1e-14, 1);               (* zero rotation: -1 *)
        Gate.Cnot (0, 1);
      ]
  in
  let o, stats = Peephole.optimize_stats c in
  Alcotest.(check int) "removed = gate-count delta"
    (Circuit.length c - Circuit.length o)
    stats.Peephole.removed;
  check "at least one round" true (stats.Peephole.rounds >= 1);
  (* the counter must agree with the delta on any input *)
  let c2 = Circuit.of_gates 2 [ Gate.S 0; Gate.Sdg 0; Gate.X 1; Gate.X 1; Gate.H 0 ] in
  let o2, stats2 = Peephole.optimize_stats c2 in
  Alcotest.(check int) "removed = delta (second circuit)"
    (Circuit.length c2 - Circuit.length o2)
    stats2.Peephole.removed

let test_peephole_cancel_heavy_linear () =
  (* Regression for the O(m²) backward scan: a long run of self-cancelling
     gates leaves every slot empty, and the old scan re-walked all those
     empty slots (uncounted against the window) for each incoming gate.
     With live slots linked, this optimizes in one cancel_once pass in
     linear time — at this size the quadratic scan took ~10^10 slot
     visits and effectively hung. *)
  let m = 200_000 in
  let c = Circuit.of_gates 1 (List.init m (fun _ -> Gate.X 0)) in
  let o, removed = Peephole.cancel_once c in
  Alcotest.(check int) "everything cancels in one pass" 0 (Circuit.length o);
  Alcotest.(check int) "removed counts both partners" m removed

let test_peephole_window_semantics () =
  (* Only live (occupied) slots count against the window: with window 2,
     a partner two live gates back is still found even across a pile of
     cancelled slots, but three commuting live gates block the search. *)
  let reachable =
    Circuit.of_gates 3
      ([ Gate.H 0 ] @ List.concat (List.init 50 (fun _ -> [ Gate.X 1; Gate.X 1 ]))
      @ [ Gate.Rz (0.3, 2); Gate.H 0 ])
  in
  Alcotest.(check int) "partner found across emptied slots" 1
    (Circuit.length (fst (Peephole.cancel_once ~window:2 reachable)));
  let blocked =
    Circuit.of_gates 4
      [ Gate.H 0; Gate.Rz (0.1, 1); Gate.Rz (0.1, 2); Gate.Rz (0.1, 3); Gate.H 0 ]
  in
  Alcotest.(check int) "window still bounds live steps" 5
    (Circuit.length (fst (Peephole.cancel_once ~window:2 blocked)))

(* Every gate over qubits {0, 1, 2} — degenerate two-qubit operands
   included — with angles {0.1, -0.1, 0.2, 0, -0}. *)
let all_small_gates =
  let qs = [ 0; 1; 2 ] and angles = [ 0.1; -0.1; 0.2; 0.; -0. ] in
  let pairs = List.concat_map (fun a -> List.map (fun b -> a, b) qs) qs in
  List.concat
    [
      List.concat_map
        (fun q -> [ Gate.H q; Gate.X q; Gate.Y q; Gate.Z q; Gate.S q; Gate.Sdg q ])
        qs;
      List.concat_map
        (fun t -> List.concat_map (fun q -> [ Gate.Rz (t, q); Gate.Rx (t, q); Gate.Ry (t, q) ]) qs)
        angles;
      List.concat_map (fun (a, b) -> [ Gate.Cnot (a, b); Gate.Swap (a, b) ]) pairs;
      List.concat_map (fun t -> List.map (fun (a, b) -> Gate.Rxx (t, a, b)) pairs) angles;
    ]

let test_predicates_match_reference () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let differs what got want =
            if got <> want then
              Alcotest.failf "%s %s %s: %b, reference %b" what (Gate.to_string a)
                (Gate.to_string b) got want
          in
          differs "commutes" (Gate.commutes a b) (Peephole_ref.Gate.commutes a b);
          differs "cancels" (Gate.cancels a b) (Peephole_ref.Gate.cancels a b))
        all_small_gates)
    all_small_gates

(* Random circuits on 1-6 qubits over every gate kind; angles drawn from
   a small set so that opposite, zero and summing-to-zero rotations are
   common. *)
let random_circuit st =
  let n = 1 + Random.State.int st 6 in
  let angles = [| 0.1; -0.1; 0.2; -0.2; 0.3; -0.3; 0.; -0.; 1e-13 |] in
  let angle () = angles.(Random.State.int st (Array.length angles)) in
  let q () = Random.State.int st n in
  let pair () =
    let a = q () in
    (* mostly distinct operands; the occasional degenerate pair too *)
    let b = if n > 1 && Random.State.int st 50 > 0 then (a + 1 + Random.State.int st (n - 1)) mod n else a in
    a, b
  in
  let gate () =
    match Random.State.int st (if n > 1 then 12 else 9) with
    | 0 -> Gate.H (q ())
    | 1 -> Gate.X (q ())
    | 2 -> Gate.Y (q ())
    | 3 -> Gate.Z (q ())
    | 4 -> Gate.S (q ())
    | 5 -> Gate.Sdg (q ())
    | 6 -> Gate.Rz (angle (), q ())
    | 7 -> Gate.Rx (angle (), q ())
    | 8 -> Gate.Ry (angle (), q ())
    | 9 -> let a, b = pair () in Gate.Cnot (a, b)
    | 10 -> let a, b = pair () in Gate.Swap (a, b)
    | _ -> let a, b = pair () in Gate.Rxx (angle (), a, b)
  in
  Circuit.of_gates n (List.init (Random.State.int st 48) (fun _ -> gate ()))

let same_gates = Emit_ref.same_circuit

let gates_built () =
  List.assoc "circuit_gates_built" (Ph_perf.Counter.totals_assoc ())

(* The builder-based SWAP decomposition [decompose_swaps] replaced. *)
let decompose_swaps_ref c =
  let b = Circuit.Builder.create (Circuit.n_qubits c) in
  Array.iter
    (fun g ->
      match g with
      | Gate.Swap (x, y) ->
        Circuit.Builder.add_list b [ Gate.Cnot (x, y); Gate.Cnot (y, x); Gate.Cnot (x, y) ]
      | g -> Circuit.Builder.add b g)
    (Circuit.gates c);
  Circuit.Builder.to_circuit b

(* Gates and [circuit_gates_built] delta of the exact-size decomposition
   equal the builder-based form's, on random circuits with and without
   SWAPs (and empty ones). *)
let test_decompose_swaps_matches_builder () =
  let st = Random.State.make [| 26 |] in
  for _ = 1 to 2_000 do
    let c = random_circuit st in
    let b0 = gates_built () in
    let d = Circuit.decompose_swaps c in
    let b1 = gates_built () in
    let d' = decompose_swaps_ref c in
    let b2 = gates_built () in
    check "same gates" true (same_gates d d');
    check_int "same qubit count" (Circuit.n_qubits d') (Circuit.n_qubits d);
    check_int "same gates built" (b2 - b1) (b1 - b0)
  done

(* [gates] gives back what [of_gates] and [Builder.add] took, over
   all 12 kinds, angles compared to the bit (so [-0.] stays [-0.]),
   qubits up to [Circuit.max_qubit]. *)
let prop_gates_roundtrip =
  let angle_bits = function
    | Gate.Rz (t, _) | Gate.Rx (t, _) | Gate.Ry (t, _) | Gate.Rxx (t, _, _) ->
      Int64.bits_of_float t
    | _ -> 0L
  in
  let gen_gate =
    QCheck.Gen.(
      let q = oneof [ int_bound 9; return Circuit.max_qubit; int_bound Circuit.max_qubit ] in
      let t = oneofl [ 0.; -0.; 0.5; -1.25; 1e-300; Float.pi; -.Float.pi /. 2.; 3e12 ] in
      oneof
        [
          map (fun q -> Gate.H q) q; map (fun q -> Gate.X q) q; map (fun q -> Gate.Y q) q;
          map (fun q -> Gate.Z q) q; map (fun q -> Gate.S q) q; map (fun q -> Gate.Sdg q) q;
          map2 (fun t q -> Gate.Rz (t, q)) t q; map2 (fun t q -> Gate.Rx (t, q)) t q;
          map2 (fun t q -> Gate.Ry (t, q)) t q; map2 (fun a b -> Gate.Cnot (a, b)) q q;
          map2 (fun a b -> Gate.Swap (a, b)) q q;
          map3 (fun t a b -> Gate.Rxx (t, a, b)) t q q;
        ])
  in
  QCheck.Test.make ~name:"of_gates and gates round-trip" ~count:500
    (QCheck.make
       ~print:(fun gs -> String.concat "; " (List.map Gate.to_string gs))
       QCheck.Gen.(list_size (int_bound 40) gen_gate))
    (fun gs ->
      let same c =
        let back = Circuit.to_list c in
        List.length back = List.length gs
        && List.for_all2 (fun a b -> Gate.equal a b && angle_bits a = angle_bits b) gs back
      in
      let b = Circuit.Builder.create ~capacity:3 5 in
      Circuit.Builder.add_list b gs;
      let built = Circuit.Builder.to_circuit b in
      same (Circuit.of_gates 5 gs) && same built
      && Emit_ref.same_circuit built (Circuit.of_gates 5 gs)
      && Circuit.length built = List.length gs)

(* A builder filled past several chunks by single adds and by appends
   that straddle chunk ends, from each starting capacity, equals
   [of_gates] of the same gates; a circuit taken from a full builder
   stays as it was while the builder goes on. *)
let test_builder_chunks () =
  let st = Random.State.make [| 31 |] in
  List.iter
    (fun capacity ->
      let b = Circuit.Builder.create ~capacity 3 in
      let all = ref [] in
      let add g =
        Circuit.Builder.add b g;
        all := g :: !all
      in
      while Circuit.Builder.length b < 20_000 do
        if Random.State.int st 50 = 0 then begin
          let c = random_circuit st in
          let gs = Circuit.to_list c in
          Circuit.Builder.append b (Circuit.of_gates 3 gs);
          all := List.rev_append gs !all
        end
        else
          add
            (match Random.State.int st 3 with
            | 0 -> Gate.H (Random.State.int st 3)
            | 1 -> Gate.Rz (Random.State.float st 1., Random.State.int st 3)
            | _ -> Gate.Cnot (0, 2))
      done;
      let want = Circuit.of_gates 3 (List.rev !all) in
      let got = Circuit.Builder.to_circuit b in
      check (Printf.sprintf "capacity %d" capacity) true (same_gates got want);
      check_int "length" (Circuit.length want) (Circuit.Builder.length b))
    [ 0; 1; 64; 4095; 4096; 5000 ];
  let b = Circuit.Builder.create ~capacity:2 1 in
  Circuit.Builder.add b (Gate.X 0);
  Circuit.Builder.add b (Gate.Y 0);
  let first = Circuit.Builder.to_circuit b in
  Circuit.Builder.add b (Gate.Z 0);
  check "handed-over buffers untouched" true
    (same_gates first (Circuit.of_gates 1 [ Gate.X 0; Gate.Y 0 ]));
  check "builder goes on" true
    (same_gates (Circuit.Builder.to_circuit b) (Circuit.of_gates 1 [ Gate.X 0; Gate.Y 0; Gate.Z 0 ]))

(* Qubits must fit the code's 26-bit fields. *)
let test_qubit_range () =
  let big = 1 lsl 26 in
  let rejects name g =
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf "Circuit.code: qubit %d out of range"
            (List.find (fun q -> q < 0 || q > Circuit.max_qubit) (Gate.qubits g))))
      (fun () -> Circuit.Builder.add (Circuit.Builder.create 2) g)
  in
  rejects "single-qubit gate at 2^26" (Gate.H big);
  rejects "rotation at 2^26" (Gate.Rz (0.1, big));
  rejects "CNOT target at 2^26" (Gate.Cnot (0, big));
  rejects "SWAP first at 2^26" (Gate.Swap (big, 1));
  rejects "negative Rxx qubit" (Gate.Rxx (0.1, 0, -1));
  Alcotest.check_raises "of_gates" (Invalid_argument "Circuit.code: qubit 67108864 out of range")
    (fun () -> ignore (Circuit.of_gates 2 [ Gate.X 0; Gate.Y big ]));
  let top = Gate.Cnot (Circuit.max_qubit, 0) in
  check "2^26 - 1 fits" true
    (Gate.equal top (Circuit.gates (Circuit.of_gates 2 [ top ])).(0))

(* The builder charges its length once, when it becomes a circuit. *)
let test_builder_counts_at_to_circuit () =
  let b = Circuit.Builder.create 2 in
  let b0 = gates_built () in
  for _ = 1 to 70 do
    Circuit.Builder.add b (Gate.H 0)
  done;
  check_int "add charges nothing" b0 (gates_built ());
  ignore (Circuit.Builder.to_circuit b);
  check_int "to_circuit charges the length" (b0 + 70) (gates_built ())

(* [optimize_stats] against the reference fixpoint: gates, [removed],
   [rounds] and the [circuit_gates_built] delta. *)
let check_fixpoint ?window ?max_rounds what c =
  let b0 = gates_built () in
  let f, stats = Peephole.optimize_stats ?window ?max_rounds c in
  let b1 = gates_built () in
  let f', removed', rounds' = Peephole_ref.optimize_stats ?window ?max_rounds c in
  let b2 = gates_built () in
  if
    not
      (same_gates f f' && stats.Peephole.removed = removed'
      && stats.Peephole.rounds = rounds'
      && b1 - b0 = b2 - b1)
  then
    Alcotest.failf
      "%s: removed %d/%d, rounds %d/%d, gates built %d/%d, gates %s"
      what stats.Peephole.removed removed' stats.Peephole.rounds rounds' (b1 - b0)
      (b2 - b1)
      (if same_gates f f' then "equal" else "differ");
  stats.Peephole.rounds

let test_peephole_matches_reference () =
  let st = Random.State.make [| 12 |] in
  let windows = [| 1; 2; 3; 5; 8; 400 |] in
  for k = 1 to 12_000 do
    let c = random_circuit st in
    let window = windows.(k mod Array.length windows) in
    let o, removed = Peephole.cancel_once ~window c in
    let o', removed' = Peephole_ref.cancel_once ~window c in
    if not (same_gates o o' && removed = removed') then
      Alcotest.failf "window %d, circuit [%s]: removed %d vs reference %d" window
        (String.concat "; " (List.map Gate.to_string (Circuit.to_list c)))
        removed removed';
    ignore
      (check_fixpoint ~window ~max_rounds:max_int
         (Printf.sprintf "fixpoint, window %d, circuit [%s]" window
            (String.concat "; " (List.map Gate.to_string (Circuit.to_list c))))
         c)
  done

(* Fixpoint sweep that reaches the incremental rounds: a random circuit
   followed by its inverse, the inverse shuffled by swaps of adjacent
   commuting gates, so that with a window of 1-12 the partners come into
   reach only as the gates between them cancel, round after round. *)
let random_deep_circuit st =
  let n = 1 + Random.State.int st 8 in
  let angles = [| 0.1; -0.1; 0.2; -0.3 |] in
  let angle () = angles.(Random.State.int st (Array.length angles)) in
  let q () = Random.State.int st n in
  let pair () =
    let a = q () in
    a, if n > 1 then (a + 1 + Random.State.int st (n - 1)) mod n else a
  in
  let gate () =
    match Random.State.int st (if n > 1 then 11 else 7) with
    | 0 -> Gate.H (q ())
    | 1 -> Gate.X (q ())
    | 2 -> Gate.Z (q ())
    | 3 -> Gate.S (q ())
    | 4 -> Gate.Sdg (q ())
    | 5 -> Gate.Rz (angle (), q ())
    | 6 -> Gate.Rx (angle (), q ())
    | 7 | 8 -> let a, b = pair () in Gate.Cnot (a, b)
    | 9 -> let a, b = pair () in Gate.Swap (a, b)
    | _ -> let a, b = pair () in Gate.Rxx (angle (), a, b)
  in
  let half = Array.init (10 + Random.State.int st 60) (fun _ -> gate ()) in
  let inverse = Array.of_list (List.rev_map Gate.dagger (Array.to_list half)) in
  let len = Array.length inverse in
  for _ = 1 to 8 * len do
    let k = Random.State.int st (len - 1) in
    if Gate.commutes inverse.(k) inverse.(k + 1) then begin
      let g = inverse.(k) in
      inverse.(k) <- inverse.(k + 1);
      inverse.(k + 1) <- g
    end
  done;
  (* an occasional gate with no partner *)
  let noise = List.init (Random.State.int st 4) (fun _ -> gate ()) in
  Circuit.of_gates n (Array.to_list half @ noise @ Array.to_list inverse)

let test_peephole_fixpoint_deep () =
  let st = Random.State.make [| 18 |] in
  let deep = ref 0 in
  for k = 1 to 6_000 do
    let c = random_deep_circuit st in
    let window = 1 + (k mod 12) in
    let rounds =
      check_fixpoint ~window ~max_rounds:max_int
        (Printf.sprintf "case %d, window %d, circuit [%s]" k window
           (String.concat "; " (List.map Gate.to_string (Circuit.to_list c))))
        c
    in
    if rounds >= 3 then incr deep
  done;
  check
    (Printf.sprintf "%d cases take 3 or more rounds, at least 500" !deep)
    true (!deep >= 500)

(* Every ordered pair of small gates, and every [g; h; g'] triple over
   the small gates with angles ±0.1, through one pass: pins the packed
   [relate] table to [Gate.cancels], merge and [Gate.commutes], walked
   directly and across a middle gate. *)
let test_peephole_pairs_and_triples () =
  let check_pass gs =
    let c = Circuit.of_gates 3 gs in
    let o, removed = Peephole.cancel_once c in
    let o', removed' = Peephole_ref.cancel_once c in
    if not (same_gates o o' && removed = removed') then
      Alcotest.failf "[%s]: removed %d vs reference %d"
        (String.concat "; " (List.map Gate.to_string gs))
        removed removed'
  in
  List.iter (fun g -> List.iter (fun h -> check_pass [ g; h ]) all_small_gates) all_small_gates;
  let small =
    List.filter
      (function
        | Gate.Rz (t, _) | Gate.Rx (t, _) | Gate.Ry (t, _) | Gate.Rxx (t, _, _) ->
          abs_float t = 0.1
        | _ -> true)
      all_small_gates
  in
  List.iter
    (fun g ->
      List.iter (fun h -> List.iter (fun g' -> check_pass [ g; h; g' ]) small) small)
    small

(* Compiled circuits of the ft-wide and sc-route shapes, peephole off,
   then the fixpoint against the reference: the round structure of real
   CNOT-tree cancellation, which random circuits rarely reach. *)
let test_peephole_matches_reference_compiled () =
  let open Paulihedral in
  let open Ph_benchmarks in
  let compile config prog =
    (Compiler.compile { config with Config.peephole = false } prog).Compiler.circuit
  in
  let ft schedule = Config.ft ~schedule () in
  let uccsd =
    Uccsd.ansatz ~seed:1 ~max_singles:150 ~max_doubles:150 ~n_qubits:64 ()
  in
  let rand =
    Random_h.program ~seed:2 ~density:(80. /. (128. *. 128.)) ~n_qubits:128 ()
  in
  List.iter
    (fun (what, c) -> ignore (check_fixpoint what c))
    [
      "uccsd-64/do", compile (ft Config.Depth_oriented) uccsd;
      "uccsd-64/phoenix", compile (ft Config.Phoenix_like) uccsd;
      "rand-128/do", compile (ft Config.Depth_oriented) rand;
      "rand-128/phoenix", compile (ft Config.Phoenix_like) rand;
      ( "uccsd-12/sc",
        compile
          (Config.sc Ph_hardware.Devices.manhattan)
          (Uccsd.ansatz ~seed:3 ~max_doubles:100 ~n_qubits:12 ()) );
    ]

(* Coarse allocation guard: the fixpoint over a compiled 64-qubit FT
   circuit (~86k gates, two rounds) allocates O(1) minor words per
   gate — here fewer than one per gate: the scratch and the output
   buffers are single large blocks, and only merged angles cross a
   call boxed. *)
let test_peephole_allocation () =
  let open Paulihedral in
  let prog =
    Ph_benchmarks.Uccsd.ansatz ~seed:1 ~max_singles:150 ~max_doubles:150 ~n_qubits:64 ()
  in
  let c =
    (Compiler.compile { (Config.ft ~schedule:Config.Depth_oriented ()) with Config.peephole = false } prog)
      .Compiler.circuit
  in
  ignore (Peephole.optimize_stats c);
  let w0 = Gc.minor_words () in
  let _, stats = Peephole.optimize_stats c in
  let words = Gc.minor_words () -. w0 in
  check
    (Printf.sprintf "%.0f minor words < %d gates (%d rounds)" words (Circuit.length c)
       stats.Peephole.rounds)
    true
    (stats.Peephole.rounds >= 2 && words < float_of_int (Circuit.length c))

(* Later rounds walk only gates whose last walk ran out of window or
   whose blocker has gone.  Window 2: the X pairs cancel in round 1,
   which brings the outer H pair into reach for round 2; S5 (stopped at
   the end of its chain) and the rest are never walked again. *)
let test_peephole_later_rounds_skip_settled_gates () =
  let c =
    Circuit.of_gates 6
      Gate.[ Z 5; S 5; H 0; X 1; X 2; X 3; H 0; X 3; X 2; X 1 ]
  in
  let probes () = List.assoc "peephole_probes" (Ph_perf.Counter.totals_assoc ()) in
  let p0 = probes () in
  ignore (Peephole.cancel_once ~window:2 c);
  let p1 = probes () in
  let _, stats = Peephole.optimize_stats ~window:2 c in
  let p2 = probes () in
  check_int "three rounds" 3 stats.Peephole.rounds;
  check_int "round 1: S5 past Z5, three X pairs" 4 (p1 - p0);
  check_int "fixpoint: round 1's probes, then only the H pair" 5 (p2 - p1);
  ignore (check_fixpoint ~window:2 "nested pairs" c)

let test_peephole_edge_cases () =
  let st = Random.State.make [| 7 |] in
  let circuits =
    Circuit.empty 3
    (* qubits at or above [n_qubits] *)
    :: Circuit.of_gates 1 [ Gate.H 4; Gate.Cnot (2, 5); Gate.Rz (0.1, 2); Gate.Cnot (2, 5); Gate.H 4 ]
    (* merges that leave a zero rotation, or just miss one *)
    :: Circuit.of_gates 2
         [
           Gate.Rz (0.1, 0); Gate.Rz (-0.1 +. 5e-13, 0); Gate.Rxx (0.3, 0, 1);
           Gate.Rxx (-0.3 +. 2e-12, 1, 0); Gate.Rx (0.2, 1); Gate.Rx (-0.2, 1);
         ]
    :: List.init 200 (fun _ -> random_deep_circuit st)
  in
  List.iteri
    (fun k c ->
      List.iter
        (fun max_rounds ->
          List.iter
            (fun window ->
              ignore
                (check_fixpoint ~window ~max_rounds
                   (Printf.sprintf "circuit %d, window %d, max_rounds %d" k window max_rounds)
                   c))
            [ 0; 1; 3; max_int ])
        [ 0; 1; 2; max_int ])
    circuits;
  (* no scratch of window size: an unbounded window costs what the
     circuit does *)
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1); Gate.H 0 ] in
  let before = Gc.allocated_bytes () in
  ignore (Peephole.optimize ~window:max_int c);
  ignore (Peephole.cancel_once ~window:max_int c);
  check "window max_int allocates little" true (Gc.allocated_bytes () -. before < 10_000.)

let test_peephole_disjoint_gates_free () =
  (* Gates on pairwise distinct qubits have no same-qubit candidate, so
     the walk examines nothing — the global walk took ~320k steps here. *)
  let m = 1_000 in
  let c = Circuit.of_gates m (List.init m (fun q -> Gate.H q)) in
  let probes () =
    List.assoc "peephole_probes" (Ph_perf.Counter.totals_assoc ())
  in
  let before = probes () in
  let o, removed = Peephole.cancel_once c in
  check_int "nothing removed" 0 removed;
  check_int "all gates kept" m (Circuit.length o);
  check_int "no probes" 0 (probes () - before)

let prop_peephole_preserves_unitary =
  let gen_gate =
    QCheck.Gen.(
      oneof
        [
          map (fun q -> Gate.H q) (int_bound 2);
          map (fun q -> Gate.S q) (int_bound 2);
          map (fun q -> Gate.X q) (int_bound 2);
          map2 (fun t q -> Gate.Rz (t, q)) (float_bound_inclusive 3.) (int_bound 2);
          map2
            (fun a b -> Gate.Cnot (a, if b = a then (a + 1) mod 3 else b))
            (int_bound 2) (int_bound 2);
          map2
            (fun a b -> Gate.Swap (a, if b = a then (a + 1) mod 3 else b))
            (int_bound 2) (int_bound 2);
        ])
  in
  QCheck.Test.make ~name:"peephole preserves the unitary" ~count:60
    (QCheck.make
       ~print:(fun gs -> String.concat "; " (List.map Gate.to_string gs))
       QCheck.Gen.(list_size (int_bound 30) gen_gate))
    (fun gates ->
      let c = Circuit.of_gates 3 gates in
      let o = Peephole.optimize c in
      Circuit.length o <= Circuit.length c
      && Matrix.equal_up_to_phase (Circuit.unitary o) (Circuit.unitary c))

(* --- QASM export --- *)

let test_qasm_export () =
  let text = Qasm.export sample_circuit in
  check "header" true
    (String.length text > 0
    && String.sub text 0 13 = "OPENQASM 2.0;");
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> check (needle ^ " present") true (contains needle))
    [ "qreg q[3];"; "h q[0];"; "cx q[0],q[1];"; "swap q[1],q[2];"; "x q[0];" ]

let test_qasm_channel_matches_string () =
  let path = Filename.temp_file "ph" ".qasm" in
  let oc = open_out path in
  Qasm.export_to_channel oc sample_circuit;
  close_out oc;
  let ic = open_in path in
  let n = in_channel_length ic in
  let from_file = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "same output" (Qasm.export sample_circuit) from_file

let test_qasm_roundtrip () =
  let parsed = Qasm.parse (Qasm.export sample_circuit) in
  Alcotest.(check int) "qubits" (Circuit.n_qubits sample_circuit) (Circuit.n_qubits parsed);
  check "same gates" true
    (List.for_all2 Gate.equal (Circuit.to_list sample_circuit) (Circuit.to_list parsed))

let test_qasm_parse_tolerant () =
  let src = {|OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[2];
creg c[2];
h q[0];
barrier q[0], q[1];
cx q[0],q[1];
rz(-0.25) q[1];
measure q[0] -> c[0];
|} in
  let c = Qasm.parse src in
  Alcotest.(check int) "3 gates (barrier/measure ignored)" 3 (Circuit.length c);
  check "rz angle" true
    (Gate.equal (Circuit.gates c).(2) (Gate.Rz (-0.25, 1)))

let test_qasm_parse_errors () =
  let fails s = match Qasm.parse s with exception Qasm.Parse_error _ -> true | _ -> false in
  check "unknown gate" true (fails "qreg q[2]; ccx q[0],q[1];");
  check "missing qreg" true (fails "h q[0];");
  check "out of range" true (fails "qreg q[1]; h q[5];");
  check "bad angle" true (fails "qreg q[1]; rz(pi/2) q[0];")

let prop_qasm_roundtrip =
  let gen_gate =
    QCheck.Gen.(
      oneof
        [
          map (fun q -> Gate.H q) (int_bound 3);
          map (fun q -> Gate.Sdg q) (int_bound 3);
          map2 (fun t q -> Gate.Rz (t, q)) (float_bound_inclusive 3.) (int_bound 3);
          map2 (fun t q -> Gate.Ry (t, q)) (float_bound_inclusive 3.) (int_bound 3);
          map2
            (fun a b -> Gate.Cnot (a, if b = a then (a + 1) mod 4 else b))
            (int_bound 3) (int_bound 3);
          map2
            (fun a b -> Gate.Swap (a, if b = a then (a + 1) mod 4 else b))
            (int_bound 3) (int_bound 3);
        ])
  in
  QCheck.Test.make ~name:"qasm export/parse roundtrip" ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_bound 25) gen_gate))
    (fun gates ->
      let c = Circuit.of_gates 4 gates in
      let parsed = Qasm.parse (Qasm.export c) in
      Circuit.length parsed = Circuit.length c
      && List.for_all2 Gate.equal (Circuit.to_list c) (Circuit.to_list parsed))

(* --- Draw --- *)

let test_draw () =
  let text = Draw.render sample_circuit in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check int) "2n-1 rows + trailing" (2 * 3) (List.length lines);
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  List.iter (fun s -> check (s ^ " drawn") true (contains s))
    [ "q0"; "q2"; "H"; "o"; "rz(0.5)"; "x" ]

let test_draw_truncation () =
  let b = Circuit.Builder.create 1 in
  for _ = 1 to 100 do Circuit.Builder.add b (Gate.H 0) done;
  let text = Draw.render ~max_columns:5 (Circuit.Builder.to_circuit b) in
  check "ellipsis" true
    (let n = String.length text in n > 3 &&
     (let rec go i = i + 3 <= n && (String.sub text i 3 = "..." || go (i+1)) in go 0))

let () =
  Alcotest.run "gatelevel"
    [
      ( "gate",
        [
          Alcotest.test_case "dagger" `Quick test_dagger;
          Alcotest.test_case "cancels" `Quick test_cancels;
          Alcotest.test_case "commutes" `Quick test_commutes;
          Alcotest.test_case "commutes is sound (dense)" `Quick test_commutes_sound;
          Alcotest.test_case "cancels is sound (dense)" `Quick test_cancels_sound;
          Alcotest.test_case "predicates match list-based reference" `Quick
            test_predicates_match_reference;
          Alcotest.test_case "dagger is sound (dense)" `Quick test_dagger_sound;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "gate counts" `Quick test_counts;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "swap count" `Quick test_swap_count;
          Alcotest.test_case "swap decomposition" `Quick test_decompose_swaps;
          Alcotest.test_case "swap decomposition matches builder form" `Quick
            test_decompose_swaps_matches_builder;
          Alcotest.test_case "builder counts at to_circuit" `Quick
            test_builder_counts_at_to_circuit;
          Alcotest.test_case "dagger" `Quick test_dagger_circuit;
          Alcotest.test_case "remap" `Quick test_remap;
          Alcotest.test_case "builder growth" `Quick test_builder;
          qcheck prop_gates_roundtrip;
          Alcotest.test_case "builder chunks" `Quick test_builder_chunks;
          Alcotest.test_case "qubit range" `Quick test_qubit_range;
          Alcotest.test_case "layers" `Quick test_layers;
          Alcotest.test_case "qasm export" `Quick test_qasm_export;
          Alcotest.test_case "qasm channel" `Quick test_qasm_channel_matches_string;
          Alcotest.test_case "qasm roundtrip" `Quick test_qasm_roundtrip;
          Alcotest.test_case "qasm tolerant parse" `Quick test_qasm_parse_tolerant;
          Alcotest.test_case "qasm parse errors" `Quick test_qasm_parse_errors;
          qcheck prop_qasm_roundtrip;
          Alcotest.test_case "ascii drawing" `Quick test_draw;
          Alcotest.test_case "drawing truncation" `Quick test_draw_truncation;
          Alcotest.test_case "compact" `Quick test_compact;
        ] );
      ( "peephole",
        [
          Alcotest.test_case "inverse pairs" `Quick test_peephole_pairs;
          Alcotest.test_case "allocates O(1) words per gate" `Quick test_peephole_allocation;
          Alcotest.test_case "commutation-aware" `Quick test_peephole_commuting;
          Alcotest.test_case "rotation merging" `Quick test_peephole_merge;
          Alcotest.test_case "stats match gate delta" `Quick test_peephole_stats_consistent;
          Alcotest.test_case "cancel-heavy linear scan" `Quick test_peephole_cancel_heavy_linear;
          Alcotest.test_case "window counts live slots" `Quick test_peephole_window_semantics;
          Alcotest.test_case "matches reference walk" `Quick test_peephole_matches_reference;
          Alcotest.test_case "disjoint gates cost no probes" `Quick test_peephole_disjoint_gates_free;
          Alcotest.test_case "fixpoint over many rounds" `Quick test_peephole_fixpoint_deep;
          Alcotest.test_case "gate pairs and triples" `Quick test_peephole_pairs_and_triples;
          Alcotest.test_case "compiled circuits match reference" `Quick
            test_peephole_matches_reference_compiled;
          Alcotest.test_case "edge cases match reference" `Quick test_peephole_edge_cases;
          Alcotest.test_case "later rounds skip settled gates" `Quick
            test_peephole_later_rounds_skip_settled_gates;
          qcheck prop_peephole_preserves_unitary;
        ] );
    ]
