open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware
open Ph_schedule
open Ph_synthesis
open Ph_verify

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck = QCheck_alcotest.to_alcotest

let term s w = Pauli_term.make (Pauli_string.of_string s) w

let program_of_strings ?(param = 0.3) n strs =
  Program.make n
    (List.map (fun (s, w) -> Block.make [ term s w ] (Block.fixed param)) strs)

(* Random small programs for property tests. *)
let gen_program n =
  QCheck.Gen.(
    let gen_op = oneofl Pauli.all in
    let gen_str =
      map
        (fun ops ->
          let s = Pauli_string.of_ops (Array.of_list ops) in
          if Pauli_string.is_identity s then
            Pauli_string.of_support n [ 0, Pauli.Z ]
          else s)
        (list_repeat n gen_op)
    in
    let gen_term = map2 (fun s w -> Pauli_term.make s (0.1 +. w)) gen_str (float_bound_inclusive 1.) in
    let gen_block =
      map2
        (fun ts p -> Block.make ts (Block.fixed (0.1 +. p)))
        (list_size (int_range 1 3) gen_term)
        (float_bound_inclusive 1.)
    in
    map (Program.make n) (list_size (int_range 1 5) gen_block))

let arb_program n =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Program.pp p)
    (gen_program n)

(* --- Naive synthesis --- *)

let test_naive_single_zz () =
  let prog = program_of_strings 2 [ "ZZ", 1.0 ] in
  let r = Naive.synthesize prog in
  check_int "2 cnots" 2 (Circuit.cnot_count r.circuit);
  check_int "1 rz" 1 (Circuit.single_qubit_count r.circuit);
  check "implements kernel" true (Unitary_check.circuit_implements r.circuit r.rotations);
  check "rotation trace matches program" true
    (r.rotations = Program.rotations prog)

let test_naive_gate_shapes () =
  (* XX: 2 CNOT + 4 H + 1 Rz;  YY: 2 CNOT + 4 Rx + 1 Rz. *)
  let r = Naive.synthesize (program_of_strings 2 [ "XX", 1.0 ]) in
  check_int "xx cnots" 2 (Circuit.cnot_count r.circuit);
  check_int "xx singles" 5 (Circuit.single_qubit_count r.circuit);
  let r = Naive.synthesize (program_of_strings 2 [ "YY", 1.0 ]) in
  check_int "yy singles" 5 (Circuit.single_qubit_count r.circuit)

let test_naive_correct_all_ops () =
  List.iter
    (fun s ->
      let prog = program_of_strings 3 [ s, 0.7 ] in
      let r = Naive.synthesize prog in
      check (Printf.sprintf "exp(%s) correct" s) true
        (Unitary_check.circuit_implements r.circuit r.rotations))
    [ "XYZ"; "ZIZ"; "YIY"; "XXI"; "IZY"; "ZZZ"; "XII"; "IYI" ]

let prop_naive_correct =
  QCheck.Test.make ~name:"naive synthesis implements the kernel" ~count:40
    (arb_program 3)
    (fun prog ->
      let r = Naive.synthesize prog in
      Unitary_check.circuit_implements r.circuit r.rotations
      && Pauli_frame.verify r.circuit ~trace:r.rotations)

(* --- FT backend --- *)

let ft_compile ?(schedule = `Gco) prog =
  let layers =
    match schedule with
    | `Gco -> Gco.schedule prog
    | `Do -> Depth_oriented.schedule prog
  in
  Ft_backend.synthesize ~n_qubits:(Program.n_qubits prog) layers

let test_ft_cancellation_zzy_zzi () =
  (* Figure 4(a): adjacent ZZY and ZZI admit two CNOT cancellations. *)
  let prog = program_of_strings 3 [ "ZZY", 1.0; "ZZI", 1.0 ] in
  let r = ft_compile prog in
  let optimized = Peephole.optimize r.circuit in
  check "correct before peephole" true
    (Unitary_check.circuit_implements r.circuit r.rotations);
  check "correct after peephole" true
    (Unitary_check.circuit_implements optimized r.rotations);
  let naive = Naive.synthesize prog in
  check
    (Printf.sprintf "fewer cnots than naive (%d < %d)"
       (Circuit.cnot_count optimized)
       (Circuit.cnot_count naive.circuit))
    true
    (Circuit.cnot_count optimized < Circuit.cnot_count naive.circuit)

let test_ft_identical_strings_fuse () =
  (* Two identical strings back to back: whole CNOT trees cancel, the two
     Rz merge. *)
  let prog = program_of_strings 4 [ "ZXZY", 1.0; "ZXZY", 1.0 ] in
  let r = ft_compile prog in
  let optimized = Peephole.optimize r.circuit in
  check_int "only one tree survives" 6 (Circuit.cnot_count optimized);
  check "correct" true (Unitary_check.circuit_implements optimized r.rotations)

let test_ft_preserves_multiset () =
  let prog =
    Program.make 3
      [
        Block.make [ term "ZZI" 1.0; term "IZZ" 0.5 ] (Block.fixed 0.2);
        Block.make [ term "XXX" 0.7 ] (Block.fixed 0.4);
      ]
  in
  let r = ft_compile prog in
  check_int "all terms lowered" 3 (List.length r.rotations)

let prop_ft_correct_gco =
  QCheck.Test.make ~name:"FT backend correct under GCO scheduling" ~count:40
    (arb_program 3)
    (fun prog ->
      let r = ft_compile ~schedule:`Gco prog in
      let optimized = Peephole.optimize r.circuit in
      Unitary_check.circuit_implements optimized r.rotations
      && Pauli_frame.verify r.circuit ~trace:r.rotations)

let prop_ft_correct_do =
  QCheck.Test.make ~name:"FT backend correct under DO scheduling" ~count:40
    (arb_program 4)
    (fun prog ->
      let r = ft_compile ~schedule:`Do prog in
      let optimized = Peephole.optimize r.circuit in
      Unitary_check.circuit_implements optimized r.rotations)

(* The paper's claim is aggregate, not per-instance: over a seeded sample
   of random programs, scheduled+adaptive synthesis must not lose to
   naive synthesis on total CNOTs. *)
let test_ft_aggregate_beats_naive () =
  let rand = Random.State.make [| 42 |] in
  let gen = gen_program 4 in
  let ft_total = ref 0 and naive_total = ref 0 in
  for _ = 1 to 40 do
    let prog = gen rand in
    ft_total := !ft_total + Circuit.cnot_count (Peephole.optimize (ft_compile prog).circuit);
    naive_total :=
      !naive_total + Circuit.cnot_count (Peephole.optimize (Naive.synthesize prog).circuit)
  done;
  check
    (Printf.sprintf "aggregate ft=%d <= naive=%d" !ft_total !naive_total)
    true
    (!ft_total <= !naive_total)

(* --- SC backend --- *)

let sc_compile ?(coupling = Devices.line 4) prog =
  let layers = Depth_oriented.schedule prog in
  Sc_backend.synthesize ~coupling ~n_qubits:(Program.n_qubits prog) layers

let test_sc_respects_coupling () =
  let coupling = Devices.line 4 in
  let prog = program_of_strings 4 [ "ZIIZ", 1.0; "XXII", 0.5 ] in
  let r = sc_compile ~coupling prog in
  Array.iter
    (fun g ->
      match g with
      | Gate.Cnot (a, b) | Gate.Swap (a, b) ->
        check
          (Printf.sprintf "%s respects coupling" (Gate.to_string g))
          true (Coupling.adjacent coupling a b)
      | _ -> ())
    (Circuit.gates r.circuit)

let test_sc_correct_line () =
  let prog = program_of_strings 4 [ "ZIIZ", 1.0; "XXII", 0.5; "IYYI", 0.3 ] in
  let r = sc_compile prog in
  check "dense equivalence" true
    (Unitary_check.sc_circuit_implements ~circuit:r.circuit ~rotations:r.rotations
       ~initial:r.initial_layout ~final:r.final_layout);
  check "pauli-frame equivalence" true
    (Pauli_frame.verify r.circuit ~trace:r.rotations
       ~layouts:(r.initial_layout, r.final_layout))

let prop_sc_correct =
  QCheck.Test.make ~name:"SC backend correct on a 2x2 grid" ~count:30
    (arb_program 4)
    (fun prog ->
      let coupling = Devices.grid 2 2 in
      let r = sc_compile ~coupling prog in
      Pauli_frame.verify r.circuit ~trace:r.rotations
        ~layouts:(r.initial_layout, r.final_layout)
      && Unitary_check.sc_circuit_implements ~circuit:r.circuit ~rotations:r.rotations
           ~initial:r.initial_layout ~final:r.final_layout)

let prop_sc_correct_line5 =
  QCheck.Test.make ~name:"SC backend correct on line-5 (peephole too)" ~count:20
    (arb_program 4)
    (fun prog ->
      let coupling = Devices.line 5 in
      let r = sc_compile ~coupling prog in
      let optimized = Peephole.optimize (Circuit.decompose_swaps r.circuit) in
      Unitary_check.sc_circuit_implements ~circuit:optimized ~rotations:r.rotations
        ~initial:r.initial_layout ~final:r.final_layout)

let prop_sc_coupling_respected =
  QCheck.Test.make ~name:"SC output always obeys the coupling map" ~count:30
    (arb_program 5)
    (fun prog ->
      let coupling = Devices.line 5 in
      let r = sc_compile ~coupling prog in
      Array.for_all
        (fun g ->
          match g with
          | Gate.Cnot (a, b) | Gate.Swap (a, b) -> Coupling.adjacent coupling a b
          | _ -> true)
        (Circuit.gates r.circuit))

let test_sc_parallel_small_blocks () =
  (* DO pads disjoint small blocks into a leader's layer; on a wide
     device the SC backend synthesizes them without disturbing the
     leader, and the measured depth shows the parallelism. *)
  let prog =
    program_of_strings 8
      [ "ZZZZIIII", 1.0; "IIIIIZZI", 0.5; "IIIIIIZZ", 0.4; "ZZZYIIII", 0.8 ]
  in
  let coupling = Devices.grid 2 4 in
  let layers = Depth_oriented.schedule prog in
  let r = Sc_backend.synthesize ~coupling ~n_qubits:8 layers in
  check "verified" true
    (Pauli_frame.verify r.circuit ~trace:r.rotations
       ~layouts:(r.initial_layout, r.final_layout));
  let c = Circuit.decompose_swaps r.circuit in
  check
    (Printf.sprintf "depth %d < serial total %d" (Circuit.depth c) (Circuit.total_count c))
    true
    (Circuit.depth c < Circuit.total_count c)

let test_sc_scale_manhattan () =
  (* A 20-qubit, ~100-string random kernel on the 65-qubit device:
     tableau-verified end to end. *)
  let prog = Ph_benchmarks.Random_h.program ~seed:8 ~density:0.25 ~n_qubits:20 () in
  let layers = Depth_oriented.schedule prog in
  let r = Sc_backend.synthesize ~coupling:Devices.manhattan ~n_qubits:20 layers in
  check "verified at scale" true
    (Pauli_frame.verify r.circuit ~trace:r.rotations
       ~layouts:(r.initial_layout, r.final_layout))

let test_sc_swap_counter () =
  (* The telemetry counter must equal the SWAPs actually present in the
     emitted circuit, before decompose_swaps rewrites them into CNOTs. *)
  let count_swaps c =
    Array.fold_left
      (fun n g -> match g with Gate.Swap _ -> n + 1 | _ -> n)
      0 (Circuit.gates c)
  in
  let check_prog prog coupling n_qubits =
    let layers = Depth_oriented.schedule prog in
    let r = Sc_backend.synthesize ~coupling ~n_qubits layers in
    Alcotest.(check int) "swaps counter matches emitted SWAPs"
      (count_swaps r.circuit) r.swaps
  in
  check_prog
    (program_of_strings 8
       [ "ZZZZIIII", 1.0; "IIIIIZZI", 0.5; "IIIIIIZZ", 0.4; "ZZZYIIII", 0.8 ])
    (Devices.grid 2 4) 8;
  (* a long-range string on a line forces routing, so the counter is
     exercised on a circuit that genuinely contains SWAPs *)
  let r =
    Sc_backend.synthesize ~coupling:(Devices.line 5) ~n_qubits:5
      (Depth_oriented.schedule (program_of_strings 5 [ "ZIIIZ", 1.0; "XIXIX", 0.7 ]))
  in
  Alcotest.(check int) "swaps counter matches on routed circuit"
    (count_swaps r.circuit) r.swaps;
  check "routing produced swaps" true (r.swaps > 0)

(* The SC backend must reproduce the reference implementation kept in
   [Sc_backend_ref] code for code (angles to the bit, through
   [Emit_ref.flat]): same circuit, rotation trace, SWAP
   count and initial/final layouts.  Every program used here compiles,
   so the comparison is never between two identical failures. *)
let sc_matches_ref ?noise ?root_policy ~coupling name prog =
  let n_qubits = Program.n_qubits prog in
  let layers = Depth_oriented.schedule prog in
  let summary circuit rotations initial final swaps =
    ( Emit_ref.flat circuit,
      List.map (fun (s, t) -> Pauli_string.to_string s, Int64.bits_of_float t) rotations,
      Layout.to_array initial,
      Layout.to_array final,
      swaps )
  in
  let run f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e) in
  let got =
    run (fun () ->
        let r = Sc_backend.synthesize ?noise ?root_policy ~coupling ~n_qubits layers in
        summary r.circuit r.rotations r.initial_layout r.final_layout r.swaps)
  in
  let want =
    run (fun () ->
        let r = Sc_backend_ref.synthesize ?noise ?root_policy ~coupling ~n_qubits layers in
        summary r.circuit r.rotations r.initial_layout r.final_layout r.swaps)
  in
  check (name ^ " compiles") true (Result.is_ok want);
  check (name ^ " matches the reference") true (got = want);
  layers

let test_sc_matches_ref_sc_route () =
  (* The shapes of the sc-route benchmark workload: DO on Manhattan-65. *)
  let open Ph_benchmarks in
  let coupling = Devices.manhattan in
  let progs seed =
    List.map
      (fun (n, cap) ->
        ( Printf.sprintf "uccsd-%d.%d" n seed,
          Uccsd.ansatz ~seed ?max_doubles:cap ~n_qubits:n () ))
      [ 8, None; 12, Some 100; 16, Some 120 ]
    @ List.map
        (fun d ->
          ( Printf.sprintf "reg-20-%d.%d" d seed,
            Qaoa.maxcut (Graphs.regular ~seed 20 d) ~gamma:0.6 ))
        [ 4; 8 ]
    @ List.map
        (fun p ->
          ( Printf.sprintf "er-20-%g.%d" p seed,
            Qaoa.maxcut (Graphs.erdos_renyi ~seed 20 p) ~gamma:0.6 ))
        [ 0.3; 0.5 ]
    @ List.map
        (fun n -> Printf.sprintf "tsp-%d.%d" n seed, Qaoa.tsp ~seed n ~gamma:0.6)
        [ 4; 5 ]
  in
  List.iter
    (fun seed ->
      List.iter (fun (name, prog) -> ignore (sc_matches_ref ~coupling name prog)) (progs seed))
    [ 1; 2; 3 ]

let test_sc_matches_ref_devices () =
  (* Other topologies, calibrated noise, the ablated root policy, and
     padded layers (whose small blocks route under [~avoid]). *)
  let open Ph_benchmarks in
  let devices =
    [
      "grid-5x5", Devices.grid 5 5;
      "heavy-hex-3x9", Devices.heavy_hex ~rows:3 ~row_length:9;
      "line-30", Devices.line 30;
      "melbourne", Devices.melbourne;
    ]
  in
  let padded = ref 0 in
  List.iter
    (fun (dname, coupling) ->
      let progs =
        List.concat_map
          (fun seed ->
            [
              "random-12", Random_h.program ~seed ~density:0.3 ~n_qubits:12 ();
              "random-16", Random_h.program ~seed ~density:0.15 ~n_qubits:16 ();
              "qaoa-reg-12-3", Qaoa.maxcut (Graphs.regular ~seed 12 3) ~gamma:0.6;
              "qaoa-er-16", Qaoa.maxcut (Graphs.erdos_renyi ~seed 16 0.3) ~gamma:0.6;
              "uccsd-8", Uccsd.ansatz ~seed ~max_doubles:12 ~n_qubits:8 ();
              "uccsd-12", Uccsd.ansatz ~seed ~max_doubles:20 ~n_qubits:12 ();
            ])
          [ 5; 6 ]
      in
      List.iter
        (fun (pname, prog) ->
          let calibrated = Noise_model.calibrated coupling ~seed:11 () in
          List.iter
            (fun (vname, noise, root_policy) ->
              let name = String.concat "/" [ dname; pname; vname ] in
              let layers = sc_matches_ref ?noise ~root_policy ~coupling name prog in
              List.iter (fun l -> padded := !padded + List.length (Layer.padding l)) layers)
            [
              "uniform", None, `Largest_component;
              "calibrated", Some calibrated, `Largest_component;
              "first-core", None, `First_core;
              "calibrated-first-core", Some calibrated, `First_core;
            ])
        progs)
    devices;
  check "some layers carry padding" true (!padded > 0)

let test_sc_matches_ref_hop_under_avoid () =
  (* On a 4x4 grid a padded block's string ends up split around the
     leader's committed positions, so its hop must detour around them. *)
  let blocks =
    List.map
      (fun strs -> Block.make (List.map (fun s -> term s 0.5) strs) (Block.fixed 0.3))
      [
        [ "IYIIIIYIYIIZI"; "IXIIIIXZIIIXI" ];
        [ "IIIIZIZIIIIII" ];
        [ "IIIZIZIIIYXII"; "IIIXIIIIIXYII"; "IIIYIIIIIXXII" ];
        [ "IIIIZYXIIIIII"; "IIIIZYIIIIIII"; "IIIIYZIIIIIII" ];
        [ "ZIIIIYIXYXIIX"; "YIIIIIIIYIIIZ"; "XIIIIZIYIIIIX" ];
      ]
  in
  let prog = Program.make 13 blocks in
  ignore (sc_matches_ref ~coupling:(Devices.grid 4 4) "grid-4x4" prog)

(* Programs on which [Sc_backend_ref] raises: the fallback tree over a
   disconnected active region misses a holder ("root must be a holder"),
   or a padded block's hop is cut off by the leader's committed
   positions ([Not_found]).  They must now compile and verify. *)
let sc_compiles_and_verifies ~coupling name prog =
  let n_qubits = Program.n_qubits prog in
  let layers = Depth_oriented.schedule prog in
  let r = Sc_backend.synthesize ~coupling ~n_qubits layers in
  check (name ^ " obeys the coupling map") true
    (Array.for_all
       (fun g ->
         match Gate.qubits g with
         | [ a; b ] -> Coupling.adjacent coupling a b
         | _ -> true)
       (Circuit.gates r.circuit));
  check (name ^ " verifies") true
    (Pauli_frame.verify r.circuit ~trace:r.rotations
       ~layouts:(r.initial_layout, r.final_layout));
  layers

let reference_raises ~coupling prog layers =
  match
    Sc_backend_ref.synthesize ~coupling ~n_qubits:(Program.n_qubits prog) layers
  with
  | _ -> false
  | exception (Invalid_argument _ | Not_found) -> true

let test_sc_crash_reproducers () =
  let coupling = Devices.grid 4 4 in
  let block strs = Block.make (List.map (fun (s, w) -> term s w) strs) (Block.fixed 0.3) in
  let holder = Program.make 5 [ Block.make [ term "IIYII" 1.; term "YZIIX" 1. ] (Block.fixed 1.) ] in
  let cut_off =
    Program.make 11
      [
        block [ "IIZIIYIIZIX", 0.5 ];
        block [ "IIIIZIIIIII", 0.5; "IIIIXIIIYII", 0.5 ];
        block [ "XIIYIIXIIXI", 0.5; "IIIZIIYIIII", 0.5; "XIIXIIZIIII", 0.5 ];
        block [ "IIIIIIIZIIX", 0.5; "IIIIIIIZZIZ", 0.5 ];
        block [ "IIIIIIIIIXI", 0.5 ];
      ]
  in
  List.iter
    (fun (name, prog) ->
      let layers = sc_compiles_and_verifies ~coupling name prog in
      check (name ^ " crashes the reference") true (reference_raises ~coupling prog layers))
    [ "root-not-holder", holder; "hop-cut-off", cut_off ]

(* Random DO programs of 2-9 blocks (1-3 strings of weight <= 7) on
   small devices: where the reference compiles, the output is identical
   to it; where it raises, the output compiles and verifies. *)
let test_sc_random_blocks_vs_ref () =
  let rand = Random.State.make [| 2109 |] in
  let devices =
    [ Devices.grid 3 3; Devices.grid 4 4; Devices.grid 5 5; Devices.line 12; Devices.melbourne ]
  in
  let raised = ref 0 in
  for case = 1 to 400 do
    let coupling = List.nth devices (case mod List.length devices) in
    let n = min (Coupling.n_qubits coupling) (5 + Random.State.int rand 7) in
    let random_string () =
      let weight = 1 + Random.State.int rand (min 7 n) in
      let ops = Array.make n Pauli.I in
      for _ = 1 to weight do
        ops.(Random.State.int rand n) <- List.nth [ Pauli.X; Pauli.Y; Pauli.Z ] (Random.State.int rand 3)
      done;
      if Array.for_all (( = ) Pauli.I) ops then ops.(0) <- Pauli.Z;
      Pauli_term.make (Pauli_string.of_ops ops) 0.5
    in
    let blocks =
      List.init (2 + Random.State.int rand 8) (fun _ ->
          Block.make (List.init (1 + Random.State.int rand 3) (fun _ -> random_string ()))
            (Block.fixed 0.3))
    in
    let prog = Program.make n blocks in
    let name = Printf.sprintf "case %d" case in
    let layers = Depth_oriented.schedule prog in
    if reference_raises ~coupling prog layers then begin
      incr raised;
      ignore (sc_compiles_and_verifies ~coupling name prog)
    end
    else ignore (sc_matches_ref ~coupling name prog)
  done;
  check "some cases crash the reference" true (!raised > 0)

let test_ft_cancellation_across_padding () =
  (* Two near-identical wide strings separated by a disjoint small one:
     the partner search skips the padding and junction cancellation still
     fires. *)
  let prog =
    program_of_strings 6 [ "ZZZZII", 1.0; "IIIIZZ", 0.5; "ZZZYII", 0.7 ]
  in
  let r = Ft_backend.synthesize ~n_qubits:6 (List.map Ph_schedule.Layer.of_block (Program.blocks prog)) in
  let optimized = Peephole.optimize r.circuit in
  check "correct" true (Unitary_check.circuit_implements optimized r.rotations);
  (* naive: 6 + 2 + 6 = 14 cnots; shared ZZZ prefix cancels 2·2 = 4 *)
  check
    (Printf.sprintf "cancellation across padding (%d <= 10)" (Circuit.cnot_count optimized))
    true
    (Circuit.cnot_count optimized <= 10)

(* The FT backend must reproduce the reference implementation kept in
   [Ft_backend_ref] code for code (angles to the bit, through
   [Emit_ref.flat]), with the same rotation trace, in every mode. *)
let ft_matches_ref name layers =
  let n_qubits =
    match layers with
    | l :: _ -> Block.n_qubits (Layer.leader l)
    | [] -> 1
  in
  let summary (r : Emit.result) =
    ( Emit_ref.flat r.circuit,
      List.map (fun (s, t) -> Pauli_string.to_string s, Int64.bits_of_float t) r.rotations )
  in
  List.iter
    (fun (mname, mode) ->
      let got = summary (Ft_backend.synthesize ~mode ~n_qubits layers) in
      let want = summary (Ft_backend_ref.synthesize ~mode ~n_qubits layers) in
      check (Printf.sprintf "%s/%s matches the reference" name mname) true
        (got = want))
    [ "chain", `Chain; "pair", `Pair; "independent", `Independent ]

let test_ft_matches_ref_table2 () =
  List.iter
    (fun (b : Ph_benchmarks.Suite.t) ->
      let prog = b.Ph_benchmarks.Suite.generate () in
      ft_matches_ref (b.Ph_benchmarks.Suite.name ^ "/do") (Depth_oriented.schedule prog);
      ft_matches_ref (b.Ph_benchmarks.Suite.name ^ "/gco") (Gco.schedule prog))
    (Ph_benchmarks.Suite.ft ())

let test_ft_matches_ref_workloads () =
  (* The shapes of the ft-chem and ft-wide benchmark workloads, under DO;
     the wide ones span two to five plane words. *)
  let open Ph_benchmarks in
  List.iter
    (fun (name, prog) -> ft_matches_ref name (Depth_oriented.schedule prog))
    ([
       "mol-20q", Molecule.synthetic ~seed:3 ~n_qubits:20 ~target_strings:1500 ();
       "mol-28q", Molecule.synthetic ~seed:4 ~n_qubits:28 ~target_strings:3000 ();
       "mol-36q", Molecule.synthetic ~seed:5 ~n_qubits:36 ~target_strings:6000 ();
       "uccsd-64q", Uccsd.ansatz ~seed:6 ~max_singles:150 ~max_doubles:150 ~n_qubits:64 ();
       "uccsd-96q", Uccsd.ansatz ~seed:7 ~max_singles:120 ~max_doubles:120 ~n_qubits:96 ();
     ]
    @ List.map
        (fun n -> Printf.sprintf "rand-%dq" n, Random_h.program ~seed:n ~density:0.5 ~n_qubits:n ())
        [ 30; 40; 50 ]
    @ List.map
        (fun (n, strings) ->
          ( Printf.sprintf "rand-%dq-%d" n strings,
            Random_h.program ~seed:n
              ~density:(float_of_int strings /. float_of_int (n * n))
              ~n_qubits:n () ))
        [ 128, 80; 192, 60; 256, 40 ])

(* Partners are searched at most [partner_window] + 1 strings away:
   with 50 disjoint fillers between two strings sharing Z4 Z5 they are
   partners (and chain those qubits first), with 51 they are not. *)
let test_ft_matches_ref_partner_window () =
  List.iter
    (fun fillers ->
      let strs =
        ("IZZIIIX", 1.0)
        :: List.init fillers (fun k ->
               String.init 7 (fun c -> if c = 3 + (k mod 3) then 'Z' else 'I'), 0.5)
        @ [ "IZZIIIY", 1.0 ]
      in
      ft_matches_ref
        (Printf.sprintf "%d fillers" fillers)
        (List.map Layer.of_block (Program.blocks (program_of_strings 7 strs))))
    [ 49; 50; 51 ]

(* Random programs whose strings draw their support from a small hot set
   of qubits — often straddling a plane-word boundary — and often repeat
   a neighbour's operators, so partners, matching prefixes and every
   operator class occur; half the cases are 63-130 qubits wide. *)
let ft_fuzz_program rand case =
  let n =
    if case mod 2 = 0 then 63 + Random.State.int rand 68
    else 2 + Random.State.int rand 12
  in
  let hot =
    Array.init (min n 12) (fun k ->
        if n > 64 && k < 4 then 60 + k else Random.State.int rand n)
  in
  let ops = [| Pauli.X; Pauli.Y; Pauli.Z; Pauli.Z |] in
  let fresh () =
    let w = 1 + Random.State.int rand (Array.length hot) in
    Pauli_string.of_support n
      (List.sort_uniq
         (fun (a, _) (b, _) -> Int.compare a b)
         (List.init w (fun _ ->
              ( hot.(Random.State.int rand (Array.length hot)),
                ops.(Random.State.int rand 4) ))))
  in
  let last = ref (fresh ()) in
  let next () =
    let s =
      if Random.State.int rand 3 = 0 then fresh ()
      else
        Pauli_string.with_ops !last
          [ hot.(Random.State.int rand (Array.length hot)), ops.(Random.State.int rand 4) ]
    in
    last := s;
    s
  in
  let blocks =
    List.init
      (1 + Random.State.int rand 30)
      (fun _ ->
        Block.make
          (List.init
             (1 + Random.State.int rand 4)
             (fun _ -> Pauli_term.make (next ()) (0.1 +. Random.State.float rand 1.)))
          (Block.fixed 0.3))
  in
  Program.make n blocks

let test_ft_matches_ref_fuzz () =
  let rand = Random.State.make [| 1617 |] in
  for case = 1 to 300 do
    let prog = ft_fuzz_program rand case in
    let what = Printf.sprintf "fuzz case %d (%dq)" case (Program.n_qubits prog) in
    let layers =
      match case mod 3 with
      | 0 -> Gco.schedule prog
      | 1 -> Depth_oriented.schedule prog
      | _ -> Depth_oriented.schedule ~window:4 prog
    in
    ft_matches_ref what layers
  done

(* --- Emit helpers --- *)

let test_emit_angle () =
  Alcotest.(check (float 1e-12)) "theta = 2wt" 0.3
    (Emit.angle (Block.fixed 0.5) 0.3)

(* An order must hold each qubit of the support once: a repeated, a
   missing, an off-support or an out-of-range qubit is rejected with
   the one message, and every permutation of the support is accepted. *)
let test_emit_chain_validation () =
  let p = Pauli_string.of_string "ZXYI" in
  let rejects name order =
    Alcotest.check_raises name
      (Invalid_argument "Emit.emit_chain: order must enumerate the support")
      (fun () -> Emit.emit_chain (Circuit.Builder.create 4) p ~order ~theta:0.1)
  in
  rejects "duplicate qubit" [| 1; 2; 2 |];
  rejects "duplicate in place of a support qubit" [| 1; 2; 1 |];
  rejects "missing qubit" [| 1; 2 |];
  rejects "qubit outside the support" [| 0; 1; 2 |];
  rejects "outside the support, right length" [| 0; 2; 3 |];
  rejects "qubit out of range" [| 1; 2; 4 |];
  rejects "negative qubit" [| -1; 1; 2 |];
  let wide = Pauli_string.of_support 130 [ 3, Pauli.Z; 70, Pauli.X; 129, Pauli.Y ] in
  Alcotest.check_raises "duplicate across words"
    (Invalid_argument "Emit.emit_chain: order must enumerate the support")
    (fun () -> Emit.emit_chain (Circuit.Builder.create 130) wide ~order:[| 3; 70; 70 |] ~theta:0.1);
  List.iter
    (fun order ->
      let b = Circuit.Builder.create 4 and r = Emit_ref.Builder.create 4 in
      Emit.emit_chain b p ~order ~theta:0.1;
      Emit_ref.emit_chain r p ~order:(Array.to_list order) ~theta:0.1;
      check "permutation accepted, same gates" true
        (Emit_ref.same_circuit (Circuit.Builder.to_circuit b) (Emit_ref.Builder.to_circuit r)))
    [ [| 1; 2; 3 |]; [| 3; 1; 2 |]; [| 2; 3; 1 |] ]

(* Coarse allocation guard on FT emission: lowering every string of a
   fixed 64-qubit program (two words per plane) through [emit_chain]
   into one builder allocates fewer minor words than the gates it
   emits — the gates live in the builder's flat buffers, and the order
   check needs one small bitmask per string.  The orders are built
   before the measured loop, as [Ft_backend] builds them before its. *)
let test_ft_emission_allocation () =
  let prog = Ph_benchmarks.Uccsd.ansatz ~seed:6 ~max_singles:150 ~max_doubles:150 ~n_qubits:64 () in
  let terms =
    List.concat_map
      (fun blk ->
        List.map
          (fun (t : Pauli_term.t) ->
            t.str, Array.of_list (List.rev (Pauli_string.support t.str)), Emit.angle (Block.param blk) t.coeff)
          (Block.terms blk))
      (Program.blocks prog)
  in
  let emit () =
    let b = Circuit.Builder.create (Program.n_qubits prog) in
    List.iter (fun (p, order, theta) -> Emit.emit_chain b p ~order ~theta) terms;
    b
  in
  ignore (emit ());
  let w0 = Gc.minor_words () in
  let b = emit () in
  let words = Gc.minor_words () -. w0 in
  let gates = Circuit.Builder.length b in
  check
    (Printf.sprintf "%.0f minor words < %d gates" words gates)
    true
    (gates > 50_000 && words < float_of_int gates)

(* --- Emission against the boxed oracle ([Emit_ref]) --- *)

(* The Phoenix FT emission of [Ph_opt.Phoenix_backend], through the
   reference FT backend and the boxed builder. *)
let phoenix_ft_ref ~n_qubits (pass : Ph_opt.Pass.t) =
  let module Tbl = Hashtbl.Make (Pauli_string) in
  let builder = Emit_ref.Builder.create n_qubits in
  let rotations = ref [] in
  List.iter
    (fun (g : Ph_opt.Pass.group) ->
      let layers =
        List.filter_map
          (fun b ->
            if List.exists (fun (t : Pauli_term.t) -> not (Pauli_string.is_identity t.str)) (Block.terms b)
            then Some (Layer.of_block b)
            else None)
          g.Ph_opt.Pass.blocks
      in
      if layers <> [] then begin
        let origin = Tbl.create 16 in
        List.iter (fun (orig, diag, sign) -> Tbl.replace origin diag (orig, sign)) g.Ph_opt.Pass.rows;
        Emit_ref.Builder.add_list builder g.Ph_opt.Pass.clifford;
        let r = Ft_backend_ref.synthesize ~n_qubits layers in
        Emit_ref.Builder.append builder r.Emit.circuit;
        List.iter
          (fun (diag, theta) ->
            let orig, sign = Tbl.find origin diag in
            rotations := (orig, sign *. theta) :: !rotations)
          r.Emit.rotations;
        List.iter (fun gate -> Emit_ref.Builder.add builder (Gate.dagger gate)) (List.rev g.Ph_opt.Pass.clifford)
      end)
    pass.Ph_opt.Pass.groups;
  { Emit.circuit = Emit_ref.Builder.to_circuit builder; rotations = List.rev !rotations }

(* [Ion_trap.synthesize] through the reference FT backend and a boxed
   native lowering (the peephole between them has its own oracle,
   [Peephole_ref], in test_gatelevel). *)
let ion_trap_ref ~n_qubits layers =
  let r = Ft_backend_ref.synthesize ~n_qubits layers in
  let optimize = Peephole.optimize ?window:None ?max_rounds:None in
  let half_pi = Float.pi /. 2. in
  let lower_cnot b c t =
    Emit_ref.Builder.add_list b
      [ Gate.Ry (half_pi, c); Gate.Rxx (half_pi, c, t); Gate.Ry (-.half_pi, c);
        Gate.Rx (-.half_pi, t); Gate.Sdg c ]
  in
  let cleaned = optimize r.Emit.circuit in
  let b = Emit_ref.Builder.create (Circuit.n_qubits cleaned) in
  Array.iter
    (fun g ->
      match g with
      | Gate.Cnot (c, t) -> lower_cnot b c t
      | Gate.Swap (x, y) ->
        lower_cnot b x y;
        lower_cnot b y x;
        lower_cnot b x y
      | g -> Emit_ref.Builder.add b g)
    (Circuit.gates cleaned);
  { r with Emit.circuit = optimize (Emit_ref.Builder.to_circuit b) }

let same_result what (got : Emit.result) (want : Emit.result) =
  let trace (r : Emit.result) =
    List.map (fun (s, t) -> Pauli_string.to_string s, Int64.bits_of_float t) r.rotations
  in
  check (what ^ " matches the boxed oracle") true
    (Emit_ref.same_circuit got.circuit want.circuit && trace got = trace want)

let phoenix_ft_matches_ref name prog =
  let n_qubits = Program.n_qubits prog in
  let pass = Ph_opt.Pass.run prog in
  same_result (name ^ "/phoenix-ft")
    (Ph_opt.Phoenix_backend.synthesize_ft ~n_qubits pass)
    (phoenix_ft_ref ~n_qubits pass)

(* Phoenix on Manhattan: the routed reference circuit, trace and
   layouts. *)
let phoenix_sc_matches_ref name prog =
  let n_qubits = Program.n_qubits prog and coupling = Devices.manhattan in
  let pass = Ph_opt.Pass.run prog in
  let got = Ph_opt.Phoenix_backend.synthesize_sc ~coupling ~n_qubits pass in
  let want = phoenix_ft_ref ~n_qubits pass in
  let routed = Ph_baselines.Router.route ~coupling want.Emit.circuit in
  same_result (name ^ "/phoenix-sc")
    { Emit.circuit = got.Sc_backend.circuit; rotations = got.Sc_backend.rotations }
    { want with Emit.circuit = routed.Ph_baselines.Router.circuit };
  let layouts initial final = Layout.to_array initial, Layout.to_array final in
  check (name ^ "/phoenix-sc layouts") true
    (layouts got.Sc_backend.initial_layout got.Sc_backend.final_layout
    = layouts routed.Ph_baselines.Router.initial_layout routed.Ph_baselines.Router.final_layout)

let ion_trap_matches_ref name prog =
  let n_qubits = Program.n_qubits prog in
  let layers = Depth_oriented.schedule prog in
  same_result (name ^ "/ion-trap") (Ion_trap.synthesize ~n_qubits layers)
    (ion_trap_ref ~n_qubits layers)

(* Table 2: SC programs under the SC backend and phoenix on Manhattan,
   FT programs under phoenix FT and the ion-trap lowering (the FT modes
   are "ft 6"). *)
let test_emit_matches_ref_table2 () =
  List.iter
    (fun (b : Ph_benchmarks.Suite.t) ->
      let name = b.Ph_benchmarks.Suite.name and prog = b.Ph_benchmarks.Suite.generate () in
      match b.Ph_benchmarks.Suite.backend with
      | Ph_benchmarks.Suite.SC ->
        ignore (sc_matches_ref ~coupling:Devices.manhattan name prog);
        phoenix_sc_matches_ref name prog
      | Ph_benchmarks.Suite.FT ->
        phoenix_ft_matches_ref name prog;
        ion_trap_matches_ref name prog)
    (Ph_benchmarks.Suite.all ())

(* The scale suite (64–256 qubits): chain mode under DO, and phoenix
   FT. *)
let test_emit_matches_ref_scale () =
  List.iter
    (fun (b : Ph_benchmarks.Suite.t) ->
      let name = b.Ph_benchmarks.Suite.name and prog = b.Ph_benchmarks.Suite.generate () in
      let n_qubits = Program.n_qubits prog and layers = Depth_oriented.schedule prog in
      same_result (name ^ "/chain")
        (Ft_backend.synthesize ~n_qubits layers)
        (Ft_backend_ref.synthesize ~n_qubits layers);
      phoenix_ft_matches_ref name prog)
    (Ph_benchmarks.Suite.scale ())

let test_emit_matches_ref_fuzz () =
  let rand = Random.State.make [| 2718 |] in
  for case = 1 to 120 do
    let prog = ft_fuzz_program rand case in
    let what = Printf.sprintf "fuzz case %d (%dq)" case (Program.n_qubits prog) in
    phoenix_ft_matches_ref what prog;
    ion_trap_matches_ref what prog;
    if Program.n_qubits prog <= Coupling.n_qubits Devices.manhattan then begin
      ignore (sc_matches_ref ~coupling:Devices.manhattan what prog);
      phoenix_sc_matches_ref what prog
    end
  done

let () =
  Alcotest.run "synthesis"
    [
      ( "naive",
        [
          Alcotest.test_case "ZZ rotation" `Quick test_naive_single_zz;
          Alcotest.test_case "basis-change gate shapes" `Quick test_naive_gate_shapes;
          Alcotest.test_case "correct on mixed operators" `Quick test_naive_correct_all_ops;
          qcheck prop_naive_correct;
        ] );
      ( "ft",
        [
          Alcotest.test_case "Figure 4a cancellation" `Quick test_ft_cancellation_zzy_zzi;
          Alcotest.test_case "identical strings fuse" `Quick test_ft_identical_strings_fuse;
          Alcotest.test_case "all terms lowered" `Quick test_ft_preserves_multiset;
          qcheck prop_ft_correct_gco;
          qcheck prop_ft_correct_do;
          Alcotest.test_case "aggregate beats naive" `Quick test_ft_aggregate_beats_naive;
          Alcotest.test_case "matches reference on table 2" `Quick
            test_ft_matches_ref_table2;
          Alcotest.test_case "matches reference on ft-chem/ft-wide shapes" `Quick
            test_ft_matches_ref_workloads;
          Alcotest.test_case "partner window edge matches reference" `Quick
            test_ft_matches_ref_partner_window;
          Alcotest.test_case "300-case fuzz matches reference" `Quick
            test_ft_matches_ref_fuzz;
        ] );
      ( "sc",
        [
          Alcotest.test_case "respects coupling" `Quick test_sc_respects_coupling;
          Alcotest.test_case "correct on a line" `Quick test_sc_correct_line;
          qcheck prop_sc_correct;
          qcheck prop_sc_correct_line5;
          qcheck prop_sc_coupling_respected;
          Alcotest.test_case "parallel small blocks" `Quick test_sc_parallel_small_blocks;
          Alcotest.test_case "20q on manhattan" `Quick test_sc_scale_manhattan;
          Alcotest.test_case "swap counter" `Quick test_sc_swap_counter;
          Alcotest.test_case "matches reference on sc-route shapes" `Quick
            test_sc_matches_ref_sc_route;
          Alcotest.test_case "matches reference across devices and noise" `Quick
            test_sc_matches_ref_devices;
          Alcotest.test_case "matches reference when hops detour padding" `Quick
            test_sc_matches_ref_hop_under_avoid;
          Alcotest.test_case "crash reproducers compile and verify" `Quick
            test_sc_crash_reproducers;
          Alcotest.test_case "random blocks: reference or verified" `Quick
            test_sc_random_blocks_vs_ref;
          Alcotest.test_case "cancellation across padding" `Quick
            test_ft_cancellation_across_padding;
        ] );
      ( "emit",
        [
          Alcotest.test_case "angle convention" `Quick test_emit_angle;
          Alcotest.test_case "chain validation" `Quick test_emit_chain_validation;
          Alcotest.test_case "FT emission allocates less than a word per gate" `Quick
            test_ft_emission_allocation;
          Alcotest.test_case "matches boxed oracle on table 2" `Quick
            test_emit_matches_ref_table2;
          Alcotest.test_case "matches boxed oracle on the scale suite" `Quick
            test_emit_matches_ref_scale;
          Alcotest.test_case "matches boxed oracle on a fuzz sweep" `Quick
            test_emit_matches_ref_fuzz;
        ] );
    ]
