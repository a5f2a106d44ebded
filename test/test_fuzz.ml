(* Tests of the lib/fuzz property-testing subsystem: deterministic
   generation, the fixed-seed corpus staying clean on every pipeline,
   print/parse round-trips, and the end-to-end bug-hunting story — an
   injected miscompile (flipped CNOT direction) must be caught by the
   oracles and delta-debugged to a tiny reproducer with an artifact. *)

open Ph_pauli_ir
open Ph_gatelevel
open Paulihedral
open Ph_fuzz

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Rng: splitmix64 determinism and ranges --- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check "same stream" true (Rng.next64 a = Rng.next64 b)
  done;
  let c = Rng.create2 123 7 and d = Rng.create2 123 8 in
  check "distinct sub-streams" false (Rng.next64 c = Rng.next64 d)

let test_rng_ranges () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let i = Rng.int rng 7 in
    check "int in range" true (i >= 0 && i < 7);
    let f = Rng.float rng 2.5 in
    check "float in range" true (f >= 0. && f < 2.5)
  done

(* --- Gen: cases are pure functions of (seed, id) --- *)

let test_gen_deterministic () =
  List.iter
    (fun i ->
      let a = Gen.case ~seed:42 i and b = Gen.case ~seed:42 i in
      Alcotest.(check string)
        (Printf.sprintf "case %d reproducible" i)
        (Parser.to_text a.Gen.program)
        (Parser.to_text b.Gen.program))
    [ 0; 1; 5; 17; 99 ];
  let a = Gen.case ~seed:42 3 and b = Gen.case ~seed:43 3 in
  check "different seeds differ" false
    (Parser.to_text a.Gen.program = Parser.to_text b.Gen.program)

let test_gen_respects_qubit_ceiling () =
  List.iter
    (fun c ->
      check "within ceiling" true (Program.n_qubits c.Gen.program <= 4))
    (Gen.corpus ~max_qubits:4 ~seed:7 50)

(* --- Properties: round-trip printing over the corpus --- *)

let test_roundtrip_corpus () =
  List.iter
    (fun c ->
      match Properties.roundtrip ~params:c.Gen.params c.Gen.program with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "case %d (%s) round-trip: %s" c.Gen.id c.Gen.family
          f.Properties.detail)
    (Gen.corpus ~seed:11 60)

(* --- Runner: the fixed-seed corpus is clean on every pipeline --- *)

let test_corpus_clean () =
  let cfg =
    { (Runner.default_config ()) with Runner.cases = 40; seed = 42; out_dir = None }
  in
  let summary = Runner.run cfg in
  check_int "cases run" 40 summary.Runner.cases_run;
  check_int "no failures" 0 (Runner.failure_count summary);
  (* the deterministic part of two summaries of the same config agrees *)
  let digest (s : Runner.summary) =
    ( s.Runner.cases_run,
      List.map (fun (name, (ran, failed, _)) -> name, ran, failed) s.Runner.per_check )
  in
  let again = Runner.run cfg in
  check "deterministic summary" true (digest summary = digest again)

(* --- end to end: an injected miscompile is caught and shrunk --- *)

let flip_first_cnot circuit =
  let flipped = ref false in
  let gates =
    Array.map
      (fun g ->
        match g with
        | Gate.Cnot (c, t) when not !flipped ->
          flipped := true;
          Gate.Cnot (t, c)
        | g -> g)
      (Circuit.gates circuit)
  in
  if !flipped then Some (Circuit.of_gates (Circuit.n_qubits circuit) (Array.to_list gates))
  else None

let buggy_ft =
  {
    Properties.name = "buggy_ft";
    compile =
      (fun prog ->
        let run = Pipelines.ph (Config.ft ()) prog in
        match flip_first_cnot run.Pipelines.circuit with
        | Some circuit ->
          (* a new circuit needs its own verdict *)
          let verdict =
            lazy (Ph_verify.Pauli_frame.verify ~trace:run.Pipelines.rotations circuit)
          in
          { run with Pipelines.circuit; verdict }
        | None -> run);
  }

let test_injected_bug_caught_and_shrunk () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "ph-fuzz-test" in
  let cfg =
    {
      (Runner.default_config ()) with
      Runner.cases = 25;
      seed = 42;
      metamorphic = false;
      pipelines = [ buggy_ft ];
      out_dir = Some dir;
      dense_limit = 5;
    }
  in
  let summary = Runner.run cfg in
  check "bug detected" true (Runner.failure_count summary > 0);
  List.iter
    (fun (o : Runner.outcome) ->
      check
        (Printf.sprintf "case %d shrunk to <= 3 blocks" o.Runner.case.Gen.id)
        true
        (Program.block_count o.Runner.shrunk <= 3);
      (* the minimized program still triggers the bug *)
      let fails =
        Properties.check_pipeline ~dense_limit:5 buggy_ft o.Runner.shrunk
      in
      check "shrunk program still fails" true (fails <> []);
      match o.Runner.artifact with
      | None -> Alcotest.fail "expected an artifact"
      | Some path ->
        check "reproducer .pauli written" true (Sys.file_exists (path ^ ".pauli"));
        check "metadata .json written" true (Sys.file_exists (path ^ ".json"));
        (* the artifact parses back to the shrunk program *)
        let ic = open_in (path ^ ".pauli") in
        let src =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let params = Artifact.live_params o.Runner.shrunk o.Runner.case.Gen.params in
        check "artifact reparses to the reproducer" true
          (Properties.program_equal (Parser.parse ~params src) o.Runner.shrunk))
    summary.Runner.outcomes

(* --- Shrink: minimization on a hand-built predicate --- *)

let test_shrink_minimizes () =
  (* failure predicate: program mentions qubit 2 in any X term *)
  let has_x2 prog =
    List.exists
      (fun b ->
        List.exists
          (fun (t : Ph_pauli.Pauli_term.t) ->
            Ph_pauli.Pauli_string.get t.Ph_pauli.Pauli_term.str 2 = Ph_pauli.Pauli.X)
          (Block.terms b))
      (Program.blocks prog)
  in
  let prog =
    Parser.parse
      "{(ZZII, 1), 0.5};\n\
       {(IXXI, 1), (IIXX, 0.25), 0.25};\n\
       {(ZIIZ, 1), 0.125};\n"
  in
  check "predicate holds initially" true (has_x2 prog);
  let shrunk, stats = Shrink.minimize ~reproduces:has_x2 prog in
  check "still fails" true (has_x2 shrunk);
  check_int "one block left" 1 (Program.block_count shrunk);
  check_int "one term left" 1 (Program.term_count shrunk);
  check "attempts spent" true (stats.Shrink.attempts > 0)

let () =
  Alcotest.run "fuzz"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
        ] );
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "qubit ceiling" `Quick test_gen_respects_qubit_ceiling;
        ] );
      ( "properties",
        [ Alcotest.test_case "roundtrip corpus" `Quick test_roundtrip_corpus ] );
      ( "runner",
        [ Alcotest.test_case "seed-42 corpus clean" `Quick test_corpus_clean ] );
      ( "end_to_end",
        [
          Alcotest.test_case "injected bug caught and shrunk" `Quick
            test_injected_bug_caught_and_shrunk;
        ] );
      ( "shrink",
        [ Alcotest.test_case "minimizes" `Quick test_shrink_minimizes ] );
    ]
