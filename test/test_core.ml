open Paulihedral
open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let term s w = Pauli_term.make (Pauli_string.of_string s) w

let sample_program =
  Program.make 4
    [
      Block.make [ term "ZZII" 1.0 ] (Block.fixed 0.3);
      Block.make [ term "IIZZ" 0.5; term "IIXX" 0.2 ] (Block.fixed 0.3);
      Block.make [ term "XIIX" 0.7 ] (Block.fixed 0.3);
    ]

(* --- Report --- *)

let test_report_metrics () =
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1); Gate.Swap (0, 1) ] in
  let m = Report.of_circuit c in
  check_int "cnot (swap=3)" 4 m.Report.cnot;
  check_int "single" 1 m.Report.single;
  check_int "total" 5 m.Report.total

(* The one-walk [Report.of_circuit] against the three metric functions
   it replaces: table-2 FT and SC compiles, ion-trap (Rxx) compiles and
   a random circuit with undecomposed SWAPs. *)
let test_report_metrics_one_walk () =
  let same name c =
    let m = Report.of_circuit c in
    check_int (name ^ " cnot") (Circuit.cnot_count c) m.Report.cnot;
    check_int (name ^ " single") (Circuit.single_qubit_count c) m.Report.single;
    check_int (name ^ " total") (Circuit.total_count c) m.Report.total;
    check_int (name ^ " depth") (Circuit.depth c) m.Report.depth
  in
  let compiled config (b : Ph_benchmarks.Suite.t) =
    same b.Ph_benchmarks.Suite.name
      (Compiler.compile config (b.Ph_benchmarks.Suite.generate ())).Compiler.circuit
  in
  List.iter (compiled (Config.ft ())) (Ph_benchmarks.Suite.ft ());
  List.iter
    (compiled (Config.sc Devices.manhattan))
    (List.filteri (fun i _ -> i < 4) (Ph_benchmarks.Suite.sc ()));
  List.iter
    (compiled (Config.ion_trap ()))
    (List.filteri (fun i _ -> i < 4) (Ph_benchmarks.Suite.ft ()));
  let st = Random.State.make [| 5 |] in
  let gates =
    List.init 400 (fun _ ->
        let a = Random.State.int st 6 in
        let b = (a + 1 + Random.State.int st 5) mod 6 in
        match Random.State.int st 5 with
        | 0 -> Gate.Swap (a, b)
        | 1 -> Gate.Cnot (a, b)
        | 2 -> Gate.Rxx (0.3, a, b)
        | 3 -> Gate.Rz (0.1, a)
        | _ -> Gate.H a)
  in
  same "random with swaps" (Circuit.of_gates 6 gates);
  same "empty" (Circuit.empty 3)

let test_report_helpers () =
  Alcotest.(check (float 1e-9)) "delta" (-50.) (Report.delta 100 50);
  check "delta of zero is nan" true (Float.is_nan (Report.delta 0 5));
  Alcotest.(check (float 1e-9)) "geomean" 2. (Report.geomean [ 1.; 4. ]);
  let r, dt = Report.timed (fun () -> 42) in
  check_int "timed result" 42 r;
  check "time non-negative" true (dt >= 0.)

(* --- Json --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        "name", Json.String "bench";
        "count", Json.Int 42;
        "ratio", Json.Float 0.125;
        "flag", Json.Bool true;
        "nothing", Json.Null;
        "items", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x"; Json.Bool false ];
        "empty_list", Json.List [];
        "empty_obj", Json.Obj [];
      ]
  in
  check "compact roundtrip" true (Json.parse (Json.to_string v) = v);
  check "indented roundtrip" true (Json.parse (Json.to_string ~indent:true v) = v);
  (* Float survives as Float even when integral-valued *)
  check "integral float stays float" true
    (Json.parse (Json.to_string (Json.Float 3.)) = Json.Float 3.)

let test_json_escapes () =
  let s = "quote\" backslash\\ newline\n tab\t ctrl\x01 end" in
  let encoded = Json.to_string (Json.String s) in
  Alcotest.(check string) "escaped encoding"
    "\"quote\\\" backslash\\\\ newline\\n tab\\t ctrl\\u0001 end\"" encoded;
  check "escape roundtrip" true (Json.parse encoded = Json.String s);
  check "non-finite floats encode as null" true
    (Json.to_string (Json.Float Float.nan) = "null"
    && Json.to_string (Json.Float infinity) = "null")

let test_json_parse_errors () =
  let fails s =
    match Json.parse s with exception Json.Parse_error _ -> true | _ -> false
  in
  check "truncated object" true (fails "{\"a\": 1");
  check "trailing garbage" true (fails "[1, 2] x");
  check "bare word" true (fails "flase")

let test_record_roundtrip () =
  let out = Compiler.compile (Config.ft ()) sample_program in
  let r =
    {
      Report.bench = "sample";
      config = "ft/gco";
      qubits = Program.n_qubits sample_program;
      paulis = Program.term_count sample_program;
      metrics = out.Compiler.metrics;
      trace = out.Compiler.trace;
    }
  in
  let r' = Report.record_of_json (Json.parse (Json.to_string ~indent:true (Report.record_to_json r))) in
  check "bench/config survive" true (r'.Report.bench = r.Report.bench && r'.Report.config = r.Report.config);
  check "counters survive" true (r'.Report.trace.Report.counters = r.Report.trace.Report.counters);
  check_int "total survives" r.Report.metrics.Report.total r'.Report.metrics.Report.total

(* --- Compiler --- *)

let test_compile_ft () =
  let out = Compiler.compile (Config.ft ()) sample_program in
  check_int "all rotations" 4 (List.length out.Compiler.rotations);
  check "no layouts on FT" true (out.Compiler.initial_layout = None);
  check "verified" true
    (Ph_verify.Pauli_frame.verify out.Compiler.circuit ~trace:out.Compiler.rotations)

let test_compile_sc () =
  let out = Compiler.compile (Config.sc (Devices.line 5)) sample_program in
  check "layout present" true (out.Compiler.initial_layout <> None);
  check "swaps decomposed" true
    (Array.for_all
       (function Gate.Swap _ -> false | _ -> true)
       (Circuit.gates out.Compiler.circuit));
  check "verified" true
    (Ph_verify.Pauli_frame.verify out.Compiler.circuit
       ~trace:out.Compiler.rotations
       ~layouts:
         (Option.get out.Compiler.initial_layout, Option.get out.Compiler.final_layout))

let test_compile_schedules_differ () =
  let compile schedule = Compiler.compile (Config.ft ~schedule ()) sample_program in
  let gco = compile Config.Gco in
  let dord = compile Config.Depth_oriented in
  let po = compile Config.Program_order in
  check "all verified" true
    (List.for_all
       (fun (o : Compiler.output) ->
         Ph_verify.Pauli_frame.verify o.circuit ~trace:o.rotations)
       [ gco; dord; po ])

let test_peephole_toggle () =
  let on = Compiler.compile (Config.ft ()) sample_program in
  let off = Compiler.compile { (Config.ft ()) with Config.peephole = false } sample_program in
  check "peephole never increases gates" true
    (on.Compiler.metrics.Report.total <= off.Compiler.metrics.Report.total)

let test_compile_trace () =
  let cfg = Config.ft ~schedule:Config.Depth_oriented () in
  let out = Compiler.compile cfg sample_program in
  let t = out.Compiler.trace in
  check "stage timings non-negative" true
    (t.Report.schedule_s >= 0.
    && t.Report.synthesis_s >= 0.
    && t.Report.swap_decompose_s >= 0.
    && t.Report.peephole_s >= 0.);
  let c = t.Report.counters in
  (* DO places every block exactly once: one leader per layer, the rest
     as padding *)
  check "layers formed" true (c.Report.sched_layers > 0);
  check_int "leaders + padded cover the program"
    (Program.block_count sample_program)
    (c.Report.sched_layers + c.Report.sched_padded);
  check "peephole ran to fixpoint" true (c.Report.peephole_rounds >= 1);
  check_int "no SWAPs on FT" 0 c.Report.sc_swaps;
  let off = Compiler.compile { cfg with Config.peephole = false } sample_program in
  check_int "peephole removed = gate-count delta"
    (off.Compiler.metrics.Report.total - out.Compiler.metrics.Report.total)
    c.Report.peephole_removed;
  check_int "peephole off reports no removals" 0
    off.Compiler.trace.Report.counters.Report.peephole_removed

let test_compile_trace_sc () =
  let out = Compiler.compile (Config.sc (Devices.line 5)) sample_program in
  let c = out.Compiler.trace.Report.counters in
  check "sc swap counter populated" true (c.Report.sc_swaps >= 0);
  check "layers formed" true (c.Report.sched_layers > 0)

(* --- Pipelines --- *)

let all_ft_pipelines =
  [
    "ph", Pipelines.ph (Config.ft ());
    "tk-pairwise", Pipelines.tk_ft ?strategy:None;
    "tk-sets", Pipelines.tk_ft ~strategy:`Sets;
    "naive", Pipelines.naive_ft;
  ]

let test_pipelines_ft_verified () =
  List.iter
    (fun (name, pipe) ->
      let run = pipe sample_program in
      check (name ^ " verified") true (Pipelines.verified run);
      check (name ^ " has rotations") true (run.Pipelines.rotations <> []))
    all_ft_pipelines

let test_pipelines_sc_verified () =
  let dev = Devices.grid 2 3 in
  List.iter
    (fun (name, run) ->
      check (name ^ " verified") true (Pipelines.verified run))
    [
      "ph", Pipelines.ph (Config.sc dev) sample_program;
      "tk", Pipelines.tk_sc dev sample_program;
      "naive", Pipelines.naive_sc dev sample_program;
    ]

let test_pipeline_qaoa () =
  let prog =
    Program.make 4
      [
        Block.make
          [ term "IIZZ" 1.0; term "ZZII" 1.0; term "ZIIZ" 1.0 ]
          (Block.symbolic "gamma" 0.4);
      ]
  in
  let run = Pipelines.qaoa_sc (Devices.line 4) prog in
  check "qaoa pipeline verified" true (Pipelines.verified run);
  check_int "three rotations" 3 (List.length run.Pipelines.rotations)

let test_pipelines_on_manhattan_uccsd () =
  let prog = Ph_benchmarks.Uccsd.ansatz ~n_qubits:8 () in
  let ph = Pipelines.ph (Config.sc Devices.manhattan) prog in
  let naive = Pipelines.naive_sc Devices.manhattan prog in
  check "ph verified" true (Pipelines.verified ph);
  check "naive verified" true (Pipelines.verified naive);
  check
    (Printf.sprintf "ph beats naive on cnots (%d < %d)" ph.Pipelines.metrics.Report.cnot
       naive.Pipelines.metrics.Report.cnot)
    true
    (ph.Pipelines.metrics.Report.cnot < naive.Pipelines.metrics.Report.cnot)

let () =
  Alcotest.run "core"
    [
      ( "report",
        [
          Alcotest.test_case "metrics" `Quick test_report_metrics;
          Alcotest.test_case "metrics in one walk" `Quick test_report_metrics_one_walk;
          Alcotest.test_case "helpers" `Quick test_report_helpers;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "ft" `Quick test_compile_ft;
          Alcotest.test_case "sc" `Quick test_compile_sc;
          Alcotest.test_case "schedules" `Quick test_compile_schedules_differ;
          Alcotest.test_case "peephole toggle" `Quick test_peephole_toggle;
          Alcotest.test_case "trace telemetry" `Quick test_compile_trace;
          Alcotest.test_case "trace telemetry (sc)" `Quick test_compile_trace_sc;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "ft verified" `Quick test_pipelines_ft_verified;
          Alcotest.test_case "sc verified" `Quick test_pipelines_sc_verified;
          Alcotest.test_case "qaoa pipeline" `Quick test_pipeline_qaoa;
          Alcotest.test_case "uccsd on manhattan" `Quick test_pipelines_on_manhattan_uccsd;
        ] );
    ]
