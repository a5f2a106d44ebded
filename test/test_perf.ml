(* Tests of lib/perf: the deterministic work-counter snapshots (same
   input compiled twice, --jobs 1 vs --jobs 4, warm- vs cold-cache
   batch runs must all be byte-identical), the CSV history db
   (round-trip, append, merge ordering) and the regression gate
   (passes on identical rows, fails on a perturbed gated counter,
   ignores perturbed ungated counters). *)

open Paulihedral
open Ph_pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- counter determinism --- *)

let compile_once () =
  let b = List.hd (Ph_benchmarks.Suite.ft ()) in
  let prog = b.Ph_benchmarks.Suite.generate () in
  Compiler.compile (Config.ft ~schedule:Config.Depth_oriented ()) prog

let perf_string (perf : (string * int) list) =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) perf)

let test_compile_twice_identical () =
  let p1 = (compile_once ()).Compiler.trace.Report.perf in
  let p2 = (compile_once ()).Compiler.trace.Report.perf in
  check_str "same input -> byte-identical snapshot" (perf_string p1)
    (perf_string p2);
  check "kernel counters are live" true (List.assoc "pauli_overlap" p1 > 0);
  check "scheduler counters are live" true
    (List.assoc "sched_padding_probes" p1 > 0);
  check "builder counter is live" true
    (List.assoc "circuit_gates_built" p1 > 0);
  check "allocation words are live" true
    (List.assoc "alloc_schedule_words" p1 > 0);
  check "cache counters stay out of compile scope" true
    (not (List.mem_assoc "cache_probes" p1))

(* --- --sched-jobs byte-identity --- *)

let sched_jobs_record prog sched_jobs =
  let out =
    Compiler.compile
      (Config.ft ~schedule:Config.Depth_oriented ~sched_jobs ())
      prog
  in
  let r =
    {
      Report.bench = "sched-jobs";
      config = "ft/do";
      qubits = Ph_pauli_ir.Program.n_qubits prog;
      paulis = Ph_pauli_ir.Program.term_count prog;
      metrics = out.Compiler.metrics;
      trace = out.Compiler.trace;
    }
  in
  Ph_json.to_string (Report.record_to_json (Report.normalize_record r))

(* The whole normalized record — metrics, trace, and every perf counter
   — must be byte-identical whatever the scan parallelism was.  MgO
   (28 qubits, one plane word) never crosses the parallel-dispatch work
   threshold, so it checks only the sequential gate; the 256-qubit
   random program dispatches on most leader scans, so it checks that a
   dispatch (and the first one, which would spawn the worker domains)
   leaves no trace in the record — allocation words included. *)
let test_sched_jobs_identical () =
  List.iter
    (fun (name, prog) ->
      let base = sched_jobs_record prog 1 in
      List.iter
        (fun jobs ->
          check_str
            (Printf.sprintf "%s: --sched-jobs %d record byte-identical" name
               jobs)
            base (sched_jobs_record prog jobs))
        [ 4; 8 ])
    [
      "MgO", (Ph_benchmarks.Suite.find "MgO").Ph_benchmarks.Suite.generate ();
      ( "random-256",
        Ph_benchmarks.Random_h.program ~seed:556 ~density:0.046 ~n_qubits:256
          () );
    ]

(* Byte-identity alone cannot tell a parallel scan from a sequential
   fallback.  sched_par_scans is process-scoped, outside the compile
   snapshot, so it proves that this wide, dense workload really
   dispatches to the worker team without perturbing any record, and the
   schedule must still match the sequential one exactly. *)
let test_sched_jobs_parallel_engages () =
  let prog =
    Ph_benchmarks.Random_h.program ~seed:556 ~density:0.046 ~n_qubits:256 ()
  in
  let seq = Ph_schedule.Depth_oriented.schedule ~jobs:1 prog in
  let before = List.assoc "sched_par_scans" (Ph_perf.Counter.totals_assoc ()) in
  let par = Ph_schedule.Depth_oriented.schedule ~jobs:4 prog in
  let after = List.assoc "sched_par_scans" (Ph_perf.Counter.totals_assoc ()) in
  check "parallel scans actually ran" true (after > before);
  check "parallel schedule equals sequential" true (seq = par)

let corpus () =
  [
    "heis", "{(XX, 1.0), 0.5};\n{(YY, 1.0), 0.5};\n{(ZZ, 1.0), 0.5};\n", [];
    "pair", "{(XXI, 1.0), (IZZ, -0.5), 0.5};\n{(ZZZ, 1.0), 0.25};\n", [];
    "single", "{(XYZI, 0.5), (IIZZ, -1.0), 1.0};\n", [];
  ]

let jobs_of corpus =
  List.mapi (fun id (name, source, params) -> Batch.job ~id ~name ~params source)
    corpus

let batch_rows ~commit batch =
  List.filter_map
    (fun (o : Batch.outcome) ->
      match o.Batch.result with
      | Batch.Ok r -> Some (Report.perf_rows ~commit (Report.normalize_record r))
      | Batch.Failed _ -> None)
    batch.Batch.outcomes
  |> List.concat

let rows_string rows = Ph_perf.Db.to_string rows

let test_jobs_1_vs_4_identical () =
  let config = Config.ft () in
  let run jobs =
    Batch.run ~jobs ~config ~config_name:"ft/do" (jobs_of (corpus ()))
  in
  let seq = run 1 and par = run 4 in
  check_int "all jobs ok" (List.length (corpus ())) (Batch.ok_count seq);
  check_str "--jobs 1 and --jobs 4 rows byte-identical"
    (rows_string (batch_rows ~commit:"x" seq))
    (rows_string (batch_rows ~commit:"x" par))

let test_warm_vs_cold_cache_identical () =
  let cache = Cache.create () in
  let config = Config.ft () in
  let run () =
    Batch.run ~cache ~jobs:2 ~config ~config_name:"ft/do" (jobs_of (corpus ()))
  in
  let cold = run () in
  let warm = run () in
  check "warm run is fully cache-served" true
    (List.for_all
       (fun (o : Batch.outcome) -> o.Batch.origin = Batch.From_cache)
       warm.Batch.outcomes);
  check_str "warm rows byte-identical to cold"
    (rows_string (batch_rows ~commit:"x" cold))
    (rows_string (batch_rows ~commit:"x" warm))

(* --- Report JSON codec --- *)

let test_record_json_round_trip () =
  let out = compile_once () in
  let record =
    {
      Report.bench = "rt";
      config = "rt/PH";
      qubits = 4;
      paulis = 4;
      metrics = out.Compiler.metrics;
      trace = out.Compiler.trace;
    }
  in
  let round = Report.record_of_json (Report.record_to_json record) in
  check_str "perf survives the JSON round trip"
    (perf_string record.Report.trace.Report.perf)
    (perf_string round.Report.trace.Report.perf);
  check "normalize keeps perf" true
    ((Report.normalize_record record).Report.trace.Report.perf
    = record.Report.trace.Report.perf);
  (* pre-perf reports (PR <= 6) have no "perf" member *)
  let old =
    Json.parse
      {|{"bench":"b","config":"c","qubits":1,"paulis":1,
         "cnot":1,"single":0,"total":1,"depth":1,"seconds":0.0,
         "trace":{"schedule_s":0.0,"synthesis_s":0.0,"swap_decompose_s":0.0,
                  "peephole_s":0.0,
                  "counters":{"sched_layers":1,"sched_padded":0,"sc_swaps":0,
                              "peephole_removed":0,"peephole_rounds":0}}}|}
  in
  check "old JSON still parses, perf defaults to []" true
    ((Report.record_of_json old).Report.trace.Report.perf = [])

(* Records and cache payloads written before the per-stage heap deltas
   were dropped carry a "gc" object in their trace, in exactly this
   shape.  They must still load, and re-serialize without it. *)
let legacy_gc =
  Json.parse
    {|{"opt": {"minor_words": 0.0, "major_words": 0.0, "major_collections": 0},
       "schedule": {"minor_words": 18462.0, "major_words": 1204.0, "major_collections": 1},
       "synthesis": {"minor_words": 9311.0, "major_words": 0.0, "major_collections": 0},
       "swap_decompose": {"minor_words": 0.0, "major_words": 0.0, "major_collections": 0},
       "peephole": {"minor_words": 2270.0, "major_words": 0.0, "major_collections": 0},
       "lint": {"minor_words": 0.0, "major_words": 0.0, "major_collections": 0}}|}

let with_legacy_gc = function
  | Json.Obj fields ->
    let trace = function
      | Json.Obj t ->
        Json.Obj
          (List.concat_map
             (fun (k, v) -> if k = "perf" then [ "gc", legacy_gc; k, v ] else [ k, v ])
             t)
      | j -> j
    in
    Json.Obj (List.map (fun (k, v) -> k, if k = "trace" then trace v else v) fields)
  | j -> j

let test_legacy_gc_member () =
  let out = compile_once () in
  let record =
    {
      Report.bench = "legacy";
      config = "legacy/PH";
      qubits = 4;
      paulis = 4;
      metrics = out.Compiler.metrics;
      trace = out.Compiler.trace;
    }
  in
  let fresh = Json.to_string (Report.record_to_json record) in
  check_str "fresh record round-trips" fresh
    (Json.to_string (Report.record_to_json (Report.record_of_json (Json.parse fresh))));
  let old = with_legacy_gc (Report.record_to_json record) in
  check "legacy record carries gc" true
    (Option.bind (Json.member "trace" old) (Json.member "gc") <> None);
  check_str "legacy record loads and drops gc" fresh
    (Json.to_string (Report.record_to_json (Report.record_of_json old)));
  let payload = Json.Obj [ "verified", Json.Bool true; "record", old ] in
  match Batch.record_of_payload payload with
  | None -> Alcotest.fail "legacy cache payload rejected"
  | Some r ->
    check_str "legacy payload re-serializes without gc"
      (Json.to_string (Batch.payload_of_record record))
      (Json.to_string (Batch.payload_of_record r))

(* --- Db --- *)

let mk ?(commit = "c1") ?(bench = "b") ?(config = "cfg") counter value =
  { Ph_perf.Db.commit; bench; config; counter; value }

let test_db_round_trip () =
  let rows = [ mk "cnot" 12; mk ~bench:"b2" "cnot" 7; mk "depth" 3 ] in
  check "to_string/of_string round-trips" true
    (Ph_perf.Db.of_string (Ph_perf.Db.to_string rows) = rows);
  check "header tolerated mid-stream" true
    (Ph_perf.Db.of_string
       (Ph_perf.Db.to_string rows ^ Ph_perf.Db.to_string rows)
    = rows @ rows);
  (match Ph_perf.Db.of_string "a,b,c\n" with
  | exception Ph_perf.Db.Malformed _ -> ()
  | _ -> Alcotest.fail "short line must raise Malformed");
  match Ph_perf.Db.row_to_line (mk "bad,name" 1) with
  | exception Ph_perf.Db.Malformed _ -> ()
  | _ -> Alcotest.fail "separator in field must raise Malformed"

let test_db_append_and_load () =
  let path = Filename.temp_file "ph_perf" ".csv" in
  Sys.remove path;
  Ph_perf.Db.append path [ mk "cnot" 1 ];
  Ph_perf.Db.append path [ mk ~commit:"c2" "cnot" 2 ];
  let db = Ph_perf.Db.load path in
  Sys.remove path;
  check_int "both appends present" 2 (List.length db);
  Alcotest.(check (list string))
    "commits in first-appearance order" [ "c1"; "c2" ]
    (Ph_perf.Db.commits db);
  check "missing file loads as empty" true (Ph_perf.Db.load "/nonexistent" = [])

let test_db_merge_ordering () =
  let a = [ mk "cnot" 1; mk "depth" 2; mk ~commit:"c2" "cnot" 5 ] in
  let b = [ mk "depth" 9; mk ~commit:"c3" "cnot" 7 ] in
  let merged = Ph_perf.Db.merge a b in
  Alcotest.(check (list string))
    "later db wins in place, new keys append"
    [ "c1/cnot/1"; "c1/depth/9"; "c2/cnot/5"; "c3/cnot/7" ]
    (List.map
       (fun (r : Ph_perf.Db.row) ->
         Printf.sprintf "%s/%s/%d" r.commit r.counter r.value)
       merged)

(* --- gate --- *)

let gate_rows commit scale =
  (* a small synthetic record set; [scale] perturbs one gated counter *)
  [
    mk ~commit ~bench:"b1" "cnot" 100;
    mk ~commit ~bench:"b1" "pauli_overlap" (int_of_float (1000. *. scale));
    mk ~commit ~bench:"b1" "alloc_schedule_words" 5000;
    mk ~commit ~bench:"b2" "cnot" 40;
    mk ~commit ~bench:"b2" "pauli_overlap" (int_of_float (400. *. scale));
    mk ~commit ~bench:"b2" "alloc_schedule_words" 800;
  ]

let failures ~baseline ~candidate =
  (Ph_perf.History.gate ~threshold:2. ~baseline ~candidate)
    .Ph_perf.History.failures

let test_gate_passes_on_identical () =
  check_int "identical rows pass" 0
    (List.length
       (failures ~baseline:(gate_rows "a" 1.) ~candidate:(gate_rows "b" 1.)))

let test_gate_fails_on_perturbed_row () =
  match failures ~baseline:(gate_rows "a" 1.) ~candidate:(gate_rows "b" 1.05) with
  | [ s ] ->
    check_str "perturbed counter named" "pauli_overlap"
      s.Ph_perf.History.counter;
    check "ratio reported" true (s.Ph_perf.History.ratio > 1.02)
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs)

let test_gate_ignores_ungated_counters () =
  let candidate =
    List.map
      (fun (r : Ph_perf.Db.row) ->
        if r.counter = "alloc_schedule_words" then
          { r with Ph_perf.Db.value = r.value * 2 }
        else r)
      (gate_rows "b" 1.)
  in
  let r = Ph_perf.History.gate ~threshold:2. ~baseline:(gate_rows "a" 1.) ~candidate in
  check_int "alloc_* growth never fails the gate" 0
    (List.length r.Ph_perf.History.failures);
  check "but it is reported" true
    (List.exists
       (fun (s : Ph_perf.History.summary) -> s.counter = "alloc_schedule_words")
       r.Ph_perf.History.ungated_regressions)

let test_gate_skips_zero_cells () =
  let baseline = mk ~bench:"bz" "pauli_overlap" 0 :: gate_rows "a" 1. in
  let candidate = mk ~commit:"b" ~bench:"bz" "pauli_overlap" 999 :: gate_rows "b" 1. in
  let r = Ph_perf.History.gate ~threshold:2. ~baseline ~candidate in
  check_int "zero cell never fails the gate" 0
    (List.length r.Ph_perf.History.failures);
  let s =
    List.find
      (fun (s : Ph_perf.History.summary) -> s.counter = "pauli_overlap")
      r.Ph_perf.History.summaries
  in
  check_int "and is counted as skipped" 1 s.Ph_perf.History.skipped

(* --- trajectories --- *)

let test_trajectory_and_sparkline () =
  let db =
    [
      mk ~commit:"c1" "cnot" 100;
      mk ~commit:"c2" "cnot" 80;
      mk ~commit:"c3" "depth" 5;
      mk ~commit:"c3" "cnot" 160;
    ]
  in
  (match Ph_perf.History.trajectory db "cnot" with
  | [ ("c1", Some v1); ("c2", Some v2); ("c3", Some v3) ] ->
    let near a b = abs_float (a -. b) < 1e-9 *. b in
    check "values tracked" true (near v1 100. && near v2 80. && near v3 160.)
  | _ -> Alcotest.fail "unexpected trajectory shape");
  (match Ph_perf.History.trajectory db "depth" with
  | [ ("c1", None); ("c2", None); ("c3", Some v) ] when abs_float (v -. 5.) < 1e-9
    -> ()
  | _ -> Alcotest.fail "absent commits must be None");
  let spark = Ph_perf.History.sparkline [ Some 1.; None; Some 10. ] in
  check_int "one char per point" 3 (String.length spark);
  check "absent point marked" true (spark.[1] = '?');
  check "min below max" true (spark.[0] < spark.[2])

let test_counter_totals_monotone () =
  let before = List.assoc "pauli_overlap" (Ph_perf.Counter.totals_assoc ()) in
  ignore (compile_once ());
  let after = List.assoc "pauli_overlap" (Ph_perf.Counter.totals_assoc ()) in
  check "process totals grow across compiles" true (after > before)

let () =
  Alcotest.run "perf"
    [
      ( "determinism",
        [
          Alcotest.test_case "same input twice" `Quick
            test_compile_twice_identical;
          Alcotest.test_case "--sched-jobs 1/4/8 byte-identical" `Quick
            test_sched_jobs_identical;
          Alcotest.test_case "parallel scan engages and matches" `Quick
            test_sched_jobs_parallel_engages;
          Alcotest.test_case "--jobs 1 vs --jobs 4" `Quick
            test_jobs_1_vs_4_identical;
          Alcotest.test_case "warm vs cold cache" `Quick
            test_warm_vs_cold_cache_identical;
          Alcotest.test_case "legacy gc member ignored" `Quick
            test_legacy_gc_member;
          Alcotest.test_case "json round trip + old json" `Quick
            test_record_json_round_trip;
        ] );
      ( "db",
        [
          Alcotest.test_case "round trip" `Quick test_db_round_trip;
          Alcotest.test_case "append and load" `Quick test_db_append_and_load;
          Alcotest.test_case "merge ordering" `Quick test_db_merge_ordering;
        ] );
      ( "gate",
        [
          Alcotest.test_case "passes on identical rows" `Quick
            test_gate_passes_on_identical;
          Alcotest.test_case "fails on perturbed gated row" `Quick
            test_gate_fails_on_perturbed_row;
          Alcotest.test_case "ignores ungated counters" `Quick
            test_gate_ignores_ungated_counters;
          Alcotest.test_case "skips zero cells" `Quick
            test_gate_skips_zero_cells;
        ] );
      ( "trajectories",
        [
          Alcotest.test_case "trajectory and sparkline" `Quick
            test_trajectory_and_sparkline;
          Alcotest.test_case "totals monotone" `Quick
            test_counter_totals_monotone;
        ] );
    ]
