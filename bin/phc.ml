(* phc: command-line front end of the Paulihedral compiler.

   Reads a textual Pauli IR program (see lib/pauli_ir/parser.mli and the
   examples/ directory for the concrete syntax), compiles it for the
   requested backend, certifies the result with the Pauli-frame verifier
   and prints metrics and (optionally) the gate sequence.

     phc input.pauli --backend sc --device manhattan --schedule do
     phc input.pauli --param dt=0.1 --print-circuit
     phc input.pauli --json        # bench-report record on stdout *)

open Paulihedral
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Option grammar (devices, schedules, config construction and naming)
   lives in Ph_serve.Protocol so the CLI and the serve daemon accept
   exactly the same vocabulary. *)
let parse_device = Ph_serve.Protocol.parse_device

let parse_param spec =
  match String.index_opt spec '=' with
  | Some i ->
    let name = String.sub spec 0 i in
    (try Ok (name, float_of_string (String.sub spec (i + 1) (String.length spec - i - 1)))
     with _ -> Error (`Msg "parameter binding needs name=float"))
  | None -> Error (`Msg "parameter binding needs name=float")

let schedule_of = Ph_serve.Protocol.schedule_of_string

let config_name backend device schedule =
  Ph_serve.Protocol.config_name ~backend ~device ~schedule

let config_for ?analyze ?gap_threshold ?sched_jobs ~backend ~device ~schedule
    ~lint ~window () =
  match
    Ph_serve.Protocol.config_for ?analyze ?gap_threshold ?sched_jobs ~backend
      ~device ~schedule ~lint ~window ()
  with
  | Ok config -> config
  | Error (`Msg m) -> failwith m

(* The prologue of compile, lint and analyze: read [file], parse it
   with the shared [Batch.parse], build the config (after parsing, so a
   parse error is reported first) and compile, handing the program and
   the output to [k].  Every failure is reported on stderr and exits 1;
   a compile that raises (a backend bug, say) is a compile-stage error,
   as `phc serve` and `phc batch` report it, never an uncaught
   exception. *)
let with_compile file ~params config k =
  match read_file file with
  | exception Sys_error m -> prerr_endline m; 1
  | source -> (
    match Ph_pool.Batch.parse ~params source with
    | Error m ->
      Printf.eprintf "parse error: %s\n" m;
      1
    | Ok program -> (
      match config () with
      | exception Failure m -> prerr_endline m; 1
      | config -> (
        match Compiler.compile config program with
        | exception e ->
          Printf.eprintf "compile error: %s\n" (Printexc.to_string e);
          1
        | out -> k program out)))

(* Lint findings go to stderr (stdout carries metrics / JSON); returns
   true when error-severity findings must fail the run. *)
let report_lint ~lint (out : Compiler.output) =
  let diags = out.Compiler.trace.Report.lint in
  List.iter (fun d -> prerr_endline (Lint.Diag.to_string d)) diags;
  lint = Lint.Diag.Error_level && Compiler.lint_errors out <> []

let run file backend device schedule window sched_jobs params print_circuit
    no_verify lint json normalize output analyze gap_threshold cert_out =
  with_compile file ~params
    (config_for ~analyze ~gap_threshold ~sched_jobs ~backend ~device ~schedule
       ~lint ~window)
  @@ fun program out ->
    let lint_failed = report_lint ~lint out in
    if json then begin
      (* same record schema as bench/main.exe --json, one object *)
      let record =
        Ph_pool.Batch.record ~name:(Filename.basename file)
          ~config_name:(config_name backend device schedule)
          program out.Compiler.metrics out.Compiler.trace
      in
      let record = if normalize then Report.normalize_record record else record in
      print_endline (Json.to_string ~indent:true (Report.record_to_json record))
    end
    else begin
      Printf.printf "program: %d qubits, %d blocks, %d Pauli strings\n"
        (Ph_pauli_ir.Program.n_qubits program)
        (Ph_pauli_ir.Program.block_count program)
        (Ph_pauli_ir.Program.term_count program);
      Printf.printf "compiled: %s\n"
        (Format.asprintf "%a" Report.pp_metrics out.Compiler.metrics);
      match out.Compiler.trace.Report.analysis with
      | Some s -> print_endline (Format.asprintf "%a" Analysis.Gap.pp s)
      | None -> ()
    end;
    (match cert_out with
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (Json.to_string ~indent:true
               (Analysis.Certificate.to_json out.Compiler.certificate));
          output_char oc '\n');
      if not json then Printf.printf "wrote certificate %s\n" path
    | None -> ());
    let ok = no_verify || Compiler.verified out in
    if not no_verify then
      if json then (
        if not ok then prerr_endline "verification FAILED")
      else Printf.printf "verified: %b\n" ok;
    if print_circuit then
      Array.iter
        (fun g -> print_endline (Ph_gatelevel.Gate.to_string g))
        (Ph_gatelevel.Circuit.gates out.Compiler.circuit);
    (match output with
    | Some path ->
      let oc = open_out path in
      Ph_gatelevel.Qasm.export_to_channel oc out.Compiler.circuit;
      close_out oc;
      if not json then Printf.printf "wrote %s\n" path
    | None -> ());
    if not ok then 2 else if lint_failed then 3 else 0

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Pauli IR source file.")

let backend_arg =
  Arg.(value & opt string "ft" & info [ "backend"; "b" ] ~docv:"BACKEND"
         ~doc:"Target backend: $(b,ft) (fault-tolerant, all-to-all) , $(b,sc) (superconducting, coupling-constrained) or $(b,it) (trapped-ion, native MS gates).")

let device_arg =
  Arg.(value & opt string "manhattan" & info [ "device"; "d" ] ~docv:"DEVICE"
         ~doc:"SC device: manhattan, melbourne, line:N or grid:RxC.")

let sched_conv =
  Arg.conv
    ( (fun s -> schedule_of s),
      fun fmt s ->
        Format.pp_print_string fmt
          (match s with
          | Config.Gco -> "gco"
          | Config.Depth_oriented -> "do"
          | Config.Max_overlap -> "maxov"
          | Config.Phoenix_like -> "phoenix"
          | Config.Program_order -> "none") )

let schedule_arg =
  Arg.(value & opt sched_conv Config.Gco & info [ "schedule"; "s" ] ~docv:"SCHEDULE"
         ~doc:"Block scheduling pass: $(b,gco), $(b,do), $(b,maxov), \
               $(b,phoenix) (high-level Pauli-IR optimizer; ft/sc only) or \
               $(b,none).")

let window_arg =
  Arg.(value & opt int Config.default_window & info [ "window"; "w" ] ~docv:"N"
         ~doc:"Scan window of the window-limited schedulers (do, maxov): each \
               leader/padding/chaining step considers at most $(docv) live \
               candidate blocks.  Recorded in the report trace as sched_window.")

let sched_jobs_arg =
  Arg.(value & opt int 1 & info [ "sched-jobs" ] ~docv:"N"
         ~doc:"Worker domains for the schedulers' candidate scans within one \
               compile (do, maxov).  Output-invariant: schedules, metrics and \
               perf counters are byte-identical at any value, so records can \
               be diffed across settings; does not affect cache keys.")

let param_conv =
  Arg.conv ((fun s -> parse_param s), fun fmt (n, v) -> Format.fprintf fmt "%s=%g" n v)

let params_arg =
  Arg.(value & opt_all param_conv [] & info [ "param"; "p" ] ~docv:"NAME=VALUE"
         ~doc:"Bind a symbolic block parameter (repeatable).")

let print_circuit_arg =
  Arg.(value & flag & info [ "print-circuit" ] ~doc:"Dump the gate sequence.")

let no_verify_arg =
  Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip Pauli-frame verification.")

let lint_conv =
  Arg.conv
    ( (fun s ->
        match Lint.Diag.level_of_string s with
        | Ok l -> Ok l
        | Error m -> Error (`Msg m)),
      fun fmt l -> Format.pp_print_string fmt (Lint.Diag.level_to_string l) )

let lint_arg =
  Arg.(
    value
    & opt ~vopt:Lint.Diag.Error_level lint_conv Lint.Diag.Off
    & info [ "lint" ] ~docv:"LEVEL"
        ~doc:
          "Run the per-stage IR verifier between every compile stage: $(b,off) \
           (default), $(b,warn) (report diagnostics on stderr) or $(b,error) \
           (additionally exit 3 when an error-severity diagnostic fires). \
           $(b,--lint) alone means $(b,--lint=error).")

let json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the compile as one bench-report JSON record (metrics plus \
               per-stage timings and pass counters) instead of the human-readable \
               summary.")

let normalize_arg =
  Arg.(value & flag & info [ "normalize" ]
         ~doc:"With $(b,--json): zero the wall-clock fields of the record \
               ($(i,Report.normalize_record)), making the output a pure \
               function of (source, options) — the bytes the serve daemon \
               answers with, so the two are directly diffable.")

let output_arg =
  Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
         ~doc:"Write the compiled circuit as OpenQASM 2.0.")

let analyze_arg =
  Arg.(value & flag & info [ "analyze" ]
         ~doc:"Run the whole-program static analyzer inside the compile: \
               commutation-graph lower bounds and optimality-gap diagnostics \
               (ANA001..ANA004) ride in the record trace and print after the \
               metrics.")

let gap_threshold_arg =
  Arg.(value & opt float Config.default_gap_threshold
       & info [ "gap-threshold" ] ~docv:"RATIO"
           ~doc:"Achieved/floor ratio above which the analyzer reports ANA003 \
                 as a warning instead of an ANA002 info.")

let cert_arg =
  Arg.(value & opt (some string) None & info [ "cert" ] ~docv:"FILE"
         ~doc:"Write the proof-carrying schedule certificate as JSON to \
               $(docv); validate later with $(b,phc analyze --check-cert).")

let compile_term =
  Term.(
    const run $ file_arg $ backend_arg $ device_arg $ schedule_arg $ window_arg
    $ sched_jobs_arg $ params_arg $ print_circuit_arg $ no_verify_arg $ lint_arg
    $ json_arg $ normalize_arg $ output_arg $ analyze_arg $ gap_threshold_arg
    $ cert_arg)

let compile_cmd =
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a Pauli IR source file (the default command).")
    compile_term

(* ---------- phc batch: pooled batch compilation with caching ---------- *)

let pp_metrics_no_time (m : Report.metrics) =
  Printf.sprintf "cnot=%d single=%d total=%d depth=%d" m.Report.cnot
    m.Report.single m.Report.total m.Report.depth

let run_batch files backend device schedule window sched_jobs params lint jobs
    cache_dir no_verify timings json_out =
  match
    if files = [] then Error (`Msg "batch: no input files")
    else if jobs < 1 then Error (`Msg "batch: --jobs must be positive")
    else
      try
        Ok (config_for ~sched_jobs ~backend ~device ~schedule ~lint ~window ())
      with Failure m -> Error (`Msg m)
  with
  | Error (`Msg m) ->
    prerr_endline m;
    1
  | Ok config ->
    let cache =
      Option.map (fun dir -> Ph_pool.Cache.create ~dir ()) cache_dir
    in
    let js =
      List.mapi
        (fun id file ->
          Ph_pool.Batch.job ~id ~name:(Filename.basename file) ~params
            (read_file file))
        files
    in
    let batch =
      Ph_pool.Batch.run ?cache ~jobs ~verify:(not no_verify) ~config
        ~config_name:(config_name backend device schedule)
        js
    in
    (* stdout is deterministic: per-job rows in submission order, then
       the cache counters — no wall clocks, no worker count. *)
    List.iter
      (fun (o : Ph_pool.Batch.outcome) ->
        match o.Ph_pool.Batch.result with
        | Ph_pool.Batch.Ok record ->
          Printf.printf "ok      %-28s %s%s\n" o.Ph_pool.Batch.job.Ph_pool.Batch.name
            (pp_metrics_no_time record.Report.metrics)
            (match o.Ph_pool.Batch.origin with
            | Ph_pool.Batch.Compiled -> ""
            | Ph_pool.Batch.From_cache -> "  [cache]"
            | Ph_pool.Batch.Coalesced -> "  [coalesced]")
        | Ph_pool.Batch.Failed f ->
          Printf.printf "failed  %-28s %s: %s\n"
            o.Ph_pool.Batch.job.Ph_pool.Batch.name f.stage f.message)
      batch.Ph_pool.Batch.outcomes;
    Option.iter
      (fun c -> print_endline (Ph_pool.Cache.summary c))
      batch.Ph_pool.Batch.cache_counters;
    let ok = Ph_pool.Batch.ok_count batch in
    let n_failed = List.length (Ph_pool.Batch.failed batch) in
    Printf.printf "result: %d ok, %d failed\n" ok n_failed;
    (* wall-clock telemetry goes to stderr, where nondeterminism is
       allowed *)
    let stats = batch.Ph_pool.Batch.stats in
    Printf.eprintf "batch: %d job(s), %d worker(s), %.2fs wall, cache hit rate %.0f%%\n"
      stats.Report.batch_jobs stats.Report.batch_workers stats.Report.batch_wall_s
      (100. *. Report.batch_hit_rate stats);
    (match json_out with
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (Json.to_string ~indent:true
               (Ph_pool.Batch.report_json ~timings batch));
          output_char oc '\n')
    | None -> ());
    if n_failed = 0 then 0 else 1

let batch_files_arg =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILES" ~doc:"Pauli IR source files (one job each).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains compiling jobs in parallel.  Results are merged \
           in submission order, so output is byte-identical to $(b,--jobs) \
           $(b,1).")

let cache_arg =
  Arg.(
    value & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Enable the on-disk compile-cache tier in $(docv) (created on \
           demand; one JSON file per content-addressed entry, written via \
           atomic rename).  Only verified compiles are stored.")

let batch_timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:
          "Include wall-clock data (per-job run and queue-wait times, batch \
           wall time, worker count, per-stage timings inside records) in the \
           JSON report.  Off by default so the report is deterministic: a \
           pure function of (sources, config, prior cache state).")

let batch_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"OUT"
        ~doc:"Write the batch report (records, cache counters, batch stats) \
              as JSON to $(docv).")

let batch_cmd =
  let doc =
    "compile many Pauli IR files as one fault-isolated batch: a fixed-size \
     domain worker pool pulls jobs from a shared queue, a content-addressed \
     cache (keyed by canonical program text, config fingerprint and compiler \
     version) answers repeated compiles, and per-job failures (parse, \
     compile, lint, verification) are reported without killing the batch; \
     exits 1 when any job failed"
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run_batch $ batch_files_arg $ backend_arg $ device_arg
      $ schedule_arg $ window_arg $ sched_jobs_arg $ params_arg $ lint_arg
      $ jobs_arg $ cache_arg $ no_verify_arg $ batch_timings_arg
      $ batch_json_arg)

(* ---------- phc lint: verify-each over the whole pipeline ---------- *)

let run_lint file backend device schedule params json =
  with_compile file ~params
    (config_for ~backend ~device ~schedule ~lint:Lint.Diag.Error_level
       ~window:Config.default_window)
  @@ fun program out ->
    let diags = out.Compiler.trace.Report.lint in
    let errors = Lint.Diag.errors diags in
    if json then
      print_endline
        (Json.to_string ~indent:true
           (Json.Obj
              [
                "file", Json.String (Filename.basename file);
                "config", Json.String (config_name backend device schedule);
                "qubits", Json.Int (Ph_pauli_ir.Program.n_qubits program);
                "paulis", Json.Int (Ph_pauli_ir.Program.term_count program);
                "errors", Json.Int (List.length errors);
                ( "warnings",
                  Json.Int (List.length (Lint.Diag.warnings diags)) );
                "lint_s", Json.Float out.Compiler.trace.Report.lint_s;
                "diagnostics", Json.List (List.map Lint.Diag.to_json diags);
              ]))
    else begin
      List.iter (fun d -> print_endline (Lint.Diag.to_string d)) diags;
      Printf.printf "%s: %d error(s), %d warning(s) [%s, %d qubits, %d strings]\n"
        (Filename.basename file) (List.length errors)
        (List.length (Lint.Diag.warnings diags))
        (config_name backend device schedule)
        (Ph_pauli_ir.Program.n_qubits program)
        (Ph_pauli_ir.Program.term_count program)
    end;
    if errors = [] then 0 else 3

let lint_cmd =
  let doc =
    "statically verify a Pauli IR source through the whole compile pipeline: \
     each stage boundary (IR, schedule, synthesis, hardware mapping, final \
     circuit) is checked against its invariants and findings are reported as \
     structured diagnostics; exits 3 when any error-severity diagnostic fires"
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const run_lint $ file_arg $ backend_arg $ device_arg $ schedule_arg
      $ params_arg $ json_arg)

(* ---------- phc analyze: static bounds, gaps, certificates ---------- *)

let run_analyze file backend device schedule window params gap_threshold lint
    json check_cert =
  with_compile file ~params
    (config_for ~analyze:true ~gap_threshold ~backend ~device ~schedule ~lint
       ~window)
  @@ fun program out ->
    let metrics = out.Compiler.metrics in
    (* under --schedule phoenix the certificate is over the optimizer's
       rewritten program, which the compile output carries *)
    let cert_program =
      Option.value out.Compiler.opt_program ~default:program
    in
    let check cert =
      Analysis.Certificate.check ~program:cert_program
        ~metrics:(metrics.Report.cnot, metrics.Report.single, metrics.Report.depth)
        cert
    in
    let cert_diags =
      match check_cert with
      | None -> check out.Compiler.certificate
      | Some path -> (
        match Analysis.Certificate.of_json (Json.parse (read_file path)) with
        | exception Sys_error m ->
          [ Lint.Diag.error ~code:"ANA010" Lint.Diag.Program_loc m ]
        | exception Json.Parse_error m ->
          [ Lint.Diag.error ~code:"ANA010" Lint.Diag.Program_loc
              (Printf.sprintf "%s: %s" path m) ]
        | cert -> check cert)
    in
    let trace =
      { out.Compiler.trace with
        Report.lint = out.Compiler.trace.Report.lint @ cert_diags }
    in
    let diags = trace.Report.lint in
    let errors = Lint.Diag.errors diags in
    if json then
      (* a one-element list of the normalized record — the exact shape
         bench/main.exe --json writes, so `bench history compare` can
         diff the gap counters of two analyze runs *)
      let record =
        Report.normalize_record
          (Ph_pool.Batch.record ~name:(Filename.basename file)
             ~config_name:(config_name backend device schedule)
             program metrics trace)
      in
      print_endline
        (Json.to_string ~indent:true (Json.List [ Report.record_to_json record ]))
    else begin
      List.iter (fun d -> print_endline (Lint.Diag.to_string d)) diags;
      (match trace.Report.analysis with
      | Some s -> print_endline (Format.asprintf "%a" Analysis.Gap.pp s)
      | None -> ());
      let cert = out.Compiler.certificate in
      Printf.printf "certificate: %s (%d layer(s), %d block(s), est depth %d)\n"
        (if cert_diags = [] then "ok" else "INVALID")
        (List.length cert.Analysis.Certificate.layers)
        cert.Analysis.Certificate.blocks
        cert.Analysis.Certificate.est_depth_total
    end;
    if errors = [] then 0 else 3

let check_cert_arg =
  Arg.(value & opt (some file) None & info [ "check-cert" ] ~docv:"FILE"
         ~doc:"Validate a previously saved certificate ($(b,phc compile \
               --cert)) against this program instead of the freshly emitted \
               one; any mismatch is reported as a stable ANA01x error.")

let analyze_cmd =
  let doc =
    "statically analyze a Pauli IR source: build the anti-commutation graph \
     of its effective rotations, derive sound lower bounds on depth and gate \
     counts, compare them with what one compile achieves (gap diagnostics \
     ANA001..ANA004), and validate the compile's proof-carrying schedule \
     certificate with the scheduler-independent checker; exits 3 when any \
     error-severity diagnostic fires"
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const run_analyze $ file_arg $ backend_arg $ device_arg $ schedule_arg
      $ window_arg $ params_arg $ gap_threshold_arg $ lint_arg $ json_arg
      $ check_cert_arg)

(* ---------- phc fuzz: differential fuzzing of all pipelines ---------- *)

let run_fuzz cases seed jobs backend device out_dir time_budget dense_limit
    max_qubits no_metamorphic json_out =
  let open Ph_fuzz in
  match
    let coupling =
      if device = "auto" then Ok None
      else Result.map Option.some (parse_device device)
    in
    Result.bind coupling (fun coupling ->
        match backend with
        | "all" -> Ok (coupling, Properties.default_pipelines ?coupling ())
        | "ft" -> Ok (coupling, Properties.ft_pipelines ())
        | "sc" -> Ok (coupling, Properties.sc_pipelines ?coupling ())
        | b ->
          Error (`Msg (Printf.sprintf "unknown backend %S (all | ft | sc)" b)))
  with
  | Error (`Msg m) ->
    prerr_endline m;
    1
  | Ok (coupling, pipelines) ->
    let max_qubits =
      match coupling with
      | Some c -> min max_qubits (Ph_hardware.Coupling.n_qubits c)
      | None -> max_qubits
    in
    let cfg =
      {
        (Runner.default_config ?coupling ()) with
        Runner.cases;
        seed;
        jobs = max 1 jobs;
        time_budget_s = time_budget;
        dense_limit;
        max_qubits;
        metamorphic = not no_metamorphic;
        pipelines;
        out_dir = (if out_dir = "" then None else Some out_dir);
      }
    in
    let summary = Runner.run ~log:prerr_endline cfg in
    if json_out then
      print_endline (Json.to_string ~indent:true (Runner.summary_to_json summary))
    else begin
      Runner.print_summary summary;
      Printf.eprintf "elapsed: %.2fs\n" summary.Runner.seconds
    end;
    if Runner.failure_count summary = 0 then 0 else 2

let cases_arg =
  Arg.(value & opt int 200 & info [ "cases"; "n" ] ~docv:"N"
         ~doc:"Number of generated programs.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Corpus seed; case $(i,i) of a seed is deterministic, so runs are \
               reproducible bit-for-bit.")

let fuzz_jobs_arg =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains evaluating cases in parallel.  Results merge on \
               the coordinator in case order (shrinking stays single-threaded), \
               so the summary and reproducer artifacts are byte-identical to a \
               sequential run.")

let fuzz_backend_arg =
  Arg.(value & opt string "all" & info [ "backend"; "b" ] ~docv:"BACKEND"
         ~doc:"Pipelines under test: $(b,all) (default), $(b,ft) \
               (ph_ft/ph_it/tk_ft/naive_ft) or $(b,sc) (ph_sc/tk_sc/naive_sc).")

let fuzz_device_arg =
  Arg.(value & opt string "auto" & info [ "device"; "d" ] ~docv:"DEVICE"
         ~doc:"SC device for the sc pipelines: $(b,auto) (a line sized to each \
               program, worst-case routing), or manhattan | melbourne | line:N | \
               grid:RxC.")

let out_arg =
  Arg.(value & opt string "fuzz-failures" & info [ "out" ] ~docv:"DIR"
         ~doc:"Directory for reproducer artifacts (empty string disables writing).")

let time_budget_arg =
  Arg.(value & opt float 0. & info [ "time-budget" ] ~docv:"SECONDS"
         ~doc:"Stop starting new cases after this many seconds (0 = no limit).")

let dense_limit_arg =
  Arg.(value & opt int 6 & info [ "dense-limit" ] ~docv:"QUBITS"
         ~doc:"Run the dense unitary oracle only up to this many qubits.")

let max_qubits_arg =
  Arg.(value & opt int 8 & info [ "max-qubits" ] ~docv:"QUBITS"
         ~doc:"Generator qubit ceiling (clamped to the device size).")

let no_metamorphic_arg =
  Arg.(value & flag & info [ "no-metamorphic" ]
         ~doc:"Skip the block-/term-permutation metamorphic checks.")

let fuzz_json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the summary (counters, timings, failures) as JSON on stdout.")

let fuzz_cmd =
  let doc =
    "differential fuzzing: seeded random Pauli IR programs through every \
     pipeline, certified by the Pauli-frame and dense-unitary oracles plus \
     metamorphic permutation checks; failures are delta-debugged to minimal \
     reproducers under fuzz-failures/"
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const run_fuzz $ cases_arg $ seed_arg $ fuzz_jobs_arg $ fuzz_backend_arg
      $ fuzz_device_arg $ out_arg $ time_budget_arg $ dense_limit_arg
      $ max_qubits_arg $ no_metamorphic_arg $ fuzz_json_arg)

(* ---------- phc serve: persistent compile daemon ---------- *)

let address_of ~socket ~host ~port =
  match socket with
  | Some path -> Ph_serve.Protocol.Unix_path path
  | None -> Ph_serve.Protocol.Tcp (host, port)

let run_serve socket host port jobs max_queue cache_dir =
  if jobs < 1 then begin
    prerr_endline "serve: --jobs must be positive";
    1
  end
  else begin
    let cache = Option.map (fun dir -> Ph_pool.Cache.create ~dir ()) cache_dir in
    let cfg =
      Ph_serve.Server.config ~jobs ~max_queue ?cache
        ~log:(fun m -> Printf.eprintf "phc serve: %s\n%!" m)
        (address_of ~socket ~host ~port)
    in
    match Ph_serve.Server.start cfg with
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "serve: cannot bind %s: %s\n"
        (Ph_serve.Protocol.address_to_string cfg.Ph_serve.Server.address)
        (Unix.error_message e);
      1
    | server ->
      Ph_serve.Server.install_signal_handlers server;
      Ph_serve.Server.wait server;
      0
  end

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Listen on (or connect to) a Unix-domain socket instead of TCP.")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
         ~doc:"TCP listen/connect address (numeric).")

let port_arg =
  Arg.(value & opt int 7411 & info [ "port" ] ~docv:"PORT"
         ~doc:"TCP port; 0 picks an ephemeral port (the daemon logs the \
               bound address).")

let max_queue_arg =
  Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N"
         ~doc:"Admission bound: compile jobs admitted but not yet answered. \
               At the bound new compile requests get a structured \
               $(b,overloaded) error immediately instead of queueing.")

let serve_cmd =
  let doc =
    "run the persistent compile daemon: a newline-delimited-JSON request/\
     response protocol over TCP or a Unix socket, a fixed pool of worker \
     domains behind bounded admission control (load is shed with structured \
     overloaded responses), and a compile cache that stays warm across \
     requests; SIGTERM/SIGINT drain gracefully — in-flight compiles finish, \
     final stats are logged, then the process exits 0"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ socket_arg $ host_arg $ port_arg $ jobs_arg
      $ max_queue_arg $ cache_arg)

(* ---------- phc bomb: load generator against a daemon ---------- *)

let run_bomb files socket host port backend device schedule window sched_jobs
    params lint no_verify clients rps duration save_dir =
  match
    if files = [] then Error "bomb: no input files"
    else if clients < 1 then Error "bomb: --clients must be positive"
    else if duration <= 0. then Error "bomb: --duration must be positive"
    else
      try
        Ok
          (List.map
             (fun file ->
               Ph_serve.Bomb.workload ~name:(Filename.basename file)
                 (Ph_serve.Protocol.compile_request
                    ~name:(Filename.basename file) ~backend ~device ~schedule
                    ~window ~sched_jobs ~lint ~verify:(not no_verify) ~params
                    (read_file file)))
             files)
      with Sys_error m -> Error m
  with
  | Error m ->
    prerr_endline m;
    1
  | Ok workloads -> (
    let address = address_of ~socket ~host ~port in
    match
      Ph_serve.Bomb.run ~address ~clients ~rps ~duration_s:duration
        ?save_dir workloads
    with
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "bomb: cannot reach %s: %s\n"
        (Ph_serve.Protocol.address_to_string address)
        (Unix.error_message e);
      1
    | summary ->
      Ph_serve.Bomb.print_summary stdout summary;
      if
        summary.Ph_serve.Bomb.failed = 0
        && summary.Ph_serve.Bomb.transport_errors = 0
        && summary.Ph_serve.Bomb.mismatches = 0
        && summary.Ph_serve.Bomb.ok > 0
      then 0
      else 1)

let clients_arg =
  Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N"
         ~doc:"Concurrent client connections.")

let rps_arg =
  Arg.(value & opt float 0. & info [ "rps" ] ~docv:"RATE"
         ~doc:"Aggregate request rate across all clients (0 = flat out).")

let duration_arg =
  Arg.(value & opt float 5. & info [ "duration" ] ~docv:"SECONDS"
         ~doc:"How long to fire requests.")

let save_arg =
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"DIR"
         ~doc:"Write each workload's first successful record to \
               $(docv)/<name>.json — the same bytes $(b,phc compile --json) \
               $(b,--normalize) prints, for byte-level diffing.")

let bomb_cmd =
  let doc =
    "load-test a running serve daemon: N client threads fire the given \
     Pauli IR files round-robin at a target rate, latencies are collected \
     per request, and the run fails if any response was a non-overload \
     error, any record differed between repeats of the same workload, or \
     any connection broke; prints throughput and p50/p95/p99 latency"
  in
  Cmd.v (Cmd.info "bomb" ~doc)
    Term.(
      const run_bomb $ batch_files_arg $ socket_arg $ host_arg $ port_arg
      $ backend_arg $ device_arg $ schedule_arg $ window_arg $ sched_jobs_arg
      $ params_arg $ lint_arg $ no_verify_arg $ clients_arg $ rps_arg
      $ duration_arg $ save_arg)

let cmd =
  let doc = "compile quantum simulation kernels with Paulihedral" in
  Cmd.group ~default:compile_term
    (Cmd.info "phc" ~version:"1.0" ~doc)
    [ compile_cmd; batch_cmd; lint_cmd; analyze_cmd; fuzz_cmd; serve_cmd; bomb_cmd ]

(* `phc input.pauli` (no sub-command) must keep working: route a leading
   positional that is not a sub-command name through `compile`. *)
let () =
  let argv = Sys.argv in
  let argv =
    if
      Array.length argv > 1
      &&
      match argv.(1) with
      | "fuzz" | "compile" | "lint" | "analyze" | "batch" | "serve" | "bomb" -> false
      | s -> String.length s > 0 && s.[0] <> '-'
    then Array.append [| argv.(0); "compile" |] (Array.sub argv 1 (Array.length argv - 1))
    else argv
  in
  exit (Cmd.eval' ~argv cmd)
