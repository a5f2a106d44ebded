(* Tests for lib/lint: every documented diagnostic code has a broken
   input that triggers it, the whole benchmark suite compiles lint-clean
   at error level under FT and SC, and an injected coupling-map
   violation is reported with its gate-level location. *)

open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware
open Ph_benchmarks
open Ph_lint
open Paulihedral

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let block ?(param = Block.fixed 0.1) strs =
  Block.make
    (List.map (fun (s, c) -> Pauli_term.make (Pauli_string.of_string s) c) strs)
    param

let has_code code diags = List.exists (fun d -> d.Diag.code = code) diags

let codes diags =
  List.sort_uniq compare (List.map (fun d -> d.Diag.code) diags)

(* --- Diag basics --- *)

let test_diag_format () =
  let d = Diag.error ~code:"GATE002" (Diag.Gate_loc 7) "cnot 7 7" in
  check_str "to_string" "error[GATE002] at gate 7: cnot 7 7" (Diag.to_string d)

let test_diag_json_roundtrip () =
  List.iter
    (fun loc ->
      let d = Diag.warning ~code:"PIR003" loc "msg with \"quotes\"" in
      let d' = Diag.of_json (Json.parse (Json.to_string (Diag.to_json d))) in
      check "roundtrip" true (d = d'))
    [
      Diag.Config_loc;
      Diag.Program_loc;
      Diag.Block_loc 3;
      Diag.Term_loc (1, 4);
      Diag.Layer_loc 0;
      Diag.Gate_loc 12;
      Diag.Qubit_loc 2;
    ]

let test_level_of_string () =
  check "off" true (Diag.level_of_string "off" = Ok Diag.Off);
  check "warn" true (Diag.level_of_string "warn" = Ok Diag.Warn);
  check "error" true (Diag.level_of_string "error" = Ok Diag.Error_level);
  check "bad" true (match Diag.level_of_string "loud" with Error _ -> true | Ok _ -> false)

(* --- one deliberately broken input per diagnostic code --- *)

let swapped_layout () =
  let l = Layout.copy (Layout.identity 3 3) in
  Layout.swap_physical l 0 1;
  l

(* analyzer triggers: a 3-rotation program whose floors are known by
   hand (V = 3, S₂ = 1 so cnot ≥ 2, single ≥ 3, qubit 0 carries all
   three rotations so depth ≥ 3) *)
let ana_program () =
  Program.make 2 [ block [ "XX", 1.0 ]; block [ "ZZ", 1.0 ]; block [ "XY", 1.0 ] ]

let ana_gap ~threshold ~cnot ~single ~total ~depth () =
  Analysis.Gap.diagnose ~threshold
    (Analysis.Gap.summarize ~cnot ~single ~total ~depth
       (Analysis.Bounds.of_program (ana_program ())))

let ana_cert () =
  let prog = ana_program () in
  let out = Compiler.compile (Config.ft ()) prog in
  prog, out.Compiler.certificate

let tamper_layer f (c : Analysis.Certificate.t) =
  match c.Analysis.Certificate.layers with
  | l :: rest -> { c with Analysis.Certificate.layers = f l :: rest }
  | [] -> c

let triggers : (string * (unit -> Diag.t list)) list =
  [
    "PIR001", (fun () -> Check_ir.blocks ~n_qubits:2 [ block [ "XX", Float.nan ] ]);
    ( "PIR002",
      fun () ->
        Check_ir.blocks ~n_qubits:2 [ block ~param:(Block.fixed Float.nan) [ "XX", 1.0 ] ]
    );
    "PIR003", (fun () -> Check_ir.blocks ~n_qubits:2 [ block [ "II", 1.0 ] ]);
    "PIR004", (fun () -> Check_ir.blocks ~n_qubits:2 [ block [ "XX", 0.0 ] ]);
    "PIR005", (fun () -> Check_ir.blocks ~n_qubits:2 [ block [ "XX", 1.0; "XX", 0.5 ] ]);
    "PIR006", (fun () -> Check_ir.blocks ~n_qubits:3 [ block [ "XX", 1.0 ] ]);
    ( "SCH001",
      fun () ->
        (* the scheduler dropped a block and duplicated another *)
        let a = block [ "XI", 1.0 ] and b = block [ "IZ", 1.0 ] in
        Check_schedule.check
          ~program:(Program.make 2 [ a; b ])
          [ Ph_schedule.Layer.of_block a; Ph_schedule.Layer.of_block a ] );
    ( "SCH002",
      fun () ->
        let a = block [ "XI", 1.0 ] in
        Check_schedule.check
          ~program:(Program.make 2 [ a ])
          [ { Ph_schedule.Layer.blocks = [] } ] );
    ( "SCH003",
      fun () ->
        (* both blocks act on qubit 0: the padding collides with the leader *)
        let x = block [ "XI", 1.0 ] and z = block [ "ZI", 1.0 ] in
        Check_schedule.check
          ~program:(Program.make 2 [ x; z ])
          [ Ph_schedule.Layer.make [ x; z ] ] );
    "GATE001", (fun () -> Check_gates.circuit (Circuit.of_gates 2 [ Gate.H 5 ]));
    "GATE002", (fun () -> Check_gates.circuit (Circuit.of_gates 2 [ Gate.Cnot (1, 1) ]));
    ( "GATE003",
      fun () -> Check_gates.circuit (Circuit.of_gates 1 [ Gate.Rz (Float.nan, 0) ]) );
    ( "GATE004",
      fun () ->
        Check_gates.circuit ~post_peephole:true (Circuit.of_gates 1 [ Gate.Rz (0., 0) ])
    );
    ( "HW001",
      fun () ->
        Check_sc.check ~coupling:(Devices.line 3) ~initial:(Layout.identity 3 3)
          ~final:(Layout.identity 3 3) ~claimed_swaps:0
          (Circuit.of_gates 3 [ Gate.Cnot (0, 2) ]) );
    ( "HW002",
      fun () ->
        (* one SWAP replayed, but the backend claims the layout never moved *)
        Check_sc.check ~coupling:(Devices.line 3) ~initial:(Layout.identity 3 3)
          ~final:(Layout.identity 3 3) ~claimed_swaps:1
          (Circuit.of_gates 3 [ Gate.Swap (0, 1) ]) );
    ( "HW003",
      fun () ->
        (* 5-qubit layout on a 3-qubit device: logical 3, 4 are off-chip *)
        Check_sc.check ~coupling:(Devices.line 3) ~initial:(Layout.identity 5 5)
          ~final:(Layout.identity 5 5) ~claimed_swaps:0 (Circuit.empty 5) );
    ( "HW004",
      fun () ->
        Check_sc.check ~coupling:(Devices.line 3) ~initial:(Layout.identity 3 3)
          ~final:(swapped_layout ()) ~claimed_swaps:0
          (Circuit.of_gates 3 [ Gate.Swap (0, 1) ]) );
    ( "VER001",
      fun () ->
        Check_frame.check ~rotations:[ Pauli_string.of_string "X", 0.7 ] (lazy false) );
    ( "CFG001",
      fun () -> Check_config.check ~backend:Check_config.Ion_trap_view ~peephole:true );
    ( "CFG002",
      fun () ->
        Check_config.check
          ~backend:(Check_config.Sc_view (Coupling.create 4 [ 0, 1; 2, 3 ]))
          ~peephole:true );
    "ANA001", (fun () -> ana_gap ~threshold:8. ~cnot:4 ~single:3 ~total:7 ~depth:3 ());
    "ANA002", (fun () -> ana_gap ~threshold:8. ~cnot:4 ~single:3 ~total:7 ~depth:3 ());
    (* tiny threshold: a 2x cnot gap becomes a warning *)
    "ANA003", (fun () -> ana_gap ~threshold:0.5 ~cnot:4 ~single:3 ~total:7 ~depth:3 ());
    (* claimed depth below the static floor: unsound bound or miscount *)
    "ANA004", (fun () -> ana_gap ~threshold:8. ~cnot:4 ~single:3 ~total:7 ~depth:1 ());
    ( "ANA010",
      fun () ->
        let prog, cert = ana_cert () in
        Analysis.Certificate.check ~program:prog
          { cert with Analysis.Certificate.n_qubits = cert.Analysis.Certificate.n_qubits + 1 }
    );
    ( "ANA011",
      fun () ->
        (* first layer's digests replaced wholesale: the block multiset
           no longer matches the program *)
        let prog, cert = ana_cert () in
        let bogus = String.make 32 '0' in
        Analysis.Certificate.check ~program:prog
          (tamper_layer
             (fun l ->
               { l with
                 Analysis.Certificate.leader_digest = bogus;
                 block_digests = [ bogus ];
               })
             cert) );
    ( "ANA012",
      fun () ->
        (* edited layer leader: no longer the first block of the layer *)
        let prog, cert = ana_cert () in
        Analysis.Certificate.check ~program:prog
          (tamper_layer
             (fun l ->
               { l with Analysis.Certificate.leader_digest = String.make 32 'f' })
             cert) );
    ( "ANA013",
      fun () ->
        (* hand-built layer whose padding shares qubit 0 with the leader *)
        let a = block [ "XI", 1.0 ] and b = block [ "ZI", 1.0 ] in
        let cert =
          Analysis.Certificate.build ~n_qubits:2 ~cnot:0 ~single:2 ~depth:2
            [ [ a; b ] ]
        in
        Analysis.Certificate.check ~program:(Program.make 2 [ a; b ]) cert );
    ( "ANA014",
      fun () ->
        (* inflated cost accounting vs the compiled metrics *)
        let prog, cert = ana_cert () in
        Analysis.Certificate.check ~program:prog
          ~metrics:
            ( cert.Analysis.Certificate.cnot + 1,
              cert.Analysis.Certificate.single,
              cert.Analysis.Certificate.depth )
          cert );
  ]

let test_every_known_code_fires () =
  List.iter
    (fun (code, severity, _desc) ->
      match List.assoc_opt code triggers with
      | None -> Alcotest.failf "no trigger registered for documented code %s" code
      | Some trigger ->
        let diags = trigger () in
        check (code ^ " fires") true (has_code code diags);
        check (code ^ " severity matches docs") true
          (List.exists
             (fun d -> d.Diag.code = code && d.Diag.severity = severity)
             diags))
    Diag.known_codes

let test_no_undocumented_triggers () =
  List.iter
    (fun (code, _) ->
      check (code ^ " documented") true
        (List.exists (fun (c, _, _) -> c = code) Diag.known_codes))
    triggers

(* --- checkers are quiet on well-formed input --- *)

let test_checkers_accept_clean_input () =
  check_int "clean ir" 0
    (List.length (Check_ir.blocks ~n_qubits:2 [ block [ "XX", 1.0; "ZZ", -0.5 ] ]));
  let a = block [ "XI", 1.0 ] and b = block [ "IZ", 1.0 ] in
  check_int "clean schedule" 0
    (List.length
       (Check_schedule.check
          ~program:(Program.make 2 [ a; b ])
          [ Ph_schedule.Layer.make [ a; b ] ]));
  check_int "clean gates" 0
    (List.length
       (Check_gates.circuit (Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1) ])));
  check_int "clean sc" 0
    (List.length
       (Check_sc.check ~coupling:(Devices.line 3) ~initial:(Layout.identity 3 3)
          ~final:(swapped_layout ()) ~claimed_swaps:1
          (Circuit.of_gates 3 [ Gate.Cnot (0, 1); Gate.Swap (0, 1) ])))

(* --- injected un-coupled CNOT reported with its gate index --- *)

let test_injected_uncoupled_cnot () =
  let coupling = Devices.line 5 in
  let initial = Layout.identity 5 5 in
  let final = Layout.copy initial in
  Layout.swap_physical final 1 2;
  let routed =
    [ Gate.Cnot (0, 1); Gate.Swap (1, 2); Gate.Cnot (2, 3); Gate.Cnot (0, 4) ]
  in
  let diags =
    Check_sc.check ~coupling ~initial ~final ~claimed_swaps:1
      (Circuit.of_gates 5 routed)
  in
  check "only HW001" true (codes diags = [ "HW001" ]);
  match diags with
  | [ d ] ->
    check "location is the injected gate" true (d.Diag.location = Diag.Gate_loc 3)
  | _ -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length diags)

(* --- compiler integration --- *)

let small_program () =
  Program.make 2 [ block [ "XX", 1.0 ]; block [ "ZZ", 1.0 ] ]

let test_lint_off_is_free () =
  let out = Compiler.compile (Config.ft ()) (small_program ()) in
  check_int "no diags" 0 (List.length out.Compiler.trace.Report.lint);
  check "no time" true (out.Compiler.trace.Report.lint_s = 0.)

let test_lint_clean_compile () =
  List.iter
    (fun config ->
      let out = Compiler.compile config (small_program ()) in
      check_int "no errors" 0 (List.length (Compiler.lint_errors out)))
    [
      Config.ft ~lint:Diag.Error_level ();
      Config.sc ~lint:Diag.Error_level (Devices.line 4);
      Config.ion_trap ~lint:Diag.Error_level ();
    ]

let test_ion_trap_config_honest () =
  (* satellite fix: the default ion-trap config no longer claims a
     peephole pass that the backend never runs... *)
  check "default peephole off" false (Config.ion_trap ()).Config.peephole;
  let out =
    Compiler.compile
      { (Config.ion_trap ~lint:Diag.Warn ()) with Config.peephole = true }
      (small_program ())
  in
  (* ...and a config that still claims it draws CFG001 *)
  check "CFG001 fires" true (has_code "CFG001" out.Compiler.trace.Report.lint);
  check_int "as a warning, not an error" 0 (List.length (Compiler.lint_errors out));
  (* ...while the compile tail still skips the generic peephole there *)
  let off = Compiler.compile (Config.ion_trap ~lint:Diag.Warn ()) (small_program ()) in
  check_int "no peephole rounds" 0
    out.Compiler.trace.Report.counters.Report.peephole_rounds;
  check "same circuit as with peephole off" true
    (Circuit.gates out.Compiler.circuit = Circuit.gates off.Compiler.circuit)

let test_lint_lands_in_trace_json () =
  let out =
    Compiler.compile (Config.ft ~lint:Diag.Warn ())
      (Program.make 2 [ block [ "II", 1.0 ] ])
  in
  check "identity warning" true (has_code "PIR003" out.Compiler.trace.Report.lint);
  let trace' =
    Report.trace_of_json (Json.parse (Json.to_string (Report.trace_to_json out.Compiler.trace)))
  in
  check "trace roundtrips lint" true
    (trace'.Report.lint = out.Compiler.trace.Report.lint)

(* --- the whole benchmark suite is lint-clean at error level --- *)

let lint_corpus backend_name make_config benches () =
  List.iter
    (fun (b : Suite.t) ->
      let prog = b.Suite.generate () in
      let out = Compiler.compile (make_config prog) prog in
      match Compiler.lint_errors out with
      | [] -> ()
      | errs ->
        Alcotest.failf "%s under %s: %d lint error(s), first: %s" b.Suite.name
          backend_name (List.length errs)
          (Diag.to_string (List.hd errs)))
    benches

let test_suite_ft_clean =
  lint_corpus "ft" (fun _ -> Config.ft ~lint:Diag.Error_level ()) (Suite.ft ())

let test_suite_sc_clean =
  lint_corpus "sc"
    (fun _ -> Config.sc ~lint:Diag.Error_level Devices.manhattan)
    (Suite.sc ())

let () =
  Alcotest.run "lint"
    [
      ( "diag",
        [
          Alcotest.test_case "format" `Quick test_diag_format;
          Alcotest.test_case "json roundtrip" `Quick test_diag_json_roundtrip;
          Alcotest.test_case "level parsing" `Quick test_level_of_string;
        ] );
      ( "checkers",
        [
          Alcotest.test_case "every known code fires" `Quick test_every_known_code_fires;
          Alcotest.test_case "triggers are documented" `Quick test_no_undocumented_triggers;
          Alcotest.test_case "clean input accepted" `Quick test_checkers_accept_clean_input;
          Alcotest.test_case "injected uncoupled cnot" `Quick test_injected_uncoupled_cnot;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "lint off is free" `Quick test_lint_off_is_free;
          Alcotest.test_case "clean compile" `Quick test_lint_clean_compile;
          Alcotest.test_case "ion trap config honest" `Quick test_ion_trap_config_honest;
          Alcotest.test_case "lint in trace json" `Quick test_lint_lands_in_trace_json;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "benchmark suite ft" `Slow test_suite_ft_clean;
          Alcotest.test_case "benchmark suite sc" `Slow test_suite_sc_clean;
        ] );
    ]
