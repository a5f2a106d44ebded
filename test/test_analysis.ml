(* Tests for lib/analysis: hand-checked bounds on tiny kernels, floor
   soundness across the table-2 suites, JSON round-trips, certificate
   validation (accept + targeted tampering), and determinism of the
   analysis across repeated runs. *)

open Ph_pauli
open Ph_pauli_ir
open Ph_benchmarks
open Ph_lint
open Paulihedral

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let block ?(param = Block.fixed 0.1) strs =
  Block.make
    (List.map (fun (s, c) -> Pauli_term.make (Pauli_string.of_string s) c) strs)
    param

let program n blocks = Program.make n blocks
let bounds prog = Analysis.Bounds.of_program prog
let has_code code diags = List.exists (fun d -> d.Diag.code = code) diags

(* --- hand-checked bounds on small kernels --- *)

let test_single_block () =
  (* one ZZ rotation: V = 1, one weight-2 support so cnot >= 2, depth 1 *)
  let b = bounds (program 2 [ block [ "ZZ", 1.0 ] ]) in
  check_int "vertices" 1 b.Analysis.Bounds.vertices;
  check_int "edges" 0 b.Analysis.Bounds.graph_edges;
  check_int "components" 1 b.Analysis.Bounds.components;
  check_int "clique" 1 b.Analysis.Bounds.clique;
  check_int "max_load" 1 b.Analysis.Bounds.max_load;
  check_int "single_lower" 1 b.Analysis.Bounds.single_lower;
  check_int "cnot_lower" 2 b.Analysis.Bounds.cnot_lower;
  check_int "depth_lower" 1 b.Analysis.Bounds.depth_lower;
  check_int "total_lower" 3 b.Analysis.Bounds.total_lower;
  check_int "tree_cnots" 1 b.Analysis.Bounds.tree_cnots

let test_fully_commuting () =
  (* disjoint single-qubit rotations: no edges, no multi-qubit support,
     every qubit carries one rotation *)
  let b = bounds (program 2 [ block [ "XI", 1.0 ]; block [ "IX", 1.0 ] ]) in
  check_int "vertices" 2 b.Analysis.Bounds.vertices;
  check_int "edges" 0 b.Analysis.Bounds.graph_edges;
  check_int "components" 2 b.Analysis.Bounds.components;
  check_int "clique" 1 b.Analysis.Bounds.clique;
  check_int "cnot_lower" 0 b.Analysis.Bounds.cnot_lower;
  check_int "single_lower" 2 b.Analysis.Bounds.single_lower;
  check_int "depth_lower" 1 b.Analysis.Bounds.depth_lower

let test_anticommuting_triple () =
  (* X, Y, Z on one qubit: pairwise anti-commuting, so the greedy clique
     finds all three and the depth floor is 3 *)
  let b =
    bounds
      (program 1 [ block [ "X", 1.0 ]; block [ "Y", 1.0 ]; block [ "Z", 1.0 ] ])
  in
  check_int "vertices" 3 b.Analysis.Bounds.vertices;
  check_int "edges" 3 b.Analysis.Bounds.graph_edges;
  check_int "components" 1 b.Analysis.Bounds.components;
  check_int "clique" 3 b.Analysis.Bounds.clique;
  check_int "max_load" 3 b.Analysis.Bounds.max_load;
  check_int "depth_lower" 3 b.Analysis.Bounds.depth_lower;
  check_int "cnot_lower" 0 b.Analysis.Bounds.cnot_lower

let test_dedup_and_cancellation () =
  (* duplicated strings merge into one effective rotation... *)
  let b = bounds (program 2 [ block [ "XX", 1.0 ]; block [ "XX", 0.5 ] ]) in
  check_int "duplicates merge" 1 b.Analysis.Bounds.vertices;
  (* ...and exactly-cancelling ones drop entirely: every floor is 0 *)
  let b = bounds (program 2 [ block [ "XX", 1.0 ]; block [ "XX", -1.0 ] ]) in
  check_int "cancelled vertices" 0 b.Analysis.Bounds.vertices;
  check_int "cancelled cnot floor" 0 b.Analysis.Bounds.cnot_lower;
  check_int "cancelled single floor" 0 b.Analysis.Bounds.single_lower;
  check_int "cancelled depth floor" 0 b.Analysis.Bounds.depth_lower

let test_distinct_supports () =
  (* two distinct weight-2 supports: S2 = 2, cnot >= 3; the repeated
     support {0,1} under a different axis does not count twice *)
  let b =
    bounds
      (program 3
         [ block [ "XXI", 1.0 ]; block [ "ZZI", 1.0 ]; block [ "IXX", 1.0 ] ])
  in
  check_int "cnot_lower = S2 + 1" 3 b.Analysis.Bounds.cnot_lower

(* --- gap diagnostics --- *)

let gap_of prog (m : Report.metrics) =
  Analysis.Gap.summarize ~cnot:m.Report.cnot ~single:m.Report.single
    ~total:m.Report.total ~depth:m.Report.depth (bounds prog)

let test_gap_codes () =
  let prog = program 2 [ block [ "XX", 1.0 ]; block [ "ZZ", 1.0 ] ] in
  let out = Compiler.compile (Config.ft ()) prog in
  let s = gap_of prog out.Compiler.metrics in
  let diags = Analysis.Gap.diagnose ~threshold:Config.default_gap_threshold s in
  check "ANA001 always fires" true (has_code "ANA001" diags);
  check "ANA002 fires for nonzero floors" true (has_code "ANA002" diags);
  check "no ANA004 on a real compile" false (has_code "ANA004" diags);
  (* a sub-unit threshold turns every gap into a warning *)
  let diags = Analysis.Gap.diagnose ~threshold:0.01 s in
  check "ANA003 at tiny threshold" true (has_code "ANA003" diags);
  check "warnings are warnings" true
    (List.for_all
       (fun d -> d.Diag.severity = Diag.Warning)
       (List.filter (fun d -> d.Diag.code = "ANA003") diags))

let test_json_roundtrips () =
  let prog = program 2 [ block [ "XX", 1.0 ]; block [ "ZY", 0.5 ] ] in
  let b = bounds prog in
  let b' = Analysis.Bounds.of_json (Json.parse (Json.to_string (Analysis.Bounds.to_json b))) in
  check "bounds roundtrip" true (b = b');
  let out = Compiler.compile (Config.ft ()) prog in
  let s = gap_of prog out.Compiler.metrics in
  let s' = Analysis.Gap.of_json (Json.parse (Json.to_string (Analysis.Gap.to_json s))) in
  check "gap roundtrip" true (s = s');
  let c = out.Compiler.certificate in
  let c' =
    Analysis.Certificate.of_json
      (Json.parse (Json.to_string (Analysis.Certificate.to_json c)))
  in
  check "certificate roundtrip" true (c = c')

let test_gap_rows_distinct () =
  let prog = program 2 [ block [ "XX", 1.0 ] ] in
  let out = Compiler.compile (Config.ft ()) prog in
  let rows = Analysis.Gap.gap_rows (gap_of prog out.Compiler.metrics) in
  let names = List.map fst rows in
  check_int "no duplicate row names" (List.length names)
    (List.length (List.sort_uniq compare names));
  (* row names must stay disjoint from the analyzer's work counters,
     which already occupy the ana_ prefix in trace.perf *)
  List.iter
    (fun banned -> check (banned ^ " not a row") false (List.mem banned names))
    [ "ana_edges_scanned"; "ana_clique_iters"; "ana_cert_checks" ]

(* --- floors never exceed achieved metrics, whole table-2 suites --- *)

let floors_sound mk_config benches () =
  List.iter
    (fun (b : Suite.t) ->
      let prog = b.Suite.generate () in
      let out = Compiler.compile (mk_config ()) prog in
      let m = out.Compiler.metrics in
      let bd = bounds prog in
      let le name floor achieved =
        if floor > achieved then
          Alcotest.failf "%s: %s floor %d exceeds achieved %d" b.Suite.name name
            floor achieved
      in
      le "cnot" bd.Analysis.Bounds.cnot_lower m.Report.cnot;
      le "single" bd.Analysis.Bounds.single_lower m.Report.single;
      le "total" bd.Analysis.Bounds.total_lower m.Report.total;
      le "depth" bd.Analysis.Bounds.depth_lower m.Report.depth)
    benches

let test_floors_ft =
  floors_sound (fun () -> Config.ft ~schedule:Config.Depth_oriented ()) (Suite.ft ())

let test_floors_sc =
  floors_sound
    (fun () -> Config.sc Ph_hardware.Devices.manhattan)
    (Suite.sc ())

(* --- certificates: accept, then targeted tampering --- *)

let compile_cert () =
  let prog =
    program 3
      [ block [ "XXI", 1.0 ]; block [ "IZZ", 0.5 ]; block [ "ZIZ", -0.25 ] ]
  in
  let out = Compiler.compile (Config.ft ~schedule:Config.Gco ()) prog in
  prog, out

let cert_metrics (out : Compiler.output) =
  ( out.Compiler.metrics.Report.cnot,
    out.Compiler.metrics.Report.single,
    out.Compiler.metrics.Report.depth )

let test_certificate_valid () =
  let prog, out = compile_cert () in
  check_int "fresh certificate validates" 0
    (List.length
       (Analysis.Certificate.check ~program:prog ~metrics:(cert_metrics out)
          out.Compiler.certificate));
  (* suites too: every table-2 FT compile carries a valid certificate *)
  List.iter
    (fun (b : Suite.t) ->
      let prog = b.Suite.generate () in
      let out = Compiler.compile (Config.ft ()) prog in
      match
        Analysis.Certificate.check ~program:prog ~metrics:(cert_metrics out)
          out.Compiler.certificate
      with
      | [] -> ()
      | d :: _ ->
        Alcotest.failf "%s: certificate rejected: %s" b.Suite.name
          (Diag.to_string d))
    (Suite.ft ())

let tamper_layer f (c : Analysis.Certificate.t) =
  match c.Analysis.Certificate.layers with
  | l :: rest -> { c with Analysis.Certificate.layers = f l :: rest }
  | [] -> Alcotest.fail "certificate has no layers"

let test_certificate_tampering () =
  let prog, out = compile_cert () in
  let cert = out.Compiler.certificate in
  let rejected code cert' =
    let diags = Analysis.Certificate.check ~program:prog cert' in
    check (code ^ " fires") true (has_code code diags);
    check (code ^ " is an error") true
      (List.exists (fun d -> d.Diag.code = code && Diag.is_error d) diags)
  in
  rejected "ANA010"
    { cert with Analysis.Certificate.version = "phc-cert/999" };
  rejected "ANA010"
    { cert with Analysis.Certificate.n_qubits = cert.Analysis.Certificate.n_qubits + 1 };
  (* edited layer leader *)
  rejected "ANA012"
    (tamper_layer
       (fun l -> { l with Analysis.Certificate.leader_digest = String.make 32 'f' })
       cert);
  (* dropped block: multiset of digests no longer matches the program *)
  rejected "ANA011"
    { cert with
      Analysis.Certificate.layers = List.tl cert.Analysis.Certificate.layers;
      blocks =
        cert.Analysis.Certificate.blocks
        - List.length
            (List.hd cert.Analysis.Certificate.layers).Analysis.Certificate.block_digests;
    };
  (* inflated depth estimate inside one layer *)
  rejected "ANA012"
    (tamper_layer
       (fun l -> { l with Analysis.Certificate.est_depth = l.Analysis.Certificate.est_depth + 1 })
       cert);
  (* inflated cost accounting, caught only when metrics are supplied *)
  let inflated = { cert with Analysis.Certificate.cnot = cert.Analysis.Certificate.cnot + 7 } in
  let diags =
    Analysis.Certificate.check ~program:prog ~metrics:(cert_metrics out) inflated
  in
  check "ANA014 fires" true (has_code "ANA014" diags)

(* --- ANA015: optimizer accounting, phoenix compiles and tampering --- *)

let test_certificate_opt_accounting () =
  let prog =
    program 3
      [ block [ "XXI", 1.0; "ZZI", 0.5 ]; block [ "IZZ", 0.5; "IYY", -0.25 ] ]
  in
  let out = Compiler.compile (Config.ft ~schedule:Config.Phoenix_like ()) prog in
  let cert = out.Compiler.certificate in
  (match cert.Analysis.Certificate.opt with
  | None -> Alcotest.fail "phoenix certificate must carry opt accounting"
  | Some o ->
    check_int "blocks_in recorded" 2 o.Analysis.Certificate.blocks_in);
  (* phoenix certifies the post-opt multiset: check against the rewritten
     program, not the input *)
  let cert_prog =
    Option.value out.Compiler.opt_program ~default:prog
  in
  check_int "post-opt certificate validates" 0
    (List.length
       (Analysis.Certificate.check ~program:cert_prog
          ~metrics:(cert_metrics out) cert));
  (* GCO compiles carry no opt field and the JSON omits it *)
  let plain = Compiler.compile (Config.ft ()) prog in
  check "no opt field off phoenix" true
    (plain.Compiler.certificate.Analysis.Certificate.opt = None);
  let js = Json.to_string (Analysis.Certificate.to_json plain.Compiler.certificate) in
  check "json omits opt when absent" false
    (let rec go i =
       i + 5 <= String.length js && (String.sub js i 5 = "\"opt\"" || go (i + 1))
     in
     go 0);
  (* roundtrip with the opt field present *)
  let c' =
    Analysis.Certificate.of_json
      (Json.parse (Json.to_string (Analysis.Certificate.to_json cert)))
  in
  check "opt certificate roundtrips" true (cert = c');
  (* tampered accounting: groups - fused no longer explains the block
     count, and negative fields are rejected outright *)
  let tampered o =
    { cert with Analysis.Certificate.opt = Some o }
  in
  let base = Option.get cert.Analysis.Certificate.opt in
  let diags =
    Analysis.Certificate.check ~program:cert_prog
      (tampered { base with Analysis.Certificate.groups = base.Analysis.Certificate.groups + 1 })
  in
  check "ANA015 fires on mismatch" true (has_code "ANA015" diags);
  let diags =
    Analysis.Certificate.check ~program:cert_prog
      (tampered { base with Analysis.Certificate.fused = -1 })
  in
  check "ANA015 fires on negative field" true (has_code "ANA015" diags)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( != ) x) xs)))
      xs

let test_certificate_term_order_insensitive () =
  (* digests canonicalize term order, so scheduler-side reorderings
     never invalidate, while every semantic change shows *)
  let digest = Analysis.Certificate.block_digest in
  (* every order of the terms, a duplicate string with two coefficients
     included, digests alike *)
  let terms = [ "XX", 1.0; "ZZ", 0.5; "XX", -0.3; "YZ", 0.25 ] in
  let d0 = digest (block terms) in
  List.iter
    (fun p -> check "permuted terms, same digest" true (digest (block p) = d0))
    (permutations terms);
  let differs what b = check (what ^ " alters the digest") false (digest b = d0) in
  differs "a different string" (block [ "XY", 1.0; "ZZ", 0.5; "XX", -0.3; "YZ", 0.25 ]);
  differs "a different coefficient"
    (block [ "XX", 1.0; "ZZ", 0.5; "XX", -0.31; "YZ", 0.25 ]);
  differs "a different parameter"
    (block ~param:(Block.fixed 0.2) [ "XX", 1.0; "ZZ", 0.5; "XX", -0.3; "YZ", 0.25 ]);
  differs "a different qubit count"
    (block [ "IXX", 1.0; "IZZ", 0.5; "IXX", -0.3; "IYZ", 0.25 ]);
  let zero = block [ "ZZ", 0. ] and neg_zero = block [ "ZZ", -0. ] in
  check "-0. and 0. coefficients differ" false (digest zero = digest neg_zero);
  check "-0. and 0. parameters differ" false
    (digest (block ~param:(Block.fixed 0.) [ "ZZ", 1. ])
    = digest (block ~param:(Block.fixed (-0.)) [ "ZZ", 1. ]));
  (* the phc-cert/2 packed format, pinned (recomputed independently
     from the byte layout): changing it needs a new certificate version *)
  Alcotest.(check string) "pinned digest" "15bf5d91e87bcc21b64e42c5ad244c3e"
    (digest (block [ "XZ", 0.5; "YI", -1.5 ]))

let test_certificate_version_and_digest_edits () =
  let prog, out = compile_cert () in
  let cert = out.Compiler.certificate in
  Alcotest.(check string) "current version" "phc-cert/2" cert.Analysis.Certificate.version;
  let old = { cert with Analysis.Certificate.version = "phc-cert/1" } in
  let old =
    Analysis.Certificate.of_json
      (Json.parse (Json.to_string (Analysis.Certificate.to_json old)))
  in
  check "phc-cert/1 draws ANA010" true
    (has_code "ANA010" (Analysis.Certificate.check ~program:prog old));
  (* one block digest altered, leader digest kept consistent *)
  let altered =
    tamper_layer
      (fun l ->
        let d = String.make 32 '0' in
        {
          l with
          Analysis.Certificate.leader_digest = d;
          block_digests = d :: List.tl l.Analysis.Certificate.block_digests;
        })
      cert
  in
  let diags = Analysis.Certificate.check ~program:prog altered in
  check "altered digest draws ANA011" true (has_code "ANA011" diags);
  check "and nothing about the leader" false (has_code "ANA012" diags)

(* --- determinism: identical results and counters across runs --- *)

let test_deterministic () =
  let prog = (Suite.find "UCCSD-8").Suite.generate () in
  let b1 = bounds prog and b2 = bounds prog in
  check "bounds identical across runs" true (b1 = b2);
  check "work counters identical" true
    (b1.Analysis.Bounds.edges_scanned = b2.Analysis.Bounds.edges_scanned
    && b1.Analysis.Bounds.clique_iters = b2.Analysis.Bounds.clique_iters);
  let out1 = Compiler.compile (Config.ft ()) prog in
  let out2 = Compiler.compile (Config.ft ()) prog in
  check "certificates identical across compiles" true
    (out1.Compiler.certificate = out2.Compiler.certificate)

let () =
  Alcotest.run "analysis"
    [
      ( "bounds",
        [
          Alcotest.test_case "single block" `Quick test_single_block;
          Alcotest.test_case "fully commuting" `Quick test_fully_commuting;
          Alcotest.test_case "anticommuting triple" `Quick test_anticommuting_triple;
          Alcotest.test_case "dedup and cancellation" `Quick test_dedup_and_cancellation;
          Alcotest.test_case "distinct supports" `Quick test_distinct_supports;
        ] );
      ( "gaps",
        [
          Alcotest.test_case "diagnostic codes" `Quick test_gap_codes;
          Alcotest.test_case "json roundtrips" `Quick test_json_roundtrips;
          Alcotest.test_case "gap rows distinct" `Quick test_gap_rows_distinct;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "ft suite floors" `Slow test_floors_ft;
          Alcotest.test_case "sc suite floors" `Slow test_floors_sc;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "valid accepted" `Quick test_certificate_valid;
          Alcotest.test_case "tampering rejected" `Quick test_certificate_tampering;
          Alcotest.test_case "phoenix opt accounting (ANA015)" `Quick
            test_certificate_opt_accounting;
          Alcotest.test_case "old version, edited digest" `Quick
            test_certificate_version_and_digest_edits;
          Alcotest.test_case "term order insensitive" `Quick
            test_certificate_term_order_insensitive;
        ] );
      ( "determinism",
        [ Alcotest.test_case "repeat runs identical" `Quick test_deterministic ]
      );
    ]
