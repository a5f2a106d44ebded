(* Tests of the lib/serve compile daemon: NDJSON framing (partial
   reads, oversized lines, malformed requests, mid-request
   disconnects), request semantics (byte-identity with a direct
   compile, cache hits, ping/stats), admission control and the drain
   sequence. *)

open Paulihedral
module Json = Ph_json
module Protocol = Ph_serve.Protocol
module Server = Ph_serve.Server
module Client = Ph_serve.Client
module Bomb = Ph_serve.Bomb

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let source = "{(XX, 1.0), 0.5};\n{(ZZ, 1.0), 0.25};\n"

let start ?jobs ?max_queue ?max_line ?cache () =
  Server.start
    (Server.config ?jobs ?max_queue ?max_line ?cache
       (Protocol.Tcp ("127.0.0.1", 0)))

let with_server ?jobs ?max_queue ?max_line ?cache f =
  let server = start ?jobs ?max_queue ?max_line ?cache () in
  Fun.protect ~finally:(fun () -> Server.drain server) (fun () -> f server)

let with_client server f =
  let conn = Client.connect (Server.address server) in
  Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> f conn)

let expect_ok = function
  | Stdlib.Ok response ->
    check "response ok" true (Json.member "ok" response = Some (Json.Bool true));
    response
  | Stdlib.Error m -> Alcotest.failf "transport error: %s" m

let expect_error code = function
  | Stdlib.Ok response -> (
    check "response not ok" true
      (Json.member "ok" response = Some (Json.Bool false));
    match Json.member "error" response with
    | Some err ->
      check "error code" true (Json.member "code" err = Some (Json.String code));
      err
    | None -> Alcotest.fail "error response without error object")
  | Stdlib.Error m -> Alcotest.failf "transport error: %s" m

let str_of json = Json.to_string json

(* --- framing: the bounded line reader over a pipe --- *)

let write_str fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let test_reader_partial_reads () =
  let r, w = Unix.pipe () in
  let reader = Protocol.reader r in
  (* a line delivered in three fragments is reassembled *)
  write_str w "{\"op\":";
  write_str w " \"pi";
  write_str w "ng\"}\ntrailing";
  (match Protocol.read_line reader with
  | `Line l -> check_str "reassembled line" "{\"op\": \"ping\"}" l
  | _ -> Alcotest.fail "expected a line");
  (* the partial next line waits for its newline *)
  write_str w " rest\n";
  (match Protocol.read_line reader with
  | `Line l -> check_str "second line" "trailing rest" l
  | _ -> Alcotest.fail "expected a line");
  Unix.close w;
  (* EOF with no pending newline is a clean close *)
  check "eof" true (Protocol.read_line reader = `Eof);
  Unix.close r

let test_reader_oversized_line () =
  let r, w = Unix.pipe () in
  let reader = Protocol.reader r in
  write_str w (String.make 200 'x');
  check "over the cap without a newline" true
    (Protocol.read_line ~max_bytes:100 reader = `Oversized);
  Unix.close w;
  Unix.close r

let test_reader_eof_mid_line () =
  let r, w = Unix.pipe () in
  let reader = Protocol.reader r in
  write_str w "{\"op\": \"ping\"";
  Unix.close w;
  check "mid-line eof is eof, not a line" true
    (Protocol.read_line reader = `Eof);
  Unix.close r

(* --- request parsing --- *)

let test_request_of_line_errors () =
  (match Protocol.request_of_line "not json {" with
  | Error e -> check_str "bad_json" "bad_json" e.Protocol.code
  | Ok _ -> Alcotest.fail "expected bad_json");
  (match Protocol.request_of_line "[1,2]" with
  | Error e -> check_str "non-object" "bad_request" e.Protocol.code
  | Ok _ -> Alcotest.fail "expected bad_request");
  (match Protocol.request_of_line "{\"id\": 7, \"op\": \"frobnicate\"}" with
  | Error e ->
    check_str "unknown op" "bad_request" e.Protocol.code;
    check "id echoed" true (e.Protocol.err_id = Json.Int 7)
  | Ok _ -> Alcotest.fail "expected bad_request");
  (match Protocol.request_of_line "{\"op\": \"compile\"}" with
  | Error e -> check_str "missing source" "bad_request" e.Protocol.code
  | Ok _ -> Alcotest.fail "expected bad_request");
  match
    Protocol.request_of_line
      "{\"op\": \"compile\", \"source\": \"x\", \"window\": \"wat\"}"
  with
  | Error e -> check_str "wrong field type" "bad_request" e.Protocol.code
  | Ok _ -> Alcotest.fail "expected bad_request"

(* Schedule vocabulary: unknown names are structured bad_request errors
   (never exceptions), phoenix parses, and the ion-trap backend rejects
   phoenix with a usable message. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_schedule_vocabulary () =
  (match Protocol.schedule_of_string "phoenix" with
  | Ok s -> check "phoenix parses" true (s = Config.Phoenix_like)
  | Error _ -> Alcotest.fail "phoenix must parse");
  (match Protocol.schedule_of_string "bogus" with
  | Error (`Msg m) ->
    check "unknown lists vocabulary" true
      (List.for_all (contains m) [ "gco"; "do"; "maxov"; "phoenix"; "none" ])
  | Ok _ -> Alcotest.fail "expected error for unknown schedule");
  (match
     Protocol.request_of_line
       "{\"op\": \"compile\", \"source\": \"x\", \"schedule\": \"bogus\"}"
   with
  | Error e -> check_str "unknown schedule" "bad_request" e.Protocol.code
  | Ok _ -> Alcotest.fail "expected bad_request");
  match
    Protocol.config_for ~backend:"it" ~device:"manhattan"
      ~schedule:Config.Phoenix_like ~lint:Ph_lint.Diag.Off ~window:20 ()
  with
  | Error (`Msg m) -> check "it+phoenix refused" true (contains m "phoenix")
  | Ok _ -> Alcotest.fail "expected error for it+phoenix"

(* --- daemon semantics --- *)

(* The response record must be byte-identical to a direct compile of the
   same source under the same options, after normalization — the
   guarantee that lets clients treat the daemon as a drop-in phc. *)
let test_compile_byte_identity () =
  let expected =
    let program = Ph_pauli_ir.Parser.parse source in
    let out = Compiler.compile (Config.ft ()) program in
    str_of
      (Report.record_to_json
         (Report.normalize_record
            {
              Report.bench = "ident";
              config = Protocol.config_name ~backend:"ft" ~device:"manhattan"
                  ~schedule:Config.Gco;
              qubits = Ph_pauli_ir.Program.n_qubits program;
              paulis = Ph_pauli_ir.Program.term_count program;
              metrics = out.Compiler.metrics;
              trace = out.Compiler.trace;
            }))
  in
  with_server ~jobs:2 (fun server ->
      with_client server (fun conn ->
          let response =
            expect_ok
              (Client.request conn ~id:(Json.Int 1)
                 (Protocol.compile_request ~name:"ident" source))
          in
          check "compiled origin" true
            (Json.member "origin" response = Some (Json.String "compiled"));
          match Json.member "record" response with
          | Some record -> check_str "record bytes" expected (str_of record)
          | None -> Alcotest.fail "no record in response"))

let test_cache_hit_origin () =
  let cache = Ph_pool.Cache.create () in
  with_server ~cache (fun server ->
      with_client server (fun conn ->
          let req = Protocol.compile_request ~name:"warm" source in
          let first = expect_ok (Client.request conn ~id:(Json.Int 1) req) in
          check "first compiled" true
            (Json.member "origin" first = Some (Json.String "compiled"));
          let second = expect_ok (Client.request conn ~id:(Json.Int 2) req) in
          check "second served from cache" true
            (Json.member "origin" second = Some (Json.String "cache"));
          check_str "identical records"
            (str_of (Option.get (Json.member "record" first)))
            (str_of (Option.get (Json.member "record" second)))))

let test_ping_and_stats () =
  with_server (fun server ->
      with_client server (fun conn ->
          let _ = expect_ok (Client.request conn ~id:(Json.Int 1) Protocol.Ping) in
          let _ =
            expect_ok
              (Client.request conn ~id:(Json.Int 2)
                 (Protocol.compile_request source))
          in
          let response =
            expect_ok (Client.request conn ~id:(Json.Int 3) Protocol.Stats)
          in
          match Json.member "stats" response with
          | None -> Alcotest.fail "no stats in response"
          | Some stats ->
            let requests = Option.get (Json.member "requests" stats) in
            check "one compile counted" true
              (Json.member "compiled" requests = Some (Json.Int 1));
            check "one ping counted" true
              (Json.member "ping" requests = Some (Json.Int 1));
            let queue = Option.get (Json.member "queue" stats) in
            (* the answered compile is no longer active; the pool's own
               depth counter may trail the response by a beat (the
               worker decrements it after the job body returns), so
               only [active] is deterministic here *)
            check "no active requests" true
              (Json.member "active" queue = Some (Json.Int 0));
            check "depth reported" true
              (match Json.member "depth" queue with
              | Some (Json.Int d) -> d >= 0 && d <= 1
              | _ -> false)))

(* a malformed request draws a structured error and the connection keeps
   working — one bad client line must not cost the session *)
let test_malformed_then_usable () =
  with_server (fun server ->
      with_client server (fun conn ->
          let _ = expect_error "bad_json" (Client.raw_round_trip conn "{oops") in
          let _ =
            expect_error "bad_request"
              (Client.raw_round_trip conn "{\"op\": \"nope\"}")
          in
          let response =
            expect_ok (Client.request conn ~id:(Json.Int 9) Protocol.Ping)
          in
          check "id round-trips" true
            (Json.member "id" response = Some (Json.Int 9))))

(* non-finite numbers are rejected at parse time, as a literal in the
   source or as a request parameter (JSON 1e400 reads as infinity) *)
let test_non_finite_is_parse_error () =
  with_server (fun server ->
      with_client server (fun conn ->
          let message err =
            match Json.member "message" err with
            | Some (Json.String m) -> m
            | _ -> Alcotest.fail "error without message"
          in
          let err =
            expect_error "parse"
              (Client.request conn ~id:(Json.Int 1)
                 (Protocol.compile_request "{(XX, 1e400), 1};"))
          in
          check_str "literal located"
            "line 1, column 7: number \"1e400\" is not finite" (message err);
          let err =
            expect_error "parse"
              (Client.raw_round_trip conn
                 {|{"op": "compile", "source": "{(XX, 0.5), t};", "params": {"t": 1e400}}|})
          in
          check_str "parameter named"
            "line 1, column 13: parameter \"t\" is bound to inf, not a \
             finite number"
            (message err);
          let _ =
            expect_ok
              (Client.raw_round_trip conn
                 {|{"op": "compile", "source": "{(XX, 0.5), t};", "params": {"t": 0.25}}|})
          in
          ()))

(* an oversized request line is answered then the connection closes —
   the framing is unrecoverable *)
let test_oversized_line_closes () =
  with_server ~max_line:256 (fun server ->
      with_client server (fun conn ->
          let big =
            Printf.sprintf "{\"op\": \"compile\", \"source\": %S}"
              (String.concat "" (List.init 64 (fun _ -> source)))
          in
          let _ = expect_error "oversized" (Client.raw_round_trip conn big) in
          match Client.raw_round_trip conn "{\"op\": \"ping\"}" with
          | Stdlib.Error _ -> () (* connection gone, as documented *)
          | Stdlib.Ok _ -> Alcotest.fail "connection should be closed"))

(* a client that vanishes mid-request neither wedges the daemon nor
   leaks its connection: the drain in with_server would hang forever if
   the reader thread didn't exit cleanly *)
let test_mid_request_disconnect () =
  with_server (fun server ->
      (let conn = Client.connect (Server.address server) in
       Client.send_partial conn "{\"op\": \"compile\", \"source\": \"{(X";
       Client.close conn);
      (* daemon still serves new connections afterwards *)
      with_client server (fun conn ->
          let _ = expect_ok (Client.request conn ~id:Json.Null Protocol.Ping) in
          ()))

let test_overloaded_at_zero_queue () =
  with_server ~max_queue:0 (fun server ->
      with_client server (fun conn ->
          let err =
            expect_error "overloaded"
              (Client.request conn ~id:(Json.Int 1)
                 (Protocol.compile_request source))
          in
          check "reports the bound" true
            (Json.member "max_queue" err = Some (Json.Int 0));
          (* non-compile requests are still admitted *)
          let _ = expect_ok (Client.request conn ~id:(Json.Int 2) Protocol.Ping) in
          ()))

let test_drain_refuses_new_connections () =
  let server = start () in
  with_client server (fun conn ->
      let _ = expect_ok (Client.request conn ~id:(Json.Int 1) Protocol.Ping) in
      ());
  Server.drain server;
  match Client.connect (Server.address server) with
  | exception Unix.Unix_error _ -> ()
  | conn ->
    (* accept backlog may swallow the connect; the session must at least
       be dead *)
    let result = Client.raw_round_trip conn "{\"op\": \"ping\"}" in
    Client.close conn;
    check "no service after drain" true
      (match result with Stdlib.Error _ -> true | Stdlib.Ok _ -> false)

(* the shutdown op acknowledges, then the daemon drains by itself *)
let test_shutdown_op_drains () =
  let server = start () in
  with_client server (fun conn ->
      let response =
        expect_ok (Client.request conn ~id:(Json.Int 1) Protocol.Shutdown)
      in
      check "ack" true
        (Json.member "draining" response = Some (Json.Bool true)));
  (* no explicit request_drain: wait must return because of the op *)
  Server.wait server

(* draining with live traffic neither wedges the daemon nor the
   clients: requests answered before the drain succeed, later ones are
   refused or cut, and both sides terminate.  (The drain severs idle
   connections by design, so the load generator legitimately sees
   transport errors after the drain starts — only "everything
   terminates, and real work was served" is guaranteed.) *)
let test_drain_under_load () =
  let cache = Ph_pool.Cache.create () in
  let server = start ~jobs:2 ~cache () in
  let address = Server.address server in
  let result = ref None in
  let firing =
    Thread.create
      (fun () ->
        result :=
          Some
            (Bomb.run ~address ~clients:2 ~rps:0. ~duration_s:0.5
               [ Bomb.workload ~name:"w" (Protocol.compile_request source) ]))
      ()
  in
  Thread.delay 0.2;
  Server.drain server;
  Thread.join firing;
  match !result with
  | None -> Alcotest.fail "load generator never finished"
  | Some summary ->
    check "requests were served before the drain" true (summary.Bomb.ok > 0);
    check "no mismatched records" true (summary.Bomb.mismatches = 0);
    check "every request is accounted for" true
      (summary.Bomb.sent
      = summary.Bomb.ok + summary.Bomb.failed + summary.Bomb.overloaded
        + summary.Bomb.transport_errors)

let () =
  Alcotest.run "serve"
    [
      ( "framing",
        [
          Alcotest.test_case "partial reads reassemble" `Quick
            test_reader_partial_reads;
          Alcotest.test_case "oversized line detected" `Quick
            test_reader_oversized_line;
          Alcotest.test_case "mid-line EOF is EOF" `Quick
            test_reader_eof_mid_line;
          Alcotest.test_case "malformed requests classified" `Quick
            test_request_of_line_errors;
          Alcotest.test_case "schedule vocabulary and phoenix gating" `Quick
            test_schedule_vocabulary;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "record byte-identical to direct compile" `Quick
            test_compile_byte_identity;
          Alcotest.test_case "second identical request hits the cache" `Quick
            test_cache_hit_origin;
          Alcotest.test_case "ping and stats" `Quick test_ping_and_stats;
          Alcotest.test_case "non-finite numbers are parse errors" `Quick
            test_non_finite_is_parse_error;
          Alcotest.test_case "malformed line, connection stays usable" `Quick
            test_malformed_then_usable;
          Alcotest.test_case "oversized request closes the connection" `Quick
            test_oversized_line_closes;
          Alcotest.test_case "mid-request disconnect is clean" `Quick
            test_mid_request_disconnect;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "max_queue 0 sheds every compile" `Quick
            test_overloaded_at_zero_queue;
          Alcotest.test_case "drain refuses new sessions" `Quick
            test_drain_refuses_new_connections;
          Alcotest.test_case "shutdown op drains the daemon" `Quick
            test_shutdown_op_drains;
          Alcotest.test_case "drain finishes in-flight load" `Quick
            test_drain_under_load;
        ] );
    ]
