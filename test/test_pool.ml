(* Tests of the lib/pool batch-compilation service: the domain worker
   pool (submission-order results, per-job exception capture), the
   content-addressed compile cache (two tiers, eviction, fingerprint
   invalidation, torn/corrupt disk entries) and the batch coordinator
   (determinism across --jobs, fault isolation, warm-cache reruns). *)

open Paulihedral
open Ph_pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Pool: ordering, isolation, timings --- *)

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      let inputs = List.init 20 (fun i -> i) in
      let results = Pool.map ~jobs (fun i -> i * i) inputs in
      check_int "one result per input" 20 (List.length results);
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> check_int "submission order" (i * i) v
          | Error _ -> Alcotest.fail "unexpected error")
        results)
    [ 1; 4 ]

exception Boom of int

let test_pool_exception_isolation () =
  let results =
    Pool.map ~jobs:4
      (fun i -> if i = 7 then raise (Boom i) else i + 1)
      (List.init 16 (fun i -> i))
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok v ->
        check "only job 7 fails" true (i <> 7);
        check_int "value" (i + 1) v
      | Error (Boom k) -> check_int "failing job" 7 k
      | Error _ -> Alcotest.fail "wrong exception")
    results

let test_pool_map_timed () =
  let results = Pool.map_timed ~jobs:2 (fun i -> i) (List.init 8 (fun i -> i)) in
  List.iteri
    (fun i (r, t) ->
      (match r with
      | Ok v -> check_int "result" i v
      | Error _ -> Alcotest.fail "unexpected error");
      check "queue wait nonnegative" true (t.Pool.queue_s >= 0.);
      check "run time nonnegative" true (t.Pool.run_s >= 0.))
    results

(* --- Pool: admission control & worker health --- *)

let test_pool_try_submit_bound () =
  let pool = Pool.create ~inline_single:false 1 in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let started = Atomic.make false in
  check "first admitted" true
    (Pool.try_submit pool ~max_pending:2 (fun () ->
         Atomic.set started true;
         Mutex.lock gate;
         Mutex.unlock gate));
  (* once the job is running it still counts against the bound *)
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  check "second admitted" true
    (Pool.try_submit pool ~max_pending:2 (fun () -> ()));
  check_int "pending counts queued plus running" 2 (Pool.pending pool);
  check "rejected at the bound" false
    (Pool.try_submit pool ~max_pending:2 (fun () -> ()));
  Mutex.unlock gate;
  Pool.wait pool;
  check_int "drained" 0 (Pool.pending pool);
  check "admitted again after drain" true
    (Pool.try_submit pool ~max_pending:2 (fun () -> ()));
  Pool.wait pool;
  Pool.shutdown pool

let test_pool_unexpected_exception_counter () =
  let pool = Pool.create ~inline_single:false 2 in
  Pool.submit pool (fun () -> failwith "boom");
  Pool.wait pool;
  let s = Pool.worker_stats pool in
  check_int "escaped exception counted" 1 s.Pool.unexpected_exceptions;
  (* Printexc.to_string (Failure "boom") mentions the payload *)
  let contains sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check "printed form kept" true
    (match s.Pool.last_unexpected with
    | Some m -> contains "boom" m
    | None -> false);
  check_int "no worker died" 0 s.Pool.dead_workers;
  let ok = Atomic.make false in
  Pool.submit pool (fun () -> Atomic.set ok true);
  Pool.wait pool;
  check "worker survived and keeps serving" true (Atomic.get ok);
  Pool.shutdown pool

let test_pool_fatal_exception_replaces_worker () =
  let pool = Pool.create ~inline_single:false 1 in
  Pool.submit pool (fun () -> raise Stack_overflow);
  Pool.wait pool;
  let ok = Atomic.make false in
  Pool.submit pool (fun () -> Atomic.set ok true);
  Pool.wait pool;
  check "replacement worker serves after a fatal job" true (Atomic.get ok);
  let s = Pool.worker_stats pool in
  check_int "fatal exception counted" 1 s.Pool.unexpected_exceptions;
  check_int "worker death recorded" 1 s.Pool.dead_workers;
  (* joining the dead worker must not resurface the fatal exception *)
  Pool.shutdown pool

(* --- Cache: keys, tiers, eviction, corruption --- *)

let test_cache_key () =
  let k1 = Cache.key ~config_fp:"a" ~text:"t" in
  check_str "stable" k1 (Cache.key ~config_fp:"a" ~text:"t");
  check "fingerprint separates" true (k1 <> Cache.key ~config_fp:"b" ~text:"t");
  check "text separates" true (k1 <> Cache.key ~config_fp:"a" ~text:"u");
  (* the two components must not be confusable with each other *)
  check "no concatenation ambiguity" true
    (Cache.key ~config_fp:"ab" ~text:"c" <> Cache.key ~config_fp:"a" ~text:"bc")

(* The exact cache-key strings of the configurations the bench tables
   and phc default to.  A change in how a compile is named must show up
   here, not only as cold caches. *)
let test_config_fingerprints_pinned () =
  List.iter
    (fun (name, config, expected) ->
      check_str name expected (Config.fingerprint config))
    [
      ( "ft default",
        Config.ft (),
        "v=paulihedral/13;schedule=gco;backend=ft;peephole=true;lint=off;window=512;analyze=false;gap=8" );
      ( "table-2 ft DO",
        Config.ft ~schedule:Config.Depth_oriented (),
        "v=paulihedral/13;schedule=do;backend=ft;peephole=true;lint=off;window=512;analyze=false;gap=8" );
      ( "table-2 ft phoenix",
        Config.ft ~schedule:Config.Phoenix_like (),
        "v=paulihedral/13;schedule=phoenix;backend=ft;peephole=true;lint=off;window=512;analyze=false;gap=8" );
      ( "sc manhattan",
        Config.sc Ph_hardware.Devices.manhattan,
        "v=paulihedral/13;schedule=do;backend=sc{n=65;edges="
        ^ "0-1,0-10,1-2,2-3,3-4,4-5,4-11,5-6,6-7,7-8,8-9,8-12,"
        ^ "10-13,11-17,12-21,13-14,14-15,15-16,15-24,16-17,17-18,"
        ^ "18-19,19-20,19-25,20-21,21-22,22-23,23-26,24-29,25-33,"
        ^ "26-37,27-28,27-38,28-29,29-30,30-31,31-32,31-39,32-33,"
        ^ "33-34,34-35,35-36,35-40,36-37,38-41,39-45,40-49,41-42,"
        ^ "42-43,43-44,43-52,44-45,45-46,46-47,47-48,47-53,48-49,"
        ^ "49-50,50-51,51-54,52-56,53-60,54-64,55-56,56-57,57-58,"
        ^ "58-59,59-60,60-61,61-62,62-63,63-64"
        ^ ";noise=none};peephole=true;lint=off;window=512;analyze=false;gap=8" );
      ( "ion trap",
        Config.ion_trap (),
        "v=paulihedral/13;schedule=gco;backend=it;peephole=false;lint=off;window=512;analyze=false;gap=8" );
    ]

let test_cache_memory_tier () =
  let c = Cache.create () in
  let k = Cache.key ~config_fp:"fp" ~text:"prog" in
  check "miss on empty" true (Cache.find c k = None);
  Cache.store c k (Json.String "payload");
  check "hit after store" true (Cache.find c k = Some (Json.String "payload"));
  let counters = Cache.counters c in
  check_int "one memory hit" 1 counters.Cache.hits_mem;
  check_int "one miss" 1 counters.Cache.misses;
  check_int "one store" 1 counters.Cache.stores

let test_cache_eviction () =
  let c = Cache.create ~max_memory_entries:2 () in
  let key i = Cache.key ~config_fp:"fp" ~text:(string_of_int i) in
  List.iter (fun i -> Cache.store c (key i) (Json.Int i)) [ 0; 1; 2 ];
  check_int "oldest evicted" 1 (Cache.counters c).Cache.evictions;
  (* no disk tier: the evicted entry is gone, the newest two remain *)
  check "entry 0 evicted" true (Cache.find c (key 0) = None);
  check "entry 1 kept" true (Cache.find c (key 1) = Some (Json.Int 1));
  check "entry 2 kept" true (Cache.find c (key 2) = Some (Json.Int 2))

let temp_dir () =
  let path = Filename.temp_file "phc-pool-test" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let test_cache_disk_tier () =
  let dir = temp_dir () in
  let k = Cache.key ~config_fp:"fp" ~text:"prog" in
  let writer = Cache.create ~dir () in
  Cache.store writer k (Json.Obj [ "x", Json.Int 1 ]);
  (* a fresh cache on the same directory serves the entry from disk and
     promotes it into memory *)
  let reader = Cache.create ~dir () in
  check "disk hit" true (Cache.find reader k = Some (Json.Obj [ "x", Json.Int 1 ]));
  check_int "served from disk" 1 (Cache.counters reader).Cache.hits_disk;
  check "promoted to memory" true
    (Cache.find reader k = Some (Json.Obj [ "x", Json.Int 1 ]));
  check_int "second hit from memory" 1 (Cache.counters reader).Cache.hits_mem

let test_cache_corrupt_disk_entry () =
  let dir = temp_dir () in
  let k = Cache.key ~config_fp:"fp" ~text:"prog" in
  let oc = open_out (Filename.concat dir (k ^ ".json")) in
  output_string oc "not json {";
  close_out oc;
  let c = Cache.create ~dir () in
  check "corrupt entry is a miss" true (Cache.find c k = None);
  check_int "counted as miss" 1 (Cache.counters c).Cache.misses

(* --- Cache: shared-directory races, stale-temp reclamation --- *)

let no_temps dir =
  Array.for_all
    (fun name -> not (String.length name > 5 && String.sub name 0 5 = ".tmp-"))
    (Sys.readdir dir)

(* Two writers attach to the same *not-yet-existing* directory and store
   concurrently: the mkdir race must be invisible (no lost stores) and
   no writer may leave its temp file behind. *)
let test_cache_concurrent_create_and_store () =
  let dir = temp_dir () in
  Sys.rmdir dir;
  let store_range lo hi () =
    let c = Cache.create ~dir () in
    for i = lo to hi - 1 do
      Cache.store c
        (Cache.key ~config_fp:"fp" ~text:(string_of_int i))
        (Json.Int i)
    done
  in
  let d1 = Domain.spawn (store_range 0 50) in
  let d2 = Domain.spawn (store_range 25 75) in
  Domain.join d1;
  Domain.join d2;
  let reader = Cache.create ~dir () in
  for i = 0 to 74 do
    check
      (Printf.sprintf "store %d survived the race" i)
      true
      (Cache.find reader (Cache.key ~config_fp:"fp" ~text:(string_of_int i))
      = Some (Json.Int i))
  done;
  check "no temp files left behind" true (no_temps dir)

let touch path =
  let oc = open_out path in
  output_string oc "partial write";
  close_out oc

let test_cache_stale_temp_sweep () =
  let dir = temp_dir () in
  (* a demonstrably dead writer pid: a reaped child *)
  let pid =
    Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr
  in
  ignore (Unix.waitpid [] pid);
  let dead = Filename.concat dir (Printf.sprintf ".tmp-aaaa-%d" pid) in
  let live = Filename.concat dir (Printf.sprintf ".tmp-bbbb-%d" (Unix.getpid ())) in
  let junk = Filename.concat dir ".tmp-no-pid-suffix" in
  touch dead;
  touch live;
  touch junk;
  let _ = Cache.create ~dir () in
  check "dead writer's temp swept" false (Sys.file_exists dead);
  check "unparseable temp swept" false (Sys.file_exists junk);
  check "live writer's temp preserved" true (Sys.file_exists live);
  (* entries are untouched by the sweep *)
  let c = Cache.create ~dir () in
  let k = Cache.key ~config_fp:"fp" ~text:"x" in
  Cache.store c k (Json.Int 1);
  let c2 = Cache.create ~dir () in
  check "entry survives a later attach" true (Cache.find c2 k = Some (Json.Int 1))

(* --- Batch: determinism, fault isolation, caching --- *)

(* 20 generated kernels (printed back to concrete syntax, symbolic
   parameters and all) plus two hand-written sources. *)
let corpus () =
  let generated =
    List.init 20 (fun i ->
        let case = Ph_fuzz.Gen.case ~max_qubits:6 ~seed:11 i in
        ( Printf.sprintf "gen-%02d" i,
          Ph_pauli_ir.Parser.to_text case.Ph_fuzz.Gen.program,
          case.Ph_fuzz.Gen.params ))
  in
  generated
  @ [
      "pair", "{(XX, 1.0), 0.5};\n{(ZZ, 1.0), 0.25};\n", [];
      "single", "{(XYZI, 0.5), (IIZZ, -1.0), 1.0};\n", [];
    ]

let jobs_of corpus =
  List.mapi (fun id (name, source, params) -> Batch.job ~id ~name ~params source)
    corpus

let ft_config = Config.ft ()

let report_string ?timings batch =
  Json.to_string ~indent:true (Batch.report_json ?timings batch)

let test_batch_jobs_deterministic () =
  let js = jobs_of (corpus ()) in
  let seq = Batch.run ~jobs:1 ~config:ft_config ~config_name:"ft/do" js in
  let par = Batch.run ~jobs:4 ~config:ft_config ~config_name:"ft/do" js in
  check_int "all ok (sequential)" (List.length js) (Batch.ok_count seq);
  check_str "report byte-identical across --jobs" (report_string seq)
    (report_string par)

let test_batch_fault_isolation () =
  let js =
    jobs_of
      [
        "good-1", "{(XX, 1.0), 0.5};\n", [];
        "bad", "{(XQ, 1.0), 0.5};\n", [];
        "good-2", "{(ZZ, 1.0), 0.25};\n", [];
        (* the parser raises [Invalid_argument] here, not [Parse_error] *)
        "mixed", "{(XX, 1.0), (XXX, 1.0), 0.5};\n", [];
      ]
  in
  let batch = Batch.run ~jobs:4 ~config:ft_config ~config_name:"ft/do" js in
  check_int "two jobs still complete" 2 (Batch.ok_count batch);
  Alcotest.(check (list (pair string string)))
    "both failures isolated at parse"
    [ "bad", "parse"; "mixed", "parse" ]
    (List.map
       (fun (o : Batch.outcome) ->
         ( o.Batch.job.Batch.name,
           match o.Batch.result with
           | Batch.Failed f -> f.stage
           | Batch.Ok _ -> "ok" ))
       (Batch.failed batch))

let records_of batch =
  List.filter_map
    (fun (o : Batch.outcome) ->
      match o.Batch.result with
      | Batch.Ok r -> Some (Json.to_string (Report.record_to_json (Report.normalize_record r)))
      | Batch.Failed _ -> None)
    batch.Batch.outcomes

let test_batch_cache_warm_rerun () =
  let cache = Cache.create () in
  let js = jobs_of (corpus ()) in
  let cold = Batch.run ~cache ~jobs:2 ~config:ft_config ~config_name:"ft/do" js in
  let warm = Batch.run ~cache ~jobs:2 ~config:ft_config ~config_name:"ft/do" js in
  check_int "cold run compiled everything" 0 cold.Batch.stats.Report.cache_hits;
  check_int "warm run is 100% hits" (List.length js)
    warm.Batch.stats.Report.cache_hits;
  check_int "warm run compiled nothing" 0 warm.Batch.stats.Report.cache_misses;
  check "every warm outcome is cache-served" true
    (List.for_all
       (fun (o : Batch.outcome) -> o.Batch.origin = Batch.From_cache)
       warm.Batch.outcomes);
  Alcotest.(check (list string))
    "warm records identical to cold" (records_of cold) (records_of warm)

(* Entries written by earlier compiler versions must miss:
   [paulihedral/10] records carry older peephole probe counts, and
   [paulihedral/11] SC records with lint on carry older
   [alloc_lint_words].  The same payloads under the current fingerprint
   hit, so the misses come from the version tag alone. *)
let test_batch_previous_version_misses () =
  let js = jobs_of (corpus ()) in
  let fresh = Batch.run ~jobs:1 ~config:ft_config ~config_name:"ft/do" js in
  let fp = Config.fingerprint ft_config in
  let tag = "v=" ^ Config.version_tag ^ ";" in
  check "fingerprint leads with the version tag" true (String.starts_with ~prefix:tag fp);
  let fp_under version =
    "v=" ^ version ^ ";" ^ String.sub fp (String.length tag) (String.length fp - String.length tag)
  in
  let cache_written_under config_fp =
    let dir = temp_dir () in
    let c = Cache.create ~dir () in
    List.iter
      (fun (o : Batch.outcome) ->
        match o.Batch.result with
        | Batch.Ok r ->
          let j = o.Batch.job in
          let program = Ph_pauli_ir.Parser.parse ~params:j.Batch.params j.Batch.source in
          Batch.publish c (Batch.key ~config_fp program) ~verified:true r
        | Batch.Failed _ -> ())
      fresh.Batch.outcomes;
    Cache.create ~dir ()
  in
  let hits cache =
    (Batch.run ~cache ~jobs:2 ~config:ft_config ~config_name:"ft/do" js).Batch.stats
      .Report.cache_hits
  in
  List.iter
    (fun version ->
      check_int (version ^ " entries never hit") 0
        (hits (cache_written_under (fp_under version))))
    [ "paulihedral/10"; "paulihedral/11" ];
  check_int "current-version entries hit" (Batch.ok_count fresh)
    (hits (cache_written_under fp))

let test_batch_stale_fingerprint_misses () =
  let cache = Cache.create () in
  let js = jobs_of (corpus ()) in
  let _ = Batch.run ~cache ~jobs:2 ~config:ft_config ~config_name:"ft/do" js in
  (* a different window changes the config fingerprint, so every lookup
     must miss even though the sources are unchanged *)
  let stale_config = Config.ft ~window:3 () in
  check "fingerprints differ" true
    (Config.fingerprint ft_config <> Config.fingerprint stale_config);
  let rerun =
    Batch.run ~cache ~jobs:2 ~config:stale_config ~config_name:"ft/do-w3" js
  in
  check_int "no stale hits" 0 rerun.Batch.stats.Report.cache_hits;
  check "everything recompiled" true
    (List.for_all
       (fun (o : Batch.outcome) -> o.Batch.origin = Batch.Compiled)
       rerun.Batch.outcomes)

(* An unverified compile is never published: a --no-verify batch
   stores nothing, so a verified rerun on the same cache compiles
   everything again instead of trusting unchecked records. *)
let test_batch_unverified_never_published () =
  let cache = Cache.create () in
  let js = jobs_of (corpus ()) in
  let unverified =
    Batch.run ~cache ~verify:false ~jobs:2 ~config:ft_config
      ~config_name:"ft/do" js
  in
  check_int "unverified run completes" (List.length js)
    (Batch.ok_count unverified);
  check_int "unverified run stores nothing" 0 (Cache.counters cache).Cache.stores;
  let verified =
    Batch.run ~cache ~jobs:2 ~config:ft_config ~config_name:"ft/do" js
  in
  check "verified rerun served nothing from the cache" true
    (List.for_all
       (fun (o : Batch.outcome) -> o.Batch.origin <> Batch.From_cache)
       verified.Batch.outcomes);
  check "verified rerun stores its compiles" true
    ((Cache.counters cache).Cache.stores > 0)

(* A hit written under other labels (another file name, another
   writer's config label) comes back with the caller's. *)
let test_batch_hit_carries_caller_labels () =
  let cache = Cache.create () in
  let js = jobs_of (corpus ()) in
  let writer_js =
    List.map (fun (j : Batch.job) -> { j with Batch.name = "w-" ^ j.Batch.name }) js
  in
  ignore (Batch.run ~cache ~config:ft_config ~config_name:"writer/PH" writer_js);
  let warm = Batch.run ~cache ~config:ft_config ~config_name:"ft/do" js in
  List.iter
    (fun (o : Batch.outcome) ->
      check "served from the cache" true (o.Batch.origin = Batch.From_cache);
      match o.Batch.result with
      | Batch.Ok r ->
        check_str "caller's bench" o.Batch.job.Batch.name r.Report.bench;
        check_str "caller's config" "ft/do" r.Report.config
      | Batch.Failed _ -> Alcotest.fail "cache hit failed")
    warm.Batch.outcomes

let test_batch_coalesces_duplicates () =
  let js =
    jobs_of
      [
        "a", "{(XX, 1.0), 0.5};\n", [];
        "b", "{(XX, 1.0), 0.5};\n", [];
        "c", "{(ZZ, 1.0), 0.5};\n", [];
      ]
  in
  let cache = Cache.create () in
  let batch = Batch.run ~cache ~jobs:2 ~config:ft_config ~config_name:"ft/do" js in
  check_int "all ok" 3 (Batch.ok_count batch);
  let origins = List.map (fun o -> o.Batch.origin) batch.Batch.outcomes in
  check "duplicate coalesced onto the first compile" true
    (origins = [ Batch.Compiled; Batch.Coalesced; Batch.Compiled ]);
  match batch.Batch.outcomes with
  | [ _; o; _ ] -> (
    match o.Batch.result with
    | Batch.Ok r -> check_str "record renamed to the follower" "b" r.Report.bench
    | Batch.Failed _ -> Alcotest.fail "coalesced job failed")
  | _ -> Alcotest.fail "expected three outcomes"

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves submission order" `Quick
            test_pool_map_order;
          Alcotest.test_case "exception isolated to its job" `Quick
            test_pool_exception_isolation;
          Alcotest.test_case "map_timed reports timings" `Quick
            test_pool_map_timed;
          Alcotest.test_case "try_submit enforces the admission bound" `Quick
            test_pool_try_submit_bound;
          Alcotest.test_case "escaped exception counted, worker survives"
            `Quick test_pool_unexpected_exception_counter;
          Alcotest.test_case "fatal exception kills and replaces the worker"
            `Quick test_pool_fatal_exception_replaces_worker;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key derivation" `Quick test_cache_key;
          Alcotest.test_case "config fingerprints pinned" `Quick
            test_config_fingerprints_pinned;
          Alcotest.test_case "memory tier" `Quick test_cache_memory_tier;
          Alcotest.test_case "FIFO eviction" `Quick test_cache_eviction;
          Alcotest.test_case "disk tier reload" `Quick test_cache_disk_tier;
          Alcotest.test_case "corrupt disk entry is a miss" `Quick
            test_cache_corrupt_disk_entry;
          Alcotest.test_case "concurrent create+store on one directory" `Quick
            test_cache_concurrent_create_and_store;
          Alcotest.test_case "stale temps swept, live temps preserved" `Quick
            test_cache_stale_temp_sweep;
        ] );
      ( "batch",
        [
          Alcotest.test_case "--jobs 4 report identical to --jobs 1" `Quick
            test_batch_jobs_deterministic;
          Alcotest.test_case "parse failure isolated" `Quick
            test_batch_fault_isolation;
          Alcotest.test_case "warm rerun: 100% hits, identical records" `Quick
            test_batch_cache_warm_rerun;
          Alcotest.test_case "stale config fingerprint misses" `Quick
            test_batch_stale_fingerprint_misses;
          Alcotest.test_case "previous version's entries miss" `Quick
            test_batch_previous_version_misses;
          Alcotest.test_case "in-batch duplicates coalesce" `Quick
            test_batch_coalesces_duplicates;
          Alcotest.test_case "unverified compiles are never published" `Quick
            test_batch_unverified_never_published;
          Alcotest.test_case "a hit carries the caller's labels" `Quick
            test_batch_hit_carries_caller_labels;
        ] );
    ]
