(* The compile daemon.  Thread/domain split:

   - one ACCEPT THREAD owns the listening socket and, at drain time,
     runs the drain sequence;
   - one READER THREAD per connection parses NDJSON requests and writes
     responses (a connection's requests are served strictly in order,
     so responses need no reordering machinery);
   - [jobs] WORKER DOMAINS ([Ph_pool.Pool], never inline) execute the
     compile jobs — reader threads block on a result cell, so OS
     threads do the I/O waiting and domains do the parallel work.

   Lock order: the server state mutex may be taken around
   [Pool.try_submit] (which takes the pool mutex), never the other way
   around.  Result cells have their own mutex and are leaves. *)

module Json = Ph_json
module Pool = Ph_pool.Pool
module Cache = Ph_pool.Cache
module Batch = Ph_pool.Batch
module Parser = Ph_pauli_ir.Parser
module Program = Ph_pauli_ir.Program
open Paulihedral

type config = {
  address : Protocol.address;
  jobs : int;
  max_queue : int;
  max_line : int;
  cache : Cache.t option;
  log : string -> unit;
}

let config ?(jobs = 1) ?(max_queue = 64) ?(max_line = Protocol.default_max_line)
    ?cache ?(log = ignore) address =
  { address; jobs; max_queue; max_line; cache; log }

(* Running geomean accumulator for one optimality-gap metric: count of
   compiles that had a nonzero floor and the sum of log gap ratios. *)
type gap_agg = {
  mutable gap_n : int;
  mutable gap_log : float;
}

(* Aggregated per-stage compile times (from [Report.trace]) across every
   job this daemon compiled — the `stats` request's timing block. *)
type stage_totals = {
  mutable agg_compiles : int;
  mutable agg_compile_s : float;  (** end-to-end, [metrics.seconds] *)
  mutable agg_schedule_s : float;
  mutable agg_synthesis_s : float;
  mutable agg_swap_s : float;
  mutable agg_peephole_s : float;
  mutable agg_lint_s : float;
  mutable agg_analyzed : int;  (** compiles that carried an analysis *)
  agg_gap_depth : gap_agg;
  agg_gap_cnot : gap_agg;
  agg_gap_single : gap_agg;
  agg_gap_total : gap_agg;
}

type counters = {
  mutable c_compiled : int;  (** compile requests answered by a compile *)
  mutable c_cache_hits : int;  (** compile requests answered by the cache *)
  mutable c_failed : int;  (** parse / compile / lint / verify failures *)
  mutable c_overloaded : int;  (** rejected by admission control *)
  mutable c_rejected : int;  (** bad_json / bad_request / oversized *)
  mutable c_stats : int;
  mutable c_ping : int;
  mutable c_connections : int;  (** accepted since start *)
}

type conn = {
  conn_fd : Unix.file_descr;
  mutable conn_thread : Thread.t option;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : Protocol.address;
  pool : Pool.t;
  stop : bool Atomic.t;  (** drain requested *)
  m : Mutex.t;
  cond : Condition.t;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  mutable draining : bool;  (** admissions closed *)
  mutable drained : bool;  (** drain sequence finished *)
  mutable active : int;  (** admitted compile requests awaiting response *)
  counters : counters;
  totals : stage_totals;
  started_at : float;
  mutable accept_thread : Thread.t option;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let address t = t.bound

(* ---------- result cells (reader thread ⇄ worker domain) ---------- *)

type 'a cell = {
  cell_m : Mutex.t;
  cell_c : Condition.t;
  mutable cell_v : 'a option;
}

let cell () = { cell_m = Mutex.create (); cell_c = Condition.create (); cell_v = None }

let cell_fill c v =
  Mutex.lock c.cell_m;
  c.cell_v <- Some v;
  Condition.broadcast c.cell_c;
  Mutex.unlock c.cell_m

let cell_take c =
  Mutex.lock c.cell_m;
  while c.cell_v = None do
    Condition.wait c.cell_c c.cell_m
  done;
  let v = Option.get c.cell_v in
  Mutex.unlock c.cell_m;
  v

(* ---------- socket helpers ---------- *)

let send_json fd json =
  let b = Bytes.of_string (Json.to_string json ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | n -> go (off + n)
  in
  (* a vanished peer is the peer's problem; the daemon just moves on *)
  match go 0 with () -> true | exception Unix.Unix_error _ -> false

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let shutdown_quiet fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* ---------- one compile job (runs on a worker domain) ---------- *)

(* The raw record keeps its timings, for stats; [Error (stage, message)]
   otherwise. *)
let compile_now ~(req : Protocol.compile_request) ~config ~config_name ~cache
    ~key program =
  let result =
    Batch.compile_record ~config ~config_name ~verify:req.Protocol.verify
      ~name:req.Protocol.name program
  in
  (* only verified compiles are published to the shared cache *)
  (match result, key, cache with
  | Ok record, Some k, Some c when req.Protocol.verify ->
    Cache.store c k (Batch.payload_of_record record)
  | _ -> ());
  result

(* ---------- request dispatch (runs on a reader thread) ---------- *)

let record_response ~id ~origin record =
  Protocol.ok ~id
    [
      "origin", Json.String origin;
      "record", Report.record_to_json (Report.normalize_record record);
    ]

let note_compiled t (record : Report.record) =
  let tr = record.Report.trace in
  let tot = t.totals in
  tot.agg_compiles <- tot.agg_compiles + 1;
  tot.agg_compile_s <- tot.agg_compile_s +. record.Report.metrics.Report.seconds;
  tot.agg_schedule_s <- tot.agg_schedule_s +. tr.Report.schedule_s;
  tot.agg_synthesis_s <- tot.agg_synthesis_s +. tr.Report.synthesis_s;
  tot.agg_swap_s <- tot.agg_swap_s +. tr.Report.swap_decompose_s;
  tot.agg_peephole_s <- tot.agg_peephole_s +. tr.Report.peephole_s;
  tot.agg_lint_s <- tot.agg_lint_s +. tr.Report.lint_s;
  match tr.Report.analysis with
  | None -> ()
  | Some s ->
    tot.agg_analyzed <- tot.agg_analyzed + 1;
    let fold agg = function
      | None -> ()
      | Some g when g > 0. ->
        agg.gap_n <- agg.gap_n + 1;
        agg.gap_log <- agg.gap_log +. log g
      | Some _ -> ()
    in
    fold tot.agg_gap_depth s.Ph_analysis.Gap.gap_depth;
    fold tot.agg_gap_cnot s.Ph_analysis.Gap.gap_cnot;
    fold tot.agg_gap_single s.Ph_analysis.Gap.gap_single;
    fold tot.agg_gap_total s.Ph_analysis.Gap.gap_total

let respond_compile t ~id (req : Protocol.compile_request) =
  match Parser.parse ~params:req.Protocol.params req.Protocol.source with
  | exception Parser.Parse_error m ->
    locked t (fun () -> t.counters.c_failed <- t.counters.c_failed + 1);
    Protocol.error ~id ~code:"parse" m
  | exception e ->
    locked t (fun () -> t.counters.c_failed <- t.counters.c_failed + 1);
    Protocol.error ~id ~code:"parse" (Printexc.to_string e)
  | program -> (
    match
      Protocol.config_for ~analyze:req.Protocol.analyze
        ~sched_jobs:req.Protocol.sched_jobs ~backend:req.Protocol.backend
        ~device:req.Protocol.device ~schedule:req.Protocol.schedule
        ~lint:req.Protocol.lint ~window:req.Protocol.window ()
    with
    | Error (`Msg m) ->
      locked t (fun () -> t.counters.c_rejected <- t.counters.c_rejected + 1);
      Protocol.error ~id ~code:"bad_request" m
    | Ok cconfig -> (
      let config_name =
        Protocol.config_name ~backend:req.Protocol.backend
          ~device:req.Protocol.device ~schedule:req.Protocol.schedule
      in
      let cache = if Config.cacheable cconfig then t.cfg.cache else None in
      let key =
        Option.map
          (fun _ ->
            Cache.key
              ~config_fp:(Config.fingerprint cconfig)
              ~text:(Batch.canonical_text program))
          cache
      in
      let hit =
        match key, cache with
        | Some k, Some c -> Option.bind (Cache.find c k) Batch.record_of_payload
        | _ -> None
      in
      match hit with
      | Some record ->
        (* warm answer: relabel to this request's identity, skip the pool
           entirely — cache hits are served even under full queues *)
        locked t (fun () ->
            t.counters.c_cache_hits <- t.counters.c_cache_hits + 1);
        record_response ~id ~origin:"cache"
          { record with Report.bench = req.Protocol.name; config = config_name }
      | None -> (
        let result = cell () in
        let job () =
          cell_fill result
            (compile_now ~req ~config:cconfig ~config_name ~cache ~key program)
        in
        let admission =
          locked t (fun () ->
              if t.draining then `Draining
              else if Pool.try_submit t.pool ~max_pending:t.cfg.max_queue job
              then begin
                t.active <- t.active + 1;
                `Admitted
              end
              else begin
                t.counters.c_overloaded <- t.counters.c_overloaded + 1;
                `Overloaded
              end)
        in
        match admission with
        | `Draining -> Protocol.error ~id ~code:"draining" "daemon is draining"
        | `Overloaded ->
          Protocol.error ~id ~code:"overloaded"
            ~extra:
              [
                "queue_depth", Json.Int (Pool.pending t.pool);
                "max_queue", Json.Int t.cfg.max_queue;
              ]
            "admission queue full, retry later"
        | `Admitted -> (
          let r = cell_take result in
          locked t (fun () ->
              t.active <- t.active - 1;
              Condition.broadcast t.cond;
              match r with
              | Ok record ->
                t.counters.c_compiled <- t.counters.c_compiled + 1;
                note_compiled t record
              | Error _ -> t.counters.c_failed <- t.counters.c_failed + 1);
          match r with
          | Ok record -> record_response ~id ~origin:"compiled" record
          | Error (stage, m) -> Protocol.error ~id ~code:stage m))))

let stats_json t =
  let pool_stats = Pool.worker_stats t.pool in
  locked t (fun () ->
      let c = t.counters and tot = t.totals in
      Json.Obj
        [
          "schema", Json.String "phc-serve-stats/1";
          "uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at);
          "draining", Json.Bool t.draining;
          ( "requests",
            Json.Obj
              [
                "compiled", Json.Int c.c_compiled;
                "cache_hits", Json.Int c.c_cache_hits;
                "failed", Json.Int c.c_failed;
                "overloaded", Json.Int c.c_overloaded;
                "rejected", Json.Int c.c_rejected;
                "stats", Json.Int c.c_stats;
                "ping", Json.Int c.c_ping;
                "connections", Json.Int c.c_connections;
              ] );
          ( "queue",
            Json.Obj
              [
                "depth", Json.Int (Pool.pending t.pool);
                "active", Json.Int t.active;
                "max_queue", Json.Int t.cfg.max_queue;
                "workers", Json.Int t.cfg.jobs;
              ] );
          ( "workers",
            Json.Obj
              [
                ( "unexpected_exceptions",
                  Json.Int pool_stats.Pool.unexpected_exceptions );
                ( "last_unexpected",
                  match pool_stats.Pool.last_unexpected with
                  | None -> Json.Null
                  | Some s -> Json.String s );
                "dead", Json.Int pool_stats.Pool.dead_workers;
              ] );
          ( "cache",
            match t.cfg.cache with
            | None -> Json.Null
            | Some cache -> Cache.counters_to_json (Cache.counters cache) );
          ( "stages",
            Json.Obj
              [
                "compiles", Json.Int tot.agg_compiles;
                "compile_s", Json.Float tot.agg_compile_s;
                "schedule_s", Json.Float tot.agg_schedule_s;
                "synthesis_s", Json.Float tot.agg_synthesis_s;
                "swap_decompose_s", Json.Float tot.agg_swap_s;
                "peephole_s", Json.Float tot.agg_peephole_s;
                "lint_s", Json.Float tot.agg_lint_s;
              ] );
          (* optimality-gap geomeans over every analyzed compile *)
          ( "analysis",
            let geo agg =
              if agg.gap_n = 0 then Json.Null
              else Json.Float (exp (agg.gap_log /. float_of_int agg.gap_n))
            in
            Json.Obj
              [
                "analyzed", Json.Int tot.agg_analyzed;
                "gap_depth_geomean", geo tot.agg_gap_depth;
                "gap_cnot_geomean", geo tot.agg_gap_cnot;
                "gap_single_geomean", geo tot.agg_gap_single;
                "gap_total_geomean", geo tot.agg_gap_total;
              ] );
          (* process-wide work-counter totals summed over all domains
             (worker pool + reader threads); monotone but racy reads,
             for observability rather than gating *)
          ( "perf",
            Json.Obj
              (List.map
                 (fun (k, v) -> k, Json.Int v)
                 (Ph_perf.Counter.totals_assoc ())) );
        ])

let stats_summary t =
  let c = t.counters in
  let cache_part =
    match t.cfg.cache with
    | None -> ""
    | Some cache ->
      let cc = Cache.counters cache in
      Printf.sprintf " cache_hits=%d cache_misses=%d" (Cache.hits cc)
        cc.Cache.misses
  in
  locked t (fun () ->
      Printf.sprintf
        "compiled=%d served_from_cache=%d failed=%d overloaded=%d rejected=%d \
         connections=%d%s"
        c.c_compiled c.c_cache_hits c.c_failed c.c_overloaded c.c_rejected
        c.c_connections cache_part)

let respond t ~id request =
  match request with
  | Protocol.Ping ->
    locked t (fun () -> t.counters.c_ping <- t.counters.c_ping + 1);
    Protocol.ok ~id [ "pong", Json.Bool true ]
  | Protocol.Stats ->
    locked t (fun () -> t.counters.c_stats <- t.counters.c_stats + 1);
    Protocol.ok ~id [ "stats", stats_json t ]
  | Protocol.Shutdown ->
    Atomic.set t.stop true;
    Protocol.ok ~id [ "draining", Json.Bool true ]
  | Protocol.Compile req -> respond_compile t ~id req

(* ---------- connection reader ---------- *)

let unregister t conn_id =
  locked t (fun () -> Hashtbl.remove t.conns conn_id)

let handle_conn t conn_id fd =
  let reader = Protocol.reader fd in
  let rec loop () =
    match Protocol.read_line ~max_bytes:t.cfg.max_line reader with
    | `Eof -> () (* includes a peer that vanished mid-line: clean close *)
    | `Oversized ->
      (* framing is unrecoverable: answer once, then hang up *)
      locked t (fun () -> t.counters.c_rejected <- t.counters.c_rejected + 1);
      ignore
        (send_json fd
           (Protocol.error ~id:Json.Null ~code:"oversized"
              (Printf.sprintf "request line exceeds %d bytes" t.cfg.max_line)))
    | `Line line ->
      let response =
        match Protocol.request_of_line line with
        | Ok (id, request) -> respond t ~id request
        | Error { Protocol.err_id; code; message } ->
          locked t (fun () ->
              t.counters.c_rejected <- t.counters.c_rejected + 1);
          Protocol.error ~id:err_id ~code message
      in
      if send_json fd response then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      unregister t conn_id;
      close_quiet fd)
    loop

(* ---------- accept loop + drain (runs on the accept thread) ---------- *)

let do_drain t =
  t.cfg.log "drain: stopped accepting, waiting for in-flight jobs";
  close_quiet t.listen_fd;
  (* close admissions, then let every admitted job answer *)
  locked t (fun () ->
      t.draining <- true;
      while t.active > 0 do
        Condition.wait t.cond t.m
      done);
  (* idle connections: wake their readers with EOF and collect them *)
  let conns = locked t (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []) in
  List.iter (fun c -> shutdown_quiet c.conn_fd) conns;
  List.iter
    (fun c -> match c.conn_thread with Some th -> Thread.join th | None -> ())
    conns;
  Pool.shutdown t.pool;
  locked t (fun () ->
      t.drained <- true;
      Condition.broadcast t.cond);
  t.cfg.log ("drain: complete; " ^ stats_summary t)

let accept_loop t () =
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      (* short select timeout: the poll that notices a drain request
         (signal handlers only set the atomic flag) *)
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception Unix.Unix_error (_, _, _) -> ()
        | fd, _ ->
          let conn = { conn_fd = fd; conn_thread = None } in
          let conn_id =
            locked t (fun () ->
                let id = t.next_conn in
                t.next_conn <- id + 1;
                t.counters.c_connections <- t.counters.c_connections + 1;
                Hashtbl.add t.conns id conn;
                id)
          in
          conn.conn_thread <- Some (Thread.create (handle_conn t conn_id) fd)));
      loop ()
    end
  in
  loop ();
  do_drain t

(* ---------- lifecycle ---------- *)

let bind_listen = function
  | Protocol.Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
       Unix.listen fd 128
     with e ->
       close_quiet fd;
       raise e);
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> Protocol.Tcp (host, p)
      | _ -> Protocol.Tcp (host, port)
    in
    fd, bound
  | Protocol.Unix_path path as addr ->
    (* a previous daemon's socket file blocks bind: remove it (connect
       to a live one fails visibly at bind anyway on most systems only
       after unlink, so an explicit stale file is the common case) *)
    if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 128
     with e ->
       close_quiet fd;
       raise e);
    fd, addr

let start cfg =
  if cfg.jobs < 1 then invalid_arg "Server.start: jobs must be positive";
  if cfg.max_queue < 0 then invalid_arg "Server.start: max_queue must be >= 0";
  (* a client hanging up mid-response must surface as EPIPE, not kill
     the process *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let listen_fd, bound = bind_listen cfg.address in
  let t =
    {
      cfg;
      listen_fd;
      bound;
      pool = Pool.create ~inline_single:false cfg.jobs;
      stop = Atomic.make false;
      m = Mutex.create ();
      cond = Condition.create ();
      conns = Hashtbl.create 16;
      next_conn = 0;
      draining = false;
      drained = false;
      active = 0;
      counters =
        {
          c_compiled = 0;
          c_cache_hits = 0;
          c_failed = 0;
          c_overloaded = 0;
          c_rejected = 0;
          c_stats = 0;
          c_ping = 0;
          c_connections = 0;
        };
      totals =
        {
          agg_compiles = 0;
          agg_compile_s = 0.;
          agg_schedule_s = 0.;
          agg_synthesis_s = 0.;
          agg_swap_s = 0.;
          agg_peephole_s = 0.;
          agg_lint_s = 0.;
          agg_analyzed = 0;
          agg_gap_depth = { gap_n = 0; gap_log = 0. };
          agg_gap_cnot = { gap_n = 0; gap_log = 0. };
          agg_gap_single = { gap_n = 0; gap_log = 0. };
          agg_gap_total = { gap_n = 0; gap_log = 0. };
        };
      started_at = Unix.gettimeofday ();
      accept_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  cfg.log
    (Printf.sprintf "listening on %s (jobs=%d max_queue=%d cache=%s)"
       (Protocol.address_to_string bound)
       cfg.jobs cfg.max_queue
       (match cfg.cache with
       | None -> "off"
       | Some c -> ( match Cache.dir c with None -> "memory" | Some d -> d)));
  t

let request_drain t = Atomic.set t.stop true

let wait t =
  locked t (fun () ->
      while not t.drained do
        Condition.wait t.cond t.m
      done);
  match t.accept_thread with
  | Some th ->
    Thread.join th;
    t.accept_thread <- None
  | None -> ()

let drain t =
  request_drain t;
  wait t

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> request_drain t) in
  ignore (Sys.signal Sys.sigterm handle);
  ignore (Sys.signal Sys.sigint handle)
