(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --self-test

   Workloads: ft-chem, ft-wide, sc-route (the compile path) and
   serve-mix (an in-process daemon).  With --trace 0 the run measures
   the end-to-end metrics with tracing off; with --trace 1 it replays
   every job layer by layer under spans, writes the spans to
   .perfbench/trace-W-N.json and reports the per-layer metrics.  The last
   line of standard output is one JSON object:
     {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
   and the exit code is nonzero when any output failed its check.  A
   human-readable summary goes to standard error. *)

open Paulihedral
module Server = Ph_serve.Server

let compile_workloads =
  [ "ft-chem", Inputs.ft_chem; "ft-wide", Inputs.ft_wide; "sc-route", Inputs.sc_route ]

let setup_repeats = 5

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let ms x = 1000. *. x

(* Run [f] [setup_repeats] times; the median time and the last value.
   [discard] releases every value but the last. *)
let repeat_setup ?(discard = ignore) f =
  let rec go k times =
    let v, dt = Util.timed f in
    if k = 1 then v, Util.median (dt :: times)
    else begin
      discard v;
      go (k - 1) (dt :: times)
    end
  in
  go setup_repeats []

type tally = { mutable attempted : int; mutable failed : int }

let fail t fmt =
  t.failed <- t.failed + 1;
  Printf.ksprintf (fun m -> if t.failed <= 5 then Util.log "FAILED %s" m) fmt

(* ---------- compile workloads, tracing off ---------- *)

let measure_compile ?(compact = true) ~seconds items setup_s =
  let items = Array.of_list items in
  let n = Array.length items in
  let t = { attempted = 0; failed = 0 } in
  let baseline = Array.make n None in
  let per_item = Array.make n [] in
  let passes = ref [] in
  let start = Util.now () in
  while List.length !passes < 3 || Util.now () -. start < seconds do
    let pass = ref 0. in
    Array.iteri
      (fun i (item : Inputs.item) ->
        t.attempted <- t.attempted + 1;
        (* every compile starts from the same settled heap, as a fresh
           phc compile process would *)
        if compact then Gc.compact ();
        match Util.timed (fun () -> Compile_path.run item) with
        | exception e -> fail t "%s: %s" item.Inputs.name (Printexc.to_string e)
        | r, dt -> (
          pass := !pass +. dt;
          per_item.(i) <- dt :: per_item.(i);
          let counts = Compile_path.counts r in
          if not r.Compile_path.verified then
            fail t "%s: Pauli-frame verification" item.Inputs.name
          else
            match baseline.(i) with
            | None ->
              baseline.(i) <- Some counts;
              if not (Compile_path.certificate_ok r) then
                fail t "%s: certificate replay" item.Inputs.name
            | Some c when c <> counts -> fail t "%s: counts changed between passes" item.Inputs.name
            | Some _ -> ()))
      items;
    passes := !pass :: !passes
  done;
  let geo f =
    Util.geomean
      (Array.to_list baseline |> List.filter_map (Option.map (fun c -> float_of_int (f c))))
  in
  let job_s = Array.to_list (Array.map Util.median per_item) in
  if n <= 36 then
    List.iteri
      (fun i t ->
        match baseline.(i) with
        | Some (c, s, _, d) ->
          Util.log "  %-22s %-20s %10.3f ms  cnot %6d single %6d depth %6d"
            items.(i).Inputs.name (Inputs.config_name items.(i)) (ms t) c s d
        | None -> ())
      job_s;
  let pass_times = Util.sorted !passes in
  Util.log "%d passes, %d compiles; pass time min %.3f median %.3f max %.3f s"
    (Array.length pass_times) t.attempted pass_times.(0)
    (Util.percentile pass_times 50.)
    pass_times.(Array.length pass_times - 1);
  {
    attempted = t.attempted;
    failed = t.failed;
    metrics =
      [
        "suite_s", Util.median !passes, "s";
        "compile_s.geomean", Util.geomean job_s, "s";
        "cnot", geo (fun (c, _, _, _) -> c), "count";
        "single", geo (fun (_, s, _, _) -> s), "count";
        "depth", geo (fun (_, _, _, d) -> d), "count";
        "peak_rss_mb", Util.peak_rss_mb (), "MB";
        "setup_s", setup_s, "s";
      ];
  }

(* ---------- serve-mix, tracing off ---------- *)

let late_ms samples =
  Array.to_list samples
  |> List.filter (fun (s : Load.sample) -> s.Load.idle)
  |> List.map (fun s -> ms (Load.wait s))
  |> Util.sorted
  |> fun a -> Util.percentile a 99.

let log_pool ~seed (env : Serve_mix.env) =
  Util.log "serve-mix seed %d: %d programs, inputs md5 %s" seed
    (Array.length env.Serve_mix.pool)
    (Inputs.digest (Array.to_list env.Serve_mix.pool))

(* serve-mix, tracing off.  The metrics time the pool's first
   [Serve_mix.compile_jobs] jobs on the compile path, as the compile workloads do.
   The daemon traffic that follows is correctness-checked like every
   output, but its latencies only go to stderr: on a shared 2-CPU
   container they swing by 2x between runs, far beyond any regression
   bound (see README.md). *)
let measure_serve ~seed ~seconds =
  let plan = Serve_mix.plan ~seconds:(0.4 *. seconds) in
  let env, setup_s = repeat_setup ~discard:Serve_mix.stop (fun () -> Serve_mix.setup ~seed plan) in
  log_pool ~seed env;
  let jobs = Array.to_list (Array.sub env.Serve_mix.pool 0 Serve_mix.compile_jobs) in
  let r = measure_compile ~compact:false ~seconds:(0.6 *. seconds) jobs setup_s in
  let t = Serve_mix.tally () in
  let p = Serve_mix.run env t ~seed plan in
  Serve_mix.stop env;
  Serve_mix.check_references t env;
  let l1 = Serve_mix.latencies_ms p.Serve_mix.at_r1 and l2 = Serve_mix.latencies_ms p.Serve_mix.at_r2 in
  let pct a = Util.(percentile a 50., percentile a 90., percentile a 99.) in
  let (a50, a90, a99), (b50, b90, b99) = pct l1, pct l2 in
  Util.log
    "daemon: closed loop %.0f req/s; r1=%.0f/s: p50 %.3f p90 %.3f p99 %.3f ms (n=%d); r2=%.0f/s: p50 %.3f p90 %.3f p99 %.3f ms (n=%d); hit share %.3f; generator late p99 %.3f ms"
    (float_of_int plan.Serve_mix.slice /. Util.median p.Serve_mix.slices)
    Serve_mix.r1 a50 a90 a99 (Array.length l1) Serve_mix.r2 b50 b90 b99 (Array.length l2)
    (float_of_int t.Serve_mix.hits /. float_of_int t.Serve_mix.attempted)
    (late_ms (Array.append p.Serve_mix.at_r1 p.Serve_mix.at_r2));
  {
    attempted = r.attempted + t.Serve_mix.attempted;
    failed = r.failed + t.Serve_mix.failed;
    metrics =
      List.map
        (fun ((k, _, u) as m) -> if k = "peak_rss_mb" then k, Util.peak_rss_mb (), u else m)
        r.metrics;
  }

(* ---------- traced runs: per-layer metrics ---------- *)

type layers = {
  spans : Span.t list;
  jobs : Replay.job list;
}

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let named spans name = List.filter (fun s -> s.Span.name = name) spans
let dur spans name = sum (Span.self_time spans) (named spans name)
let alloc spans name = sum (fun s -> s.Span.alloc_words) (named spans name)

let count spans names key =
  sum (fun s -> if List.mem s.Span.name names then float_of_int (Span.counter s key) else 0.) spans

let jsum f jobs = sum (fun j -> float_of_int (f j)) jobs
let ratio a b = if b = 0. then 0. else a /. b

(* Counter-based metrics: must repeat exactly across two traced passes. *)
let exact_counts { spans; jobs } =
  [
    "schedule.candidates", count spans [ "schedule" ] "sched_candidates";
    "schedule.leader_scans", count spans [ "schedule" ] "sched_leader_scans";
    "gatelevel.peephole_probes", count spans [ "gatelevel.peephole" ] "peephole_probes";
    "gatelevel.peephole_rounds", jsum (fun j -> j.Replay.rounds) jobs;
    "pauli.words", count spans Replay.stage_names "pauli_words";
    "synthesis.gates_built", count spans [ "synthesis" ] "circuit_gates_built";
    "synthesis.swaps", jsum (fun j -> j.Replay.swaps) jobs;
    "opt.groups", jsum (fun j -> j.Replay.groups) jobs;
    "analysis.edges_scanned", count spans [ "analysis" ] "ana_edges_scanned";
  ]

let layer_metrics ({ spans; jobs } as l) =
  let c = exact_counts l in
  let get k = List.assoc k c in
  [
    "gatelevel.peephole_s", dur spans "gatelevel.peephole", "s";
    "gatelevel.peephole_alloc_words", alloc spans "gatelevel.peephole", "words";
    "gatelevel.peephole_probes", get "gatelevel.peephole_probes", "count";
    ( "gatelevel.peephole_removed_ratio",
      ratio (jsum (fun j -> j.Replay.removed) jobs) (jsum (fun j -> j.Replay.gates_in) jobs),
      "ratio" );
    "gatelevel.peephole_rounds", get "gatelevel.peephole_rounds", "count";
    "synthesis.self_s", dur spans "synthesis", "s";
    "synthesis.alloc_words", alloc spans "synthesis", "words";
    "synthesis.gates_built", get "synthesis.gates_built", "count";
    "synthesis.swaps", get "synthesis.swaps", "count";
    "gatelevel.swap_decompose_s", dur spans "gatelevel.swap_decompose", "s";
    "schedule.self_s", dur spans "schedule", "s";
    "schedule.alloc_words", alloc spans "schedule", "words";
    "schedule.candidates", get "schedule.candidates", "count";
    "schedule.leader_scans", get "schedule.leader_scans", "count";
    ( "schedule.truncation_ratio",
      ratio (count spans [ "schedule" ] "sched_window_truncations") (get "schedule.leader_scans"),
      "ratio" );
    "pauli.words", get "pauli.words", "count";
    "opt.self_s", dur spans "opt", "s";
    "opt.alloc_words", alloc spans "opt", "words";
    "opt.groups", get "opt.groups", "count";
    ( "opt.fused_ratio",
      ratio (jsum (fun j -> j.Replay.fused) jobs) (get "opt.groups"),
      "ratio" );
    "pauli_ir.parse_s", dur spans "pauli_ir.parse", "s";
    "verify.frame_s", dur spans "verify.frame", "s";
    "core.serialize_s", dur spans "core.serialize", "s";
    "core.driver_s", sum (fun j -> j.Replay.compile_s -. j.Replay.stages_s) jobs, "s";
    "analysis.self_s", dur spans "analysis", "s";
    "analysis.edges_scanned", get "analysis.edges_scanned", "count";
  ]

(* Replay [items] once; [t] counts jobs whose replay is not equivalent. *)
let replay_pass t items =
  Span.clear ();
  Gc.compact ();
  let jobs =
    List.mapi
      (fun i (item : Inputs.item) ->
        t.attempted <- t.attempted + 1;
        match Replay.job ~group:i item with
        | exception e ->
          fail t "%s: replay raised %s" item.Inputs.name (Printexc.to_string e);
          None
        | j ->
          if not j.Replay.equivalent then
            fail t "%s: replayed circuit differs from Compiler.compile" item.Inputs.name;
          Some j)
      items
  in
  { spans = Span.all (); jobs = List.filter_map Fun.id jobs }

(* Report counters that did not repeat exactly. *)
let noisy a b =
  List.filter_map
    (fun ((k, v), (_, w)) -> if v = w then None else Some k)
    (List.combine (exact_counts a) (exact_counts b))

let write_trace ~workload ~seed ~digest ~noisy spans =
  let dir = ".perfbench" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                "workload", Json.String workload;
                "seed", Json.Int seed;
                "inputs_md5", Json.String digest;
                "noisy_counters", Json.List (List.map (fun k -> Json.String k) noisy);
                "spans", Span.to_json spans;
              ]));
      output_char oc '\n');
  Util.log "wrote %s (%d spans)" path (List.length spans);
  if noisy <> [] then Util.log "noisy counters: %s" (String.concat ", " noisy)

(* Untraced and traced passes alternate; the median traced pass over the
   median untraced pass, minus one. *)
let overhead_frac ~until items =
  let plain = ref [] and traced = ref [] in
  while List.length !plain < 2 || Util.now () < until do
    plain := snd (Util.timed (fun () -> List.iter (fun i -> ignore (Compile_path.run i)) items)) :: !plain;
    Span.clear ();
    traced :=
      snd (Util.timed (fun () -> List.iter (fun i -> ignore (Compile_path.run ~traced:true i)) items))
      :: !traced
  done;
  Span.clear ();
  Util.median !traced /. Util.median !plain -. 1.

let zero_serve =
  [
    "pool.cache_hit_ratio", 0., "ratio";
    "pool.cache_stores", 0., "count";
    "serve.roundtrip_ms", 0., "ms";
    "serve.wait_ms", 0., "ms";
    "serve.overhead_ms", 0., "ms";
    "serve.queue_depth.max", 0., "count";
    "bench.late_ms", 0., "ms";
  ]

let trace_compile ~workload ~seed ~seconds items =
  let start = Util.now () in
  let t = { attempted = 0; failed = 0 } in
  let a = replay_pass t items in
  let b = replay_pass t items in
  let noisy = noisy a b in
  let overhead = overhead_frac ~until:(start +. seconds) items in
  write_trace ~workload ~seed ~digest:(Inputs.digest items) ~noisy a.spans;
  {
    attempted = t.attempted;
    failed = t.failed;
    metrics =
      layer_metrics a @ zero_serve @ [ "trace.overhead_frac", overhead, "ratio" ];
  }

(* serve-mix traced: the windows run twice from one stream, untraced
   then with the daemon's queue sampled after every reply (the overhead),
   and every distinct program the traced windows sent is then replayed
   layer by layer. *)
let trace_serve ~seed ~seconds =
  let plan = Serve_mix.plan ~seconds:(0.3 *. seconds) in
  let env = Serve_mix.setup ~runs:2 ~seed plan in
  log_pool ~seed env;
  let t = Serve_mix.tally () in
  let depth = ref 0 in
  let sample_depth () =
    let q = Json.get "queue" (Server.stats_json env.Serve_mix.server) in
    depth := max !depth (Json.to_int (Json.get "depth" q) + Json.to_int (Json.get "active" q))
  in
  let plain = Serve_mix.run env t ~seed plan in
  let base = Serve_mix.total plan in
  let p = Serve_mix.run ~after_reply:sample_depth ~base env t ~seed plan in
  Serve_mix.stop env;
  let cache = Ph_pool.Cache.counters env.Serve_mix.cache in
  let open_samples = Array.append p.Serve_mix.at_r1 p.Serve_mix.at_r2 in
  let sent = Array.sub env.Serve_mix.seq base (Serve_mix.total plan) in
  let distinct = List.sort_uniq compare (Array.to_list sent) in
  let tr = { attempted = 0; failed = 0 } in
  let items = List.map (fun i -> env.Serve_mix.pool.(i)) distinct in
  let l = replay_pass tr items in
  let noisy = noisy l (replay_pass tr items) in
  let work = Hashtbl.create 1024 in
  List.iter2 (fun i j -> Hashtbl.replace work i j.Replay.compile_s) distinct l.jobs;
  (* the open-loop requests as spans, from the generator's timestamps;
     each request's program is looked up by its reply's record name *)
  let index = Hashtbl.create 1024 in
  List.iter (fun i -> Hashtbl.replace index env.Serve_mix.pool.(i).Inputs.name i) distinct;
  let program_of (s : Load.sample) =
    match s.Load.response with
    | Ok j -> (
      match Json.member "record" j with
      | Some r -> Hashtbl.find_opt index (Json.to_str (Json.get "bench" r))
      | None -> None)
    | Error _ -> None
  in
  let request_spans =
    Array.to_list
      (Array.mapi
         (fun k (s : Load.sample) ->
           {
             Span.id = -1 - k;
             parent = -1;
             group = k;
             name = "serve.request";
             start = s.Load.send;
             stop = s.Load.reply;
             alloc_words = 0.;
             counters = [];
           })
         open_samples)
  in
  let overhead =
    Array.to_list open_samples
    |> List.map (fun (s : Load.sample) ->
           let w =
             match program_of s with
             | Some i when Serve_mix.compiled s -> Option.value (Hashtbl.find_opt work i) ~default:0.
             | _ -> 0.
           in
           ms (Load.roundtrip s -. w))
  in
  let all = Array.to_list open_samples in
  let hits = float_of_int (Ph_pool.Cache.hits cache) in
  write_trace ~workload:"serve-mix" ~seed
    ~digest:(Inputs.digest (Array.to_list env.Serve_mix.pool))
    ~noisy (l.spans @ request_spans);
  {
    attempted = t.Serve_mix.attempted + tr.attempted;
    failed = t.Serve_mix.failed + tr.failed;
    metrics =
      layer_metrics l
      @ [
          ( "pool.cache_hit_ratio",
            ratio hits (hits +. float_of_int cache.Ph_pool.Cache.misses),
            "ratio" );
          "pool.cache_stores", float_of_int cache.Ph_pool.Cache.stores, "count";
          "serve.roundtrip_ms", Util.mean (List.map (fun s -> ms (Load.roundtrip s)) all), "ms";
          "serve.wait_ms", Util.mean (List.map (fun s -> ms (Load.wait s)) all), "ms";
          "serve.overhead_ms", Util.mean overhead, "ms";
          "serve.queue_depth.max", float_of_int !depth, "count";
          "bench.late_ms", late_ms open_samples, "ms";
          ( "trace.overhead_frac",
            Util.median p.Serve_mix.slices /. Util.median plain.Serve_mix.slices -. 1.,
            "ratio" );
        ];
  }

(* ---------- main ---------- *)

let print_result (r : result) =
  let correct = r.failed = 0 && List.for_all (fun (_, v, _) -> Float.is_finite v) r.metrics in
  List.iter (fun (k, v, u) -> Util.log "  %-34s %14.6g %s" k v u) r.metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            "correct", Json.Bool correct;
            "attempted", Json.Int r.attempted;
            "failed", Json.Int r.failed;
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (k, v, u) -> k, Json.Obj [ "value", Json.Float v; "unit", Json.String u ])
                   r.metrics) );
          ]));
  correct

let usage () =
  prerr_endline
    "usage: bench.exe --workload (ft-chem|ft-wide|sc-route|serve-mix) --seed N \
     --seconds S --trace 0|1\n       bench.exe --self-test";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let self_test = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | "--self-test" :: rest -> self_test := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !self_test then exit (if Load.self_test () then 0 else 1);
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let seconds = !seconds and seed = !seed in
  let result =
    match List.assoc_opt !workload compile_workloads, !workload with
    | Some gen, w ->
      let items, setup_s = repeat_setup (fun () -> gen seed) in
      Util.log "%s seed %d: %d programs, inputs md5 %s" w seed (List.length items)
        (Inputs.digest items);
      if !trace = 0 then measure_compile ~seconds items setup_s
      else trace_compile ~workload:w ~seed ~seconds items
    | None, "serve-mix" ->
      (* the generator must charge a stalled daemon to every request
         queued behind the stall, or its latencies mean nothing *)
      let harness_ok = Load.self_test () in
      let r = if !trace = 0 then measure_serve ~seed ~seconds else trace_serve ~seed ~seconds in
      if harness_ok then r else { r with failed = r.failed + 1 }
    | None, _ -> usage ()
  in
  exit (if print_result result then 0 else 1)
