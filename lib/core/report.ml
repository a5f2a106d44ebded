open Ph_gatelevel

type metrics = {
  cnot : int;
  single : int;
  total : int;
  depth : int;
  seconds : float;
}

let of_circuit ?(seconds = 0.) circuit =
  let cnot, single, depth = Circuit.counts circuit in
  { cnot; single; total = cnot + single; depth; seconds }

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  r, Unix.gettimeofday () -. t0

let delta a b =
  if a = 0 then nan else 100. *. float_of_int (b - a) /. float_of_int a

let geomean = function
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let pp_metrics fmt m =
  Format.fprintf fmt "cnot=%d single=%d total=%d depth=%d (%.2fs)" m.cnot m.single
    m.total m.depth m.seconds

(* ---------- per-pass telemetry ---------- *)

type pass_counters = {
  sched_layers : int;
  sched_padded : int;
  sched_window : int;
  sc_swaps : int;
  peephole_removed : int;
  peephole_rounds : int;
}

type trace = {
  schedule_s : float;
  synthesis_s : float;
  swap_decompose_s : float;
  peephole_s : float;
  lint_s : float;
  counters : pass_counters;
  lint : Ph_lint.Diag.t list;
  perf : (string * int) list;
      (* deterministic work counters ([Ph_perf.Counter] compile-scope
         deltas plus per-stage [alloc_*_words] ints), in fixed order *)
  analysis : Ph_analysis.Gap.summary option;
      (* static bounds + gap ratios, present when the compile ran with
         [Config.analyze] (or a driver attached a post-hoc analysis) *)
}

let empty_counters =
  {
    sched_layers = 0;
    sched_padded = 0;
    sched_window = 0;
    sc_swaps = 0;
    peephole_removed = 0;
    peephole_rounds = 0;
  }

let empty_trace =
  {
    schedule_s = 0.;
    synthesis_s = 0.;
    swap_decompose_s = 0.;
    peephole_s = 0.;
    lint_s = 0.;
    counters = empty_counters;
    lint = [];
    perf = [];
    analysis = None;
  }

type record = {
  bench : string;
  config : string;
  qubits : int;
  paulis : int;
  metrics : metrics;
  trace : trace;
}

let counters_to_json (c : pass_counters) =
  Json.Obj
    [
      "sched_layers", Json.Int c.sched_layers;
      "sched_padded", Json.Int c.sched_padded;
      "sched_window", Json.Int c.sched_window;
      "sc_swaps", Json.Int c.sc_swaps;
      "peephole_removed", Json.Int c.peephole_removed;
      "peephole_rounds", Json.Int c.peephole_rounds;
    ]

let trace_to_json (t : trace) =
  Json.Obj
    ([
       "schedule_s", Json.Float t.schedule_s;
       "synthesis_s", Json.Float t.synthesis_s;
       "swap_decompose_s", Json.Float t.swap_decompose_s;
       "peephole_s", Json.Float t.peephole_s;
       "lint_s", Json.Float t.lint_s;
       "counters", counters_to_json t.counters;
       "lint_errors", Json.Int (List.length (Ph_lint.Diag.errors t.lint));
       "lint_warnings", Json.Int (List.length (Ph_lint.Diag.warnings t.lint));
       "lint", Json.List (List.map Ph_lint.Diag.to_json t.lint);
       "perf", Json.Obj (List.map (fun (k, v) -> k, Json.Int v) t.perf);
     ]
    (* emitted only when present, so pre-analysis reports and
       non-analyzing compiles keep their exact former shape *)
    @
    match t.analysis with
    | None -> []
    | Some s -> [ "analysis", Ph_analysis.Gap.to_json s ])

let record_to_json (r : record) =
  Json.Obj
    [
      "bench", Json.String r.bench;
      "config", Json.String r.config;
      "qubits", Json.Int r.qubits;
      "paulis", Json.Int r.paulis;
      "cnot", Json.Int r.metrics.cnot;
      "single", Json.Int r.metrics.single;
      "total", Json.Int r.metrics.total;
      "depth", Json.Int r.metrics.depth;
      "seconds", Json.Float r.metrics.seconds;
      "trace", trace_to_json r.trace;
    ]

let counters_of_json j =
  let int k = Json.to_int (Json.get k j) in
  {
    sched_layers = int "sched_layers";
    sched_padded = int "sched_padded";
    (* absent from pre-window reports (PR ≤ 3); default so old bench
       JSON files still load in [bench history] *)
    sched_window =
      (match Json.member "sched_window" j with Some v -> Json.to_int v | None -> 0);
    sc_swaps = int "sc_swaps";
    peephole_removed = int "peephole_removed";
    peephole_rounds = int "peephole_rounds";
  }

let trace_of_json j =
  let f k = Json.to_float (Json.get k j) in
  {
    schedule_s = f "schedule_s";
    synthesis_s = f "synthesis_s";
    swap_decompose_s = f "swap_decompose_s";
    peephole_s = f "peephole_s";
    (* lint fields are absent from pre-lint reports; default so old
       bench JSON files still load in [bench history] *)
    lint_s = (match Json.member "lint_s" j with Some v -> Json.to_float v | None -> 0.);
    counters = counters_of_json (Json.get "counters" j);
    lint =
      (match Json.member "lint" j with
      | Some v -> List.map Ph_lint.Diag.of_json (Json.to_list v)
      | None -> []);
    (* absent from pre-perf reports (PR ≤ 6).  A legacy "gc" member
       (per-stage heap deltas older records carry) is ignored, so old
       reports and cache payloads still load. *)
    perf =
      (match Json.member "perf" j with
      | Some (Json.Obj fields) ->
        List.map (fun (k, v) -> k, Json.to_int v) fields
      | Some _ -> raise (Json.Parse_error "trace perf: expected object")
      | None -> []);
    (* absent from pre-analysis reports (PR ≤ 7) and plain compiles *)
    analysis =
      (match Json.member "analysis" j with
      | None | Some Json.Null -> None
      | Some v -> Some (Ph_analysis.Gap.of_json v));
  }

let record_of_json j =
  let int k = Json.to_int (Json.get k j) in
  {
    bench = Json.to_str (Json.get "bench" j);
    config = Json.to_str (Json.get "config" j);
    qubits = int "qubits";
    paulis = int "paulis";
    metrics =
      {
        cnot = int "cnot";
        single = int "single";
        total = int "total";
        depth = int "depth";
        seconds = Json.to_float (Json.get "seconds" j);
      };
    trace = trace_of_json (Json.get "trace" j);
  }

(* ---------- deterministic projection ---------- *)

(* Everything wall-clock- or domain-dependent zeroed: what remains is a
   pure function of (program, config), so `phc batch --jobs N` reports
   can be byte-diffed against `--jobs 1` and against cached reruns.
   [trace.perf] survives normalization on purpose — the counters are
   deterministic, so the existing byte-identity CI checks double as a
   determinism proof for them. *)
let normalize_record (r : record) =
  {
    r with
    metrics = { r.metrics with seconds = 0. };
    trace =
      {
        r.trace with
        schedule_s = 0.;
        synthesis_s = 0.;
        swap_decompose_s = 0.;
        peephole_s = 0.;
        lint_s = 0.;
      };
  }

(* ---------- history-db projection ---------- *)

(* One normalized [Ph_perf.Db] row per deterministic quantity of a
   record: the circuit metrics, the per-pass counters (minus
   [sched_window], which echoes configuration rather than measuring
   work) and the [trace.perf] snapshot.  [seconds] and stage timings
   never become rows. *)
let perf_rows ~commit (r : record) =
  let mk counter value =
    { Ph_perf.Db.commit; bench = r.bench; config = r.config; counter; value }
  in
  let c = r.trace.counters in
  [
    mk "cnot" r.metrics.cnot;
    mk "single" r.metrics.single;
    mk "total" r.metrics.total;
    mk "depth" r.metrics.depth;
    mk "sched_layers" c.sched_layers;
    mk "sched_padded" c.sched_padded;
    mk "sc_swaps" c.sc_swaps;
    mk "peephole_removed" c.peephole_removed;
    mk "peephole_rounds" c.peephole_rounds;
  ]
  @ List.map (fun (k, v) -> mk k v) r.trace.perf
  (* gap/floor rows use names disjoint from the ana_* work counters in
     [trace.perf], so a record never yields two rows with one key *)
  @
  match r.trace.analysis with
  | None -> []
  | Some s -> List.map (fun (k, v) -> mk k v) (Ph_analysis.Gap.gap_rows s)

(* ---------- batch aggregation ---------- *)

(* One `phc batch` / pooled bench run: submission-order per-job wall and
   queue-wait times plus the cache outcome counts.  Produced by
   [Ph_pool.Batch]; consumed by its JSON report and stderr summary. *)
type batch = {
  batch_jobs : int;  (** jobs submitted *)
  batch_workers : int;  (** worker domains that served the queue *)
  batch_wall_s : float;  (** end-to-end batch wall time *)
  job_wall_s : float list;  (** per-job run time, submission order *)
  job_queue_s : float list;  (** per-job queue wait, submission order *)
  cache_hits : int;  (** memory + disk + coalesced *)
  cache_misses : int;
}

let batch_hit_rate b =
  let looked = b.cache_hits + b.cache_misses in
  if looked = 0 then 0. else float_of_int b.cache_hits /. float_of_int looked

let batch_to_json ?(timings = true) (b : batch) =
  let z v = if timings then v else 0. in
  Json.Obj
    [
      "jobs", Json.Int b.batch_jobs;
      (* worker count is part of the run environment, not of the work:
         zeroed in deterministic reports so `--jobs N` == `--jobs 1` *)
      "workers", Json.Int (if timings then b.batch_workers else 0);
      "wall_s", Json.Float (z b.batch_wall_s);
      "job_wall_s", Json.List (List.map (fun s -> Json.Float (z s)) b.job_wall_s);
      ( "job_queue_s",
        Json.List (List.map (fun s -> Json.Float (z s)) b.job_queue_s) );
      "cache_hits", Json.Int b.cache_hits;
      "cache_misses", Json.Int b.cache_misses;
      "cache_hit_rate", Json.Float (batch_hit_rate b);
    ]
