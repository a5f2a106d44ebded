(* Bench harness: regenerates every table and figure of the paper's
   evaluation (Section 6).  Usage:

     dune exec bench/main.exe                 # every experiment
     dune exec bench/main.exe table2-sc       # one experiment
     dune exec bench/main.exe table2-ft N2    # filter benchmarks by name
     PH_BENCH_FULL=1 dune exec bench/main.exe # paper-scale workloads

   Every compiled circuit is certified against its rotation trace by the
   Pauli-frame verifier; rows are flagged with `!` if verification ever
   fails (it should not).

   Machine-readable records: append `--json FILE` to any table run to
   also write every benchmark × config record (metrics plus the
   per-stage compile trace) as a JSON array.  Deterministic counter
   rows per commit live in `perf/history.csv`, the one perf-tracking
   path; a fresh recording is checked against its last commit:

     dune exec bench/main.exe -- history record --commit new --db new.csv --suite all
     dune exec bench/main.exe -- history gate --candidate new.csv *)

open Paulihedral
open Ph_pauli_ir
open Ph_hardware
open Ph_benchmarks

let sc_device = Devices.manhattan

let header title cols =
  Printf.printf "\n=== %s ===\n%!" title;
  Printf.printf "%-14s" "benchmark";
  List.iter (fun c -> Printf.printf " %12s" c) cols;
  print_newline ()

let row name cols =
  Printf.printf "%-14s" name;
  List.iter (fun c -> Printf.printf " %12s" c) cols;
  print_newline ()

let wanted filters (b : Suite.t) =
  filters = [] || List.mem b.Suite.name filters

let pct a b = Printf.sprintf "%+.1f%%" (Report.delta a b)

(* ---------- machine-readable perf records (--json FILE) ---------- *)

let json_enabled = ref false
let json_records : Json.t list ref = ref []

let write_json path =
  let oc = open_out path in
  output_string oc
    (Json.to_string ~indent:true (Json.List (List.rev !json_records)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %d records to %s\n" (List.length !json_records) path

(* ---------- --lint: per-stage linting of the PH pipelines ---------- *)

(* At warn level the linter never fails a run; its findings and wall
   time land in the compile trace, so `--json` records carry
   lint_errors / lint_warnings / lint_s. *)
let lint_enabled = ref false
let lint_level () = if !lint_enabled then Lint.Diag.Warn else Lint.Diag.Off

(* --sched-jobs: intra-compile scan parallelism.  Output-invariant
   (records are byte-identical at any value), so it participates in no
   cache fingerprint and needs no per-table plumbing. *)
let bench_sched_jobs = ref 1

(* ---------- table columns: a PH config or a baseline ---------- *)

(* A column of a table.  A Paulihedral column is named by one
   [Config.t]: the same value drives the compile ([Pipelines.ph]) and
   keys the record cache ([Config.fingerprint]).  Baselines are not
   config-driven; their key is a synthetic tag, with the device
   identity folded in where routing matters. *)
type column =
  | Ph of Config.t
  | Baseline of {
      tag : string;
      device : Coupling.t option;
      run : Program.t -> Pipelines.run;
    }

(* The bench-wide knobs on a PH config: the --lint level, and
   --sched-jobs (output-invariant, so in no fingerprint). *)
let configure cfg =
  { cfg with Config.lint = lint_level (); sched_jobs = !bench_sched_jobs }

let ph cfg prog = Pipelines.ph (configure cfg) prog

(* Both kinds of key embed [Config.version_tag], so a version bump
   invalidates every entry. *)
let fingerprint = function
  | Ph cfg -> Config.fingerprint (configure cfg)
  | Baseline { tag; device; _ } ->
    Printf.sprintf "v=%s;baseline=%s%s" Config.version_tag tag
      (match device with
      | None -> ""
      | Some d -> ";" ^ Config.fingerprint (Config.sc d))

(* A benchmark's device: none on the FT backend, Manhattan-65 on SC. *)
let device_of (b : Suite.t) =
  match b.Suite.backend with Suite.FT -> None | Suite.SC -> Some sc_device

let ph_on b schedule =
  Ph
    (match device_of b with
    | None -> Config.ft ~schedule ()
    | Some d -> Config.sc ~schedule d)

let baseline_on b tag ~ft ~sc =
  let device = device_of b in
  Baseline
    {
      tag;
      device;
      run = (match device with None -> ft | Some d -> sc d);
    }

(* ---------- pooled tables & record cache (--jobs / --cache) ---------- *)

let bench_jobs = ref 1
let bench_cache : Ph_pool.Cache.t option ref = ref None

(* One (benchmark, config) cell of a table: everything the row printers
   and the --json report need, whether the compile ran here or the
   record came out of the cache. *)
type cell = { c_record : Report.record; c_verified : bool }

let compile_cell ~bench ~config prog column =
  let r = match column with Ph cfg -> ph cfg prog | Baseline b -> b.run prog in
  {
    c_record =
      Ph_pool.Batch.record ~name:bench ~config_name:config prog
        r.Pipelines.metrics r.Pipelines.trace;
    c_verified = Pipelines.verified r;
  }

(* Run one column through the record cache when --cache is given, with
   the cache contract of [Ph_pool.Batch] (shared with `phc batch` and
   the serve daemon): only verified runs are published, and a hit comes
   back with this cell's labels, so it is trusted without recompiling. *)
let run_cell ~bench ~config prog column =
  match !bench_cache with
  | None -> compile_cell ~bench ~config prog column
  | Some cache -> (
    let key = Ph_pool.Batch.key ~config_fp:(fingerprint column) prog in
    match Ph_pool.Batch.lookup cache key ~bench ~config with
    | Some r -> { c_record = r; c_verified = true }
    | None ->
      let c = compile_cell ~bench ~config prog column in
      Ph_pool.Batch.publish cache key ~verified:c.c_verified c.c_record;
      c)

let emit_cell c =
  if !json_enabled then
    json_records := Report.record_to_json c.c_record :: !json_records

let cell_cols c =
  let m = c.c_record.Report.metrics in
  [
    string_of_int m.Report.cnot;
    string_of_int m.Report.single;
    string_of_int m.Report.total;
    string_of_int m.Report.depth;
    Printf.sprintf "%.2f" m.Report.seconds;
  ]

let cell_checked c name =
  if c.c_verified then name else name ^ " !UNVERIFIED"

(* Fan per-benchmark table work across the domain pool; cells (--json
   records) and rows merge on the coordinator in suite order, so the
   table and the report are identical whatever --jobs was.  Within one
   table every cell has a distinct cache key, so cold-cache counter
   totals are deterministic too.  A worker exception re-raises here:
   bench inputs are trusted, fault isolation is `phc batch`'s job.
   Returns the merged cells (suite order) so callers can print
   table-level aggregates such as the gap geomeans. *)
let pooled items f =
  List.concat_map
    (function
      | Stdlib.Ok (cells, rows) ->
        List.iter emit_cell cells;
        List.iter (fun (name, cols) -> row name cols) rows;
        cells
      | Stdlib.Error e -> raise e)
    (Ph_pool.Pool.map ~jobs:!bench_jobs f items)

(* ---------- static-analysis attachment (post-hoc) ---------- *)

(* Attach the analyzer's bounds/gap summary to a record after the fact:
   a pure function of (program, achieved metrics), so it applies equally
   to fresh compiles and cache hits, runs outside any perf window (the
   compile's counter deltas stay untouched), and is identical whatever
   --jobs was. *)
let analyzed_record prog (r : Report.record) =
  let m = r.Report.metrics in
  let s =
    Analysis.Gap.summarize ~cnot:m.Report.cnot ~single:m.Report.single
      ~total:m.Report.total ~depth:m.Report.depth
      (Analysis.Bounds.of_program prog)
  in
  { r with Report.trace = { r.Report.trace with Report.analysis = Some s } }

let analyzed prog c = { c with c_record = analyzed_record prog c.c_record }

let gap_col c =
  match c.c_record.Report.trace.Report.analysis with
  | Some { Analysis.Gap.gap_total = Some g; _ } -> Printf.sprintf "%.2fx" g
  | Some _ | None -> "n/a"

(* Per-metric geomeans of the achieved/floor ratios over every analyzed
   cell of a table (cells without a defined ratio are skipped). *)
let gap_geomeans cells =
  let collect f =
    List.filter_map
      (fun c -> Option.bind c.c_record.Report.trace.Report.analysis f)
      cells
  in
  let metrics =
    [
      "depth", collect (fun s -> s.Analysis.Gap.gap_depth);
      "cnot", collect (fun s -> s.Analysis.Gap.gap_cnot);
      "single", collect (fun s -> s.Analysis.Gap.gap_single);
      "total", collect (fun s -> s.Analysis.Gap.gap_total);
    ]
  in
  if List.exists (fun (_, rs) -> rs <> []) metrics then
    Printf.printf "gap geomeans (achieved/floor): %s\n"
      (String.concat "  "
         (List.map
            (fun (name, rs) ->
              if rs = [] then Printf.sprintf "%s n/a" name
              else
                Printf.sprintf "%s %.2fx/%d" name (Report.geomean rs)
                  (List.length rs))
            metrics))

(* Geomean of the phoenix/GCO metric ratios over a table's merged cells,
   paired by benchmark — the headline "does the IR optimizer beat plain
   GCO scheduling" number (rows where either side is 0 are skipped). *)
let phx_geomeans ~base_cfg ~phx_cfg ~base_name cells =
  let pairs =
    List.filter_map
      (fun c ->
        if c.c_record.Report.config <> phx_cfg then None
        else
          Option.map
            (fun g -> g, c)
            (List.find_opt
               (fun g ->
                 g.c_record.Report.config = base_cfg
                 && g.c_record.Report.bench = c.c_record.Report.bench)
               cells))
      cells
  in
  let ratios f =
    List.filter_map
      (fun (g, p) ->
        let a = f g.c_record.Report.metrics
        and b = f p.c_record.Report.metrics in
        if a > 0 && b > 0 then Some (float_of_int b /. float_of_int a) else None)
      pairs
  in
  let show name = function
    | [] -> Printf.sprintf "%s n/a" name
    | rs -> Printf.sprintf "%s %.3fx/%d" name (Report.geomean rs) (List.length rs)
  in
  if pairs <> [] then
    Printf.printf "PHX/%s geomeans: %s  %s  %s  %s\n" base_name
      (show "cnot" (ratios (fun (m : Report.metrics) -> m.Report.cnot)))
      (show "single" (ratios (fun (m : Report.metrics) -> m.Report.single)))
      (show "total" (ratios (fun (m : Report.metrics) -> m.Report.total)))
      (show "depth" (ratios (fun (m : Report.metrics) -> m.Report.depth)))

(* ---------- Table 1: benchmark information ---------- *)

let table1 filters =
  header "Table 1: benchmark information (naive lowering, no optimization)"
    [ "qubits"; "pauli#"; "cnot#"; "single#" ];
  ignore @@ pooled
    (List.filter (wanted filters) (Suite.all ()))
    (fun (b : Suite.t) ->
      let prog = b.Suite.generate () in
      let naive = Ph_synthesis.Naive.synthesize prog in
      let c = naive.Ph_synthesis.Emit.circuit in
      ( [],
        [
          ( b.Suite.name,
            [
              string_of_int (Program.n_qubits prog);
              string_of_int (Program.term_count prog);
              string_of_int (Ph_gatelevel.Circuit.cnot_count c);
              string_of_int (Ph_gatelevel.Circuit.single_qubit_count c);
            ] );
        ] ))

(* ---------- tables: a suite of benchmarks x a list of columns ---------- *)

type table = {
  name : string;  (** a cell's record config is [name ^ "/" ^ label] *)
  title : string;
  suite : unit -> Suite.t list;
  columns : Suite.t -> (string * column) list;  (** (label, column) *)
}

(* Every column of every wanted benchmark, pooled; [rows b prog cells]
   prints one benchmark's (label, cell) list.  Returns the merged cells
   for table-level aggregates. *)
let run_table ?(analyze = false) t filters rows =
  pooled
    (List.filter (wanted filters) (t.suite ()))
    (fun (b : Suite.t) ->
      let prog = b.Suite.generate () in
      let cells =
        List.map
          (fun (label, column) ->
            let c =
              run_cell ~bench:b.Suite.name ~config:(t.name ^ "/" ^ label) prog
                column
            in
            label, if analyze then analyzed prog c else c)
          (t.columns b)
      in
      List.map snd cells, rows b prog cells)

(* One row per column: label, metrics, then the table's [extra] columns. *)
let column_rows extra (b : Suite.t) _prog cells =
  List.mapi
    (fun i (label, c) ->
      ( (if i = 0 then b.Suite.name else ""),
        (cell_checked c label :: cell_cols c) @ extra c ))
    cells

(* cnot/single/total/depth of [c] relative to [base]. *)
let deltas base c =
  let b = base.c_record.Report.metrics and m = c.c_record.Report.metrics in
  [
    pct b.Report.cnot m.Report.cnot;
    pct b.Report.single m.Report.single;
    pct b.Report.total m.Report.total;
    pct b.Report.depth m.Report.depth;
  ]

(* ---------- Table 2 and scale: PH vs PHX (vs TK) ---------- *)

let table2_columns b =
  [
    "PH", ph_on b Config.Depth_oriented;
    "PHX", ph_on b Config.Phoenix_like;
    ( "TK",
      baseline_on b "tk"
        ~ft:(fun p -> Pipelines.tk_ft p)
        ~sc:(fun d p -> Pipelines.tk_sc d p) );
  ]

let table2_sc =
  {
    name = "table2-sc";
    title =
      "Table 2 (SC backend, Manhattan-65): PH vs PHX vs TK, each + generic stage";
    suite = (fun () -> Suite.sc ());
    columns = table2_columns;
  }

let table2_ft =
  {
    name = "table2-ft";
    title = "Table 2 (FT backend): PH vs PHX vs TK, each + generic stage";
    suite = (fun () -> Suite.ft ());
    columns = table2_columns;
  }

(* DO and PHX compiles of the 64-256 qubit scale suite (FT backend),
   with the scheduling stage's wall time broken out — the table the
   schedule_s speedup target is measured on. *)
let scale =
  {
    name = "scale";
    title = "Scale: DO vs PHX scheduling at 64-256 qubits (FT backend)";
    suite = Suite.scale;
    columns =
      (fun b ->
        [ "PH", ph_on b Config.Depth_oriented; "PHX", ph_on b Config.Phoenix_like ]);
  }

(* One row per column with the analyzer's gap (and, with [sched], the
   scheduling stage's wall time), then the gap and PHX/PH geomeans;
   [base_name] names the PH column in the PHX footer. *)
let table2 ?(sched = false) ~base_name t filters =
  let sched_col c =
    if sched then [ Printf.sprintf "%.3f" c.c_record.Report.trace.Report.schedule_s ]
    else []
  in
  header t.title
    ([ "config"; "cnot"; "single"; "total"; "depth"; "time(s)" ]
    @ (if sched then [ "sched(s)" ] else [])
    @ [ "gap" ]);
  let cells =
    run_table ~analyze:true t filters
      (column_rows (fun c -> sched_col c @ [ gap_col c ]))
  in
  gap_geomeans cells;
  phx_geomeans ~base_cfg:(t.name ^ "/PH") ~phx_cfg:(t.name ^ "/PHX") ~base_name
    cells

(* ---------- Table 3: PH vs the QAOA compiler ---------- *)

let table3 filters =
  let t =
    {
      name = "table3";
      title = "Table 3 (Manhattan-65): PH vs algorithm-specific QAOA compiler";
      suite =
        (fun () ->
          List.filter
            (fun (b : Suite.t) -> b.Suite.category = "QAOA" && b.Suite.name.[0] = 'R')
            (Suite.sc ()));
      columns =
        (fun b ->
          [
            "PH", ph_on b Config.Depth_oriented;
            "PHX", ph_on b Config.Phoenix_like;
            ( "QAOA_comp",
              Baseline
                {
                  tag = "qaoa";
                  device = Some sc_device;
                  run = Pipelines.qaoa_sc sc_device;
                } );
          ]);
    }
  in
  header t.title [ "config"; "cnot"; "single"; "total"; "depth"; "time(s)" ];
  ignore @@ run_table t filters (column_rows (fun _ -> []))

(* ---------- Table 4 left: DO vs GCO ---------- *)

let table4_sched filters =
  let t =
    {
      name = "table4-sched";
      title = "Table 4 (left): DO and PHX vs GCO scheduling (deltas relative to GCO)";
      suite = (fun () -> Suite.all ());
      columns =
        (fun b ->
          [
            "GCO", ph_on b Config.Gco;
            "DO", ph_on b Config.Depth_oriented;
            "PHX", ph_on b Config.Phoenix_like;
          ]);
    }
  in
  header t.title [ "config"; "cnot"; "single"; "total"; "depth" ];
  let cells =
    run_table t filters (fun b prog cells ->
        let gco = List.assoc "GCO" cells in
        let dor = List.assoc "DO" cells and phx = List.assoc "PHX" cells in
        (* DO differs from GCO only through layer choice, so it is N/A
           on single-block programs; PHX rewrites inside the block and
           stays meaningful *)
        (if Program.block_count prog <= 1 then
           [ b.Suite.name, [ "DO"; "N/A"; "N/A"; "N/A"; "N/A" ] ]
         else
           [
             ( cell_checked gco (cell_checked dor b.Suite.name),
               "DO" :: deltas gco dor );
           ])
        @ [ cell_checked phx "", "PHX" :: deltas gco phx ])
  in
  phx_geomeans ~base_cfg:"table4-sched/GCO" ~phx_cfg:"table4-sched/PHX"
    ~base_name:"GCO" cells

(* ---------- Table 4 right: block-wise compilation improvement ---------- *)

(* Baseline: same scheduling, naive per-string synthesis, same generic
   stage (peephole; + router on SC) — the paper's "naive synthesis and
   Qiskit_L3". *)
let table4_bc filters =
  let t =
    {
      name = "table4-bc";
      title = "Table 4 (right): block-wise compilation vs naive synthesis (deltas)";
      suite = (fun () -> Suite.all ());
      columns =
        (fun b ->
          [
            "PH", ph_on b Config.Gco;
            "PHX", ph_on b Config.Phoenix_like;
            ( "naive",
              baseline_on b "gco+naive"
                ~ft:(fun p -> Pipelines.naive_ft (Ph_schedule.Gco.run p))
                ~sc:(fun d p -> Pipelines.naive_sc d (Ph_schedule.Gco.run p)) );
          ]);
    }
  in
  header t.title [ "config"; "cnot"; "single"; "total"; "depth" ];
  ignore
  @@ run_table t filters (fun b _ cells ->
         let base = List.assoc "naive" cells in
         let ph = List.assoc "PH" cells and phx = List.assoc "PHX" cells in
         [
           cell_checked ph (cell_checked base b.Suite.name), "PH" :: deltas base ph;
           cell_checked phx "", "PHX" :: deltas base phx;
         ])

(* ---------- Figure 11: end-to-end QAOA success probability ---------- *)

let fig11_graphs () =
  List.map
    (fun n -> Printf.sprintf "REG-n%d-d4" n, Graphs.regular ~seed:(400 + n) n 4)
    [ 7; 8; 9; 10 ]
  @ List.map
      (fun n -> Printf.sprintf "RD-n%d-p0.5" n, Graphs.erdos_renyi ~seed:(500 + n) n 0.5)
      [ 7; 8; 9; 10 ]

let fig11 filters =
  header "Figure 11: QAOA success probability on Melbourne-16 (noisy simulation)"
    [ "ESP base"; "ESP PH"; "ESP gain"; "RSP base"; "RSP PH"; "RSP gain" ];
  let device = Devices.melbourne in
  let noise = Noise_model.calibrated device ~seed:42 ~cnot:0.02 ~single:2e-3 ~readout:3e-2 () in
  let trajectories = 800 in
  let esp_gains = ref [] and rsp_gains = ref [] in
  List.iter
    (fun (name, g) ->
      if filters = [] || List.mem name filters then begin
        let gamma, beta = Ph_sim.Qaoa_run.optimize_parameters ~grid:12 g in
        let prog = Qaoa.maxcut g ~gamma in
        let kernel_of (r : Pipelines.run) =
          {
            Ph_sim.Qaoa_run.phase = r.Pipelines.circuit;
            initial_layout = Option.get r.Pipelines.initial_layout;
            final_layout = Option.get r.Pipelines.final_layout;
          }
        in
        (* Baseline: adjacency-order naive synthesis + trivial-layout
           low-lookahead routing, matching the strength of the generic
           compiler the paper benchmarked against (EXPERIMENTS.md
           discusses the stronger modern-router baseline). *)
        let base = Pipelines.naive_sc ~initial:`Identity ~lookahead:1 device prog in
        let ph = ph (Config.sc device) prog in
        let eval r seed =
          Ph_sim.Qaoa_run.evaluate ~noise ~trajectories ~seed g (kernel_of r) ~beta
        in
        (* Common random numbers: same trajectory seed for both
           compilations, so the comparison isn't drowned in Monte-Carlo
           variance. *)
        let ob = eval base 1 and op = eval ph 1 in
        let flag =
          (if Pipelines.verified base then "" else " base!UNVERIFIED")
          ^ if Pipelines.verified ph then "" else " ph!UNVERIFIED"
        in
        esp_gains := (op.Ph_sim.Qaoa_run.esp /. ob.Ph_sim.Qaoa_run.esp) :: !esp_gains;
        rsp_gains :=
          (op.Ph_sim.Qaoa_run.success /. ob.Ph_sim.Qaoa_run.success) :: !rsp_gains;
        row (name ^ flag)
          [
            Printf.sprintf "%.3f" ob.Ph_sim.Qaoa_run.esp;
            Printf.sprintf "%.3f" op.Ph_sim.Qaoa_run.esp;
            Printf.sprintf "%.2fx" (op.Ph_sim.Qaoa_run.esp /. ob.Ph_sim.Qaoa_run.esp);
            Printf.sprintf "%.3f" ob.Ph_sim.Qaoa_run.success;
            Printf.sprintf "%.3f" op.Ph_sim.Qaoa_run.success;
            Printf.sprintf "%.2fx"
              (op.Ph_sim.Qaoa_run.success /. ob.Ph_sim.Qaoa_run.success);
          ]
      end)
    (fig11_graphs ());
  if !esp_gains <> [] then
    Printf.printf "geomean gains: ESP %.2fx, RSP %.2fx\n"
      (Report.geomean !esp_gains) (Report.geomean !rsp_gains)

(* ---------- Ablations of DESIGN.md's design choices ---------- *)

let ablation filters =
  header "Ablations (CNOT / depth per variant)" [ "variant"; "cnot"; "depth" ];
  let show name prog variants =
    List.iter
      (fun (vname, f) ->
        let m : Report.metrics = f prog in
        row name [ vname; string_of_int m.Report.cnot; string_of_int m.Report.depth ])
      variants
  in
  (* each variant synthesizes, then runs the shared lowering tail *)
  let ft ?mode layers prog =
    let r = Ph_synthesis.Ft_backend.synthesize ?mode ~n_qubits:(Program.n_qubits prog) layers in
    (Compiler.lower ~peephole:true ~rotations:r.rotations r.circuit).Compiler.metrics
  in
  let ft_mode mode prog = ft ~mode (Ph_schedule.Gco.schedule prog) prog in
  let do_padding padding prog = ft (Ph_schedule.Depth_oriented.schedule ~padding prog) prog in
  let lex_rank rank prog = ft (Ph_schedule.Gco.schedule ?rank prog) prog in
  let sc_root root_policy prog =
    let layers = Ph_schedule.Depth_oriented.schedule prog in
    let r =
      Ph_synthesis.Sc_backend.synthesize ~root_policy ~coupling:sc_device
        ~n_qubits:(Program.n_qubits prog) layers
    in
    (Compiler.lower ~peephole:true ~rotations:r.rotations
       ~layouts:(r.initial_layout, r.final_layout) r.circuit)
      .Compiler.metrics
  in
  let run name cases =
    if filters = [] || List.mem name filters then begin
      let prog = (Suite.find name).Suite.generate () in
      show name prog cases
    end
  in
  let sched_variant schedule prog =
    (ph (Config.ft ~schedule ()) prog).Pipelines.metrics
  in
  run "UCCSD-12"
    [
      "ft-chain", ft_mode `Chain;
      "ft-pair", ft_mode `Pair;
      "ft-indep", ft_mode `Independent;
      "lex-paper", lex_rank None;
      "lex-naive", lex_rank (Some (fun op -> Ph_pauli.Pauli.to_code op));
      "sched-gco", sched_variant Config.Gco;
      "sched-maxov", sched_variant Config.Max_overlap;
      "sched-none", sched_variant Config.Program_order;
    ];
  run "Heisen-2D"
    [ "do-padding", do_padding true; "do-nopad", do_padding false ];
  run "UCCSD-8"
    [ "sc-root-lcc", sc_root `Largest_component; "sc-root-first", sc_root `First_core ];
  let it_backend prog = (ph (Config.ion_trap ()) prog).Pipelines.metrics in
  let ft_backend prog = (ph (Config.ft ()) prog).Pipelines.metrics in
  run "Heisen-1D"
    [ "backend-ft", ft_backend; "backend-ion", it_backend ]

(* ---------- driver ---------- *)

let experiments =
  [
    "table1", table1;
    "table2-sc", table2 ~base_name:"PH" table2_sc;
    "table2-ft", table2 ~base_name:"PH" table2_ft;
    "table3", table3;
    "table4-sched", table4_sched;
    "table4-bc", table4_bc;
    "fig11", fig11;
    "ablation", ablation;
    "scale", table2 ~sched:true ~base_name:"DO" scale;
  ]

let usage () =
  prerr_endline
    "usage: main.exe [table1|table2-sc|table2-ft|table3|table4-sched|table4-bc|fig11|ablation|scale] [benchmark names...] [--json FILE] [--lint] [--jobs N] [--sched-jobs N] [--cache DIR]\n\
    \       main.exe history record --commit LABEL [--db FILE] [--suite ft|sc|scale|all] [--jobs N]\n\
    \       main.exe history show [--db FILE] [--counter NAME] [--last N]\n\
    \       main.exe history compare A B [--db FILE]   (two commit labels)\n\
    \       main.exe history gate [--db FILE] [--candidate FILE.csv] [--against LABEL] [--suite ft|sc|scale|all] [--threshold PCT]";
  exit 1

(* ---------- history: per-commit deterministic counter db ---------- *)

let rec extract_opt key acc = function
  | k :: v :: rest when k = key -> Some v, List.rev_append acc rest
  | [ k ] when k = key -> usage ()
  | x :: rest -> extract_opt key (x :: acc) rest
  | [] -> None, List.rev acc

let rec extract_flag key acc = function
  | k :: rest when k = key -> true, List.rev_append acc rest
  | x :: rest -> extract_flag key (x :: acc) rest
  | [] -> false, List.rev acc

let default_db = "perf/history.csv"

(* Fresh compiles of the PH columns of the table-2 and scale tables
   (never cache-served: the counters must measure work actually
   performed here), under the tables' own record labels, so every
   recording lands on the same (bench, config) keys. *)
let history_records suite =
  let tables =
    match suite with
    | "ft" -> [ table2_ft ]
    | "sc" -> [ table2_sc ]
    | "scale" -> [ scale ]
    | "all" -> [ table2_ft; table2_sc; scale ]
    | _ -> usage ()
  in
  Ph_pool.Pool.map ~jobs:!bench_jobs
    (fun (t, (b : Suite.t)) ->
      let prog = b.Suite.generate () in
      List.filter_map
        (function
          | label, (Ph _ as column) ->
            let c =
              compile_cell ~bench:b.Suite.name ~config:(t.name ^ "/" ^ label)
                prog column
            in
            Some (analyzed_record prog c.c_record)
          | _, Baseline _ -> None)
        (t.columns b))
    (List.concat_map (fun t -> List.map (fun b -> t, b) (t.suite ())) tables)
  |> List.concat_map (function Stdlib.Ok rs -> rs | Stdlib.Error e -> raise e)

let rows_of_records ~commit records =
  List.concat_map (Report.perf_rows ~commit) records

(* A commit's rows; a label the db lacks is a usage error, not an empty
   table. *)
let commit_rows ~db_path db label =
  match Ph_perf.Db.rows_for db label with
  | [] ->
    Printf.eprintf "history: no rows for commit %s in %s\n" label db_path;
    exit 1
  | rows -> rows

let last_commit db =
  match List.rev (Ph_perf.Db.commits db) with
  | [] ->
    prerr_endline "history: empty db";
    exit 1
  | c :: _ -> c

let print_summaries summaries =
  Printf.printf "%-26s %8s %6s %7s %7s %7s\n" "counter" "ratio" "rows"
    "skipped" "only-A" "only-B";
  let total_skipped = ref 0 in
  List.iter
    (fun (s : Ph_perf.History.summary) ->
      total_skipped := !total_skipped + s.skipped;
      Printf.printf "%-26s %8s %6d %7d %7d %7d\n" s.counter
        (if Float.is_nan s.ratio then "-"
         else Printf.sprintf "%.3fx" s.ratio)
        (s.matched - s.skipped) s.skipped s.only_baseline s.only_candidate)
    summaries;
  if !total_skipped > 0 then
    Printf.printf
      "skipped %d zero-valued cells (not folded into per-counter geomeans)\n"
      !total_skipped

let history_entry args =
  let db_path, args = extract_opt "--db" [] args in
  let db_path = Option.value db_path ~default:default_db in
  match args with
  | "record" :: rest ->
    let commit, rest = extract_opt "--commit" [] rest in
    let suite, rest = extract_opt "--suite" [] rest in
    if rest <> [] then usage ();
    let commit = match commit with Some c -> c | None -> usage () in
    let suite = Option.value suite ~default:"ft" in
    (* A second recording under one label would duplicate its (bench,
       config, counter) keys, and compare/gate would count each pair
       twice. *)
    if Ph_perf.Db.rows_for (Ph_perf.Db.load db_path) commit <> [] then begin
      Printf.eprintf "history: %s already holds rows for commit %s\n" db_path commit;
      exit 1
    end;
    let records = history_records suite in
    let rows = rows_of_records ~commit records in
    Ph_perf.Db.append db_path rows;
    Printf.printf "history: appended %d rows (%d records, suite %s) for %s to %s\n"
      (List.length rows) (List.length records) suite commit db_path;
    0
  | "show" :: rest ->
    let counter, rest = extract_opt "--counter" [] rest in
    let last, rest = extract_opt "--last" [] rest in
    if rest <> [] then usage ();
    let last =
      match last with
      | None -> 5
      | Some s -> (match int_of_string_opt s with Some n when n >= 1 -> n | _ -> usage ())
    in
    let db = Ph_perf.Db.load db_path in
    if db = [] then begin
      Printf.printf "history: %s is empty\n" db_path;
      0
    end
    else begin
      let commits = Ph_perf.Db.commits db in
      Printf.printf "history: %s — %d rows, %d commits (%s)\n" db_path
        (List.length db) (List.length commits)
        (String.concat " " commits);
      let names = Ph_perf.History.counter_names db in
      let names =
        match counter with
        | None -> names
        | Some c when List.mem c names -> [ c ]
        | Some c ->
          Printf.eprintf "history: no rows for counter %s in %s\n" c db_path;
          exit 1
      in
      List.iter
        (fun name ->
          let traj = Ph_perf.History.trajectory db name in
          let spark = Ph_perf.History.sparkline (List.map snd traj) in
          (* last-N step deltas over commits where the counter exists *)
          let present =
            List.filter_map (fun (c, v) -> Option.map (fun v -> c, v) v) traj
          in
          let tail xs n =
            let len = List.length xs in
            if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs
          in
          let deltas =
            match tail present (last + 1) with
            | [] | [ _ ] -> "(no trajectory)"
            | (_, v0) :: steps ->
              let prev = ref v0 in
              String.concat "  "
                (List.map
                   (fun (c, v) ->
                     let d = 100. *. ((v /. !prev) -. 1.) in
                     prev := v;
                     Printf.sprintf "%s:%+.1f%%" c d)
                   steps)
          in
          Printf.printf "%-26s [%s]  %s\n" name spark deltas)
        names;
      0
    end
  | [ "compare"; a; b ] ->
    let db = Ph_perf.Db.load db_path in
    let base = commit_rows ~db_path db a and cand = commit_rows ~db_path db b in
    Printf.printf "=== history compare: %s (A, %d rows) vs %s (B, %d rows) ===\n" a
      (List.length base) b (List.length cand);
    print_summaries (Ph_perf.History.summarize ~baseline:base ~candidate:cand);
    0
  | "gate" :: rest ->
    let threshold, rest = extract_opt "--threshold" [] rest in
    let against, rest = extract_opt "--against" [] rest in
    let candidate, rest = extract_opt "--candidate" [] rest in
    let suite, rest = extract_opt "--suite" [] rest in
    if rest <> [] then usage ();
    let threshold =
      match threshold with
      | None -> 2.
      | Some s ->
        (match float_of_string_opt s with Some f when f >= 0. -> f | _ -> usage ())
    in
    let db = Ph_perf.Db.load db_path in
    let base_label = match against with Some l -> l | None -> last_commit db in
    let baseline = commit_rows ~db_path db base_label in
    let cand_label, cand_rows =
      match candidate with
      | Some file ->
        let cdb = Ph_perf.Db.load file in
        let c = last_commit cdb in
        Printf.sprintf "%s@%s" file c, Ph_perf.Db.rows_for cdb c
      | None ->
        let suite = Option.value suite ~default:"ft" in
        let records = history_records suite in
        "fresh-run", rows_of_records ~commit:"fresh-run" records
    in
    Printf.printf
      "=== history gate: %s (baseline, %d rows) vs %s (candidate, %d rows), \
       threshold +%.1f%% ===\n"
      base_label (List.length baseline) cand_label (List.length cand_rows)
      threshold;
    let r =
      Ph_perf.History.gate ~threshold ~baseline ~candidate:cand_rows
    in
    print_summaries r.Ph_perf.History.summaries;
    List.iter
      (fun (s : Ph_perf.History.summary) ->
        Printf.printf
          "note: ungated counter %s grew %.3fx (recorded, never gated)\n"
          s.counter s.ratio)
      r.Ph_perf.History.ungated_regressions;
    (* a baseline that lacks the candidate's suite would gate nothing *)
    if
      List.for_all
        (fun (s : Ph_perf.History.summary) -> s.matched = 0)
        r.Ph_perf.History.summaries
    then begin
      Printf.eprintf "history: %s shares no rows with %s\n" cand_label base_label;
      exit 1
    end;
    (match r.Ph_perf.History.failures with
    | [] ->
      Printf.printf "history gate: OK (threshold +%.1f%%)\n" threshold;
      0
    | fs ->
      Printf.printf "history gate: FAILED (threshold +%.1f%%): %s\n" threshold
        (String.concat ", "
           (List.map
              (fun (s : Ph_perf.History.summary) ->
                Printf.sprintf "%s %.3fx" s.counter s.ratio)
              fs));
      1)
  | _ -> usage ()

let () =
  let json_path, args = extract_opt "--json" [] (List.tl (Array.to_list Sys.argv)) in
  let lint_flag, args = extract_flag "--lint" [] args in
  lint_enabled := lint_flag;
  let jobs, args = extract_opt "--jobs" [] args in
  (match jobs with
  | Some s ->
    (match int_of_string_opt s with
    | Some n when n >= 1 -> bench_jobs := n
    | _ -> usage ())
  | None -> ());
  let sched_jobs, args = extract_opt "--sched-jobs" [] args in
  (match sched_jobs with
  | Some s ->
    (match int_of_string_opt s with
    | Some n when n >= 1 -> bench_sched_jobs := n
    | _ -> usage ())
  | None -> ());
  let cache_dir, args = extract_opt "--cache" [] args in
  (* [history record] compiles afresh under the tables' plain labels: a
     lint flag would store lint-enabled counters under the plain (bench,
     config) keys, and no history command writes a report or reads a
     cache. *)
  (match args with
  | "history" :: _ when lint_flag || json_path <> None || cache_dir <> None -> usage ()
  | _ -> ());
  (match cache_dir with
  | Some dir -> bench_cache := Some (Ph_pool.Cache.create ~dir ())
  | None -> ());
  json_enabled := json_path <> None;
  (match args with
  | "history" :: rest -> exit (history_entry rest)
  | name :: filters when List.mem_assoc name experiments ->
    (List.assoc name experiments) filters
  | [] -> List.iter (fun (_, f) -> f []) experiments
  | _ -> usage ());
  (match json_path with Some path -> write_json path | None -> ());
  Option.iter
    (fun cache -> print_endline (Ph_pool.Cache.summary (Ph_pool.Cache.counters cache)))
    !bench_cache
