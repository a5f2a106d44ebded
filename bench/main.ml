(* Bench harness: regenerates every table and figure of the paper's
   evaluation (Section 6).  Usage:

     dune exec bench/main.exe                 # everything except `timing`
     dune exec bench/main.exe table2-sc       # one experiment
     dune exec bench/main.exe table2-ft N2    # filter benchmarks by name
     dune exec bench/main.exe timing          # bechamel compile-time study
     PH_BENCH_FULL=1 dune exec bench/main.exe # paper-scale workloads

   Every compiled circuit is certified against its rotation trace by the
   Pauli-frame verifier; rows are flagged with `!` if verification ever
   fails (it should not).

   Machine-readable records: append `--json FILE` to any table run to
   also write every benchmark × config record (metrics plus the
   per-stage compile trace) as a JSON array.  Counter trajectories
   across commits live in `perf/history.csv`; `bench history compare`
   diffs two commits or two such reports:

     dune exec bench/main.exe -- table2-ft --json new.json
     dune exec bench/main.exe -- history compare old.json new.json *)

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

let ph_ft ?schedule prog =
  Pipelines.ph_ft ?schedule ~lint:(lint_level ())
    ~sched_jobs:!bench_sched_jobs prog

let ph_sc ?schedule device prog =
  Pipelines.ph_sc ?schedule ~lint:(lint_level ())
    ~sched_jobs:!bench_sched_jobs device prog

let ph_it prog =
  Pipelines.ph_it ~lint:(lint_level ()) ~sched_jobs:!bench_sched_jobs prog

(* ---------- pooled tables & record cache (--jobs / --cache) ---------- *)

let bench_jobs = ref 1
let bench_cache : Ph_pool.Cache.t option ref = ref None

(* One (benchmark, config) cell of a table: everything the row printers
   and the --json report need, whether the compile ran here or the
   record came out of the cache. *)
type cell = { c_record : Report.record; c_verified : bool }

let cell ~bench ~config prog (r : Pipelines.run) =
  {
    c_record =
      Ph_pool.Batch.record ~name:bench ~config_name:config prog
        r.Pipelines.metrics r.Pipelines.trace;
    c_verified = Pipelines.verified r;
  }

(* Cache fingerprints.  The PH pipelines reconstruct the exact [Config]
   that [Pipelines.ph_*] builds, so [Config.fingerprint] describes the
   compile faithfully; the baselines are not config-driven and get a
   synthetic tag (with the device identity folded in where routing
   matters).  Both embed [Config.version_tag], so a version bump
   invalidates every entry. *)
let fp_ph_ft ?schedule () =
  Config.fingerprint (Config.ft ?schedule ~lint:(lint_level ()) ())

let fp_ph_sc ?schedule device =
  Config.fingerprint (Config.sc ?schedule ~lint:(lint_level ()) device)

let fp_baseline ?device tag =
  Printf.sprintf "v=%s;baseline=%s%s" Config.version_tag tag
    (match device with
    | None -> ""
    | Some d -> ";" ^ Config.fingerprint (Config.sc d))

(* Run one cell through the record cache when --cache is given, with
   the cache contract of [Ph_pool.Batch] (shared with `phc batch` and
   the serve daemon): only verified runs are published, and a hit comes
   back with this cell's labels, so it is trusted without recompiling. *)
let cached ~bench ~config ~fp prog (f : unit -> Pipelines.run) =
  match !bench_cache with
  | None -> cell ~bench ~config prog (f ())
  | Some cache -> (
    let key = Ph_pool.Batch.key ~config_fp:fp prog in
    match Ph_pool.Batch.lookup cache key ~bench ~config with
    | Some r -> { c_record = r; c_verified = true }
    | None ->
      let c = cell ~bench ~config prog (f ()) in
      Ph_pool.Batch.publish cache key ~verified:c.c_verified c.c_record;
      c)

let emit_cell c =
  if !json_enabled then
    json_records := Report.record_to_json c.c_record :: !json_records

let cell_cols ?(time = true) c =
  let m = c.c_record.Report.metrics in
  let base =
    [
      string_of_int m.Report.cnot;
      string_of_int m.Report.single;
      string_of_int m.Report.total;
      string_of_int m.Report.depth;
    ]
  in
  if time then base @ [ Printf.sprintf "%.2f" m.Report.seconds ] else base

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

(* ---------- Table 2: PH vs TK on both backends ---------- *)

let table2_sc filters =
  header "Table 2 (SC backend, Manhattan-65): PH vs PHX vs TK, each + generic stage"
    [ "config"; "cnot"; "single"; "total"; "depth"; "time(s)"; "gap" ];
  let cells =
    pooled
      (List.filter (wanted filters) (Suite.sc ()))
      (fun (b : Suite.t) ->
        let prog = b.Suite.generate () in
        let ph =
          analyzed prog
            (cached ~bench:b.Suite.name ~config:"table2-sc/PH"
               ~fp:(fp_ph_sc sc_device) prog (fun () -> ph_sc sc_device prog))
        in
        let phx =
          analyzed prog
            (cached ~bench:b.Suite.name ~config:"table2-sc/PHX"
               ~fp:(fp_ph_sc ~schedule:Config.Phoenix_like sc_device)
               prog
               (fun () -> ph_sc ~schedule:Config.Phoenix_like sc_device prog))
        in
        let tk =
          analyzed prog
            (cached ~bench:b.Suite.name ~config:"table2-sc/TK"
               ~fp:(fp_baseline ~device:sc_device "tk") prog (fun () ->
                 Pipelines.tk_sc sc_device prog))
        in
        ( [ ph; phx; tk ],
          [
            b.Suite.name, (cell_checked ph "PH" :: cell_cols ph) @ [ gap_col ph ];
            "", (cell_checked phx "PHX" :: cell_cols phx) @ [ gap_col phx ];
            "", (cell_checked tk "TK" :: cell_cols tk) @ [ gap_col tk ];
          ] ))
  in
  gap_geomeans cells;
  phx_geomeans ~base_cfg:"table2-sc/PH" ~phx_cfg:"table2-sc/PHX" ~base_name:"PH"
    cells

let table2_ft filters =
  header "Table 2 (FT backend): PH vs PHX vs TK, each + generic stage"
    [ "config"; "cnot"; "single"; "total"; "depth"; "time(s)"; "gap" ];
  let cells =
    pooled
      (List.filter (wanted filters) (Suite.ft ()))
      (fun (b : Suite.t) ->
        let prog = b.Suite.generate () in
        let ph =
          analyzed prog
            (cached ~bench:b.Suite.name ~config:"table2-ft/PH"
               ~fp:(fp_ph_ft ~schedule:Config.Depth_oriented ())
               prog
               (fun () -> ph_ft ~schedule:Config.Depth_oriented prog))
        in
        let phx =
          analyzed prog
            (cached ~bench:b.Suite.name ~config:"table2-ft/PHX"
               ~fp:(fp_ph_ft ~schedule:Config.Phoenix_like ())
               prog
               (fun () -> ph_ft ~schedule:Config.Phoenix_like prog))
        in
        let tk =
          analyzed prog
            (cached ~bench:b.Suite.name ~config:"table2-ft/TK"
               ~fp:(fp_baseline "tk") prog (fun () -> Pipelines.tk_ft prog))
        in
        ( [ ph; phx; tk ],
          [
            b.Suite.name, (cell_checked ph "PH" :: cell_cols ph) @ [ gap_col ph ];
            "", (cell_checked phx "PHX" :: cell_cols phx) @ [ gap_col phx ];
            "", (cell_checked tk "TK" :: cell_cols tk) @ [ gap_col tk ];
          ] ))
  in
  gap_geomeans cells;
  phx_geomeans ~base_cfg:"table2-ft/PH" ~phx_cfg:"table2-ft/PHX" ~base_name:"PH"
    cells

(* ---------- Table 3: PH vs the QAOA compiler ---------- *)

let table3 filters =
  header "Table 3 (Manhattan-65): PH vs algorithm-specific QAOA compiler"
    [ "config"; "cnot"; "single"; "total"; "depth"; "time(s)" ];
  ignore @@ pooled
    (List.filter
       (fun (b : Suite.t) ->
         wanted filters b && b.Suite.category = "QAOA" && b.Suite.name.[0] = 'R')
       (Suite.sc ()))
    (fun (b : Suite.t) ->
      let prog = b.Suite.generate () in
      let ph =
        cached ~bench:b.Suite.name ~config:"table3/PH" ~fp:(fp_ph_sc sc_device)
          prog (fun () -> ph_sc sc_device prog)
      in
      let phx =
        cached ~bench:b.Suite.name ~config:"table3/PHX"
          ~fp:(fp_ph_sc ~schedule:Config.Phoenix_like sc_device)
          prog
          (fun () -> ph_sc ~schedule:Config.Phoenix_like sc_device prog)
      in
      let qc =
        cached ~bench:b.Suite.name ~config:"table3/QAOA_comp"
          ~fp:(fp_baseline ~device:sc_device "qaoa") prog (fun () ->
            Pipelines.qaoa_sc sc_device prog)
      in
      ( [ ph; phx; qc ],
        [
          b.Suite.name, cell_checked ph "PH" :: cell_cols ph;
          "", cell_checked phx "PHX" :: cell_cols phx;
          "", cell_checked qc "QAOA_comp" :: cell_cols qc;
        ] ))

(* ---------- Table 4 left: DO vs GCO ---------- *)

let table4_sched filters =
  header
    "Table 4 (left): DO and PHX vs GCO scheduling (deltas relative to GCO)"
    [ "config"; "cnot"; "single"; "total"; "depth" ];
  let cells =
    pooled
      (List.filter (wanted filters) (Suite.all ()))
      (fun (b : Suite.t) ->
        let prog = b.Suite.generate () in
        let compiled schedule config =
          match b.Suite.backend with
          | Suite.FT ->
            cached ~bench:b.Suite.name ~config ~fp:(fp_ph_ft ~schedule ()) prog
              (fun () -> ph_ft ~schedule prog)
          | Suite.SC ->
            cached ~bench:b.Suite.name ~config ~fp:(fp_ph_sc ~schedule sc_device)
              prog
              (fun () -> ph_sc ~schedule sc_device prog)
        in
        let gco = compiled Config.Gco "table4-sched/GCO" in
        let dor = compiled Config.Depth_oriented "table4-sched/DO" in
        let phx = compiled Config.Phoenix_like "table4-sched/PHX" in
        let g = gco.c_record.Report.metrics in
        let deltas (m : Report.metrics) =
          [
            pct g.Report.cnot m.Report.cnot;
            pct g.Report.single m.Report.single;
            pct g.Report.total m.Report.total;
            pct g.Report.depth m.Report.depth;
          ]
        in
        ( [ gco; dor; phx ],
          (* DO differs from GCO only through layer choice, so it is N/A
             on single-block programs; PHX rewrites inside the block and
             stays meaningful *)
          (if Program.block_count prog <= 1 then
             [ b.Suite.name, [ "DO"; "N/A"; "N/A"; "N/A"; "N/A" ] ]
           else
             [
               ( cell_checked gco (cell_checked dor b.Suite.name),
                 "DO" :: deltas dor.c_record.Report.metrics );
             ])
          @ [ cell_checked phx "", "PHX" :: deltas phx.c_record.Report.metrics ]
        ))
  in
  phx_geomeans ~base_cfg:"table4-sched/GCO" ~phx_cfg:"table4-sched/PHX"
    ~base_name:"GCO" cells

(* ---------- Table 4 right: block-wise compilation improvement ---------- *)

(* Baseline: same scheduling, naive per-string synthesis, same generic
   stage (peephole; + router on SC) — the paper's "naive synthesis and
   Qiskit_L3". *)
let scheduled_naive (b : Suite.t) prog =
  let scheduled = Ph_schedule.Gco.run prog in
  match b.Suite.backend with
  | Suite.FT -> Pipelines.naive_ft scheduled
  | Suite.SC -> Pipelines.naive_sc sc_device scheduled

let table4_bc filters =
  header "Table 4 (right): block-wise compilation vs naive synthesis (deltas)"
    [ "config"; "cnot"; "single"; "total"; "depth" ];
  ignore @@ pooled
    (List.filter (wanted filters) (Suite.all ()))
    (fun (b : Suite.t) ->
      let prog = b.Suite.generate () in
      let compiled schedule config =
        match b.Suite.backend with
        | Suite.FT ->
          cached ~bench:b.Suite.name ~config ~fp:(fp_ph_ft ~schedule ()) prog
            (fun () -> ph_ft ~schedule prog)
        | Suite.SC ->
          cached ~bench:b.Suite.name ~config ~fp:(fp_ph_sc ~schedule sc_device)
            prog
            (fun () -> ph_sc ~schedule sc_device prog)
      in
      let ph = compiled Config.Gco "table4-bc/PH" in
      let phx = compiled Config.Phoenix_like "table4-bc/PHX" in
      let base =
        cached ~bench:b.Suite.name ~config:"table4-bc/naive"
          ~fp:
            (match b.Suite.backend with
            | Suite.FT -> fp_baseline "gco+naive"
            | Suite.SC -> fp_baseline ~device:sc_device "gco+naive")
          prog
          (fun () -> scheduled_naive b prog)
      in
      let n = base.c_record.Report.metrics in
      let deltas (m : Report.metrics) =
        [
          pct n.Report.cnot m.Report.cnot;
          pct n.Report.single m.Report.single;
          pct n.Report.total m.Report.total;
          pct n.Report.depth m.Report.depth;
        ]
      in
      ( [ ph; phx; base ],
        [
          ( cell_checked ph (cell_checked base b.Suite.name),
            "PH" :: deltas ph.c_record.Report.metrics );
          cell_checked phx "", "PHX" :: deltas phx.c_record.Report.metrics;
        ] ))

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
        let base =
          let lowered = Ph_synthesis.Naive.synthesize prog in
          let routed =
            Ph_baselines.Router.route ~initial:`Identity ~lookahead:1
              ~coupling:device lowered.Ph_synthesis.Emit.circuit
          in
          let circuit =
            Ph_gatelevel.Peephole.optimize
              (Ph_gatelevel.Circuit.decompose_swaps routed.Ph_baselines.Router.circuit)
          in
          {
            Pipelines.circuit;
            rotations = lowered.Ph_synthesis.Emit.rotations;
            initial_layout = Some routed.Ph_baselines.Router.initial_layout;
            final_layout = Some routed.Ph_baselines.Router.final_layout;
            metrics = Report.of_circuit circuit;
            trace = Report.empty_trace;
          }
        in
        let ph = ph_sc device prog in
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
  let ft_mode mode prog =
    let layers = Ph_schedule.Gco.schedule prog in
    let r = Ph_synthesis.Ft_backend.synthesize ~mode ~n_qubits:(Program.n_qubits prog) layers in
    Report.of_circuit (Ph_gatelevel.Peephole.optimize r.Ph_synthesis.Emit.circuit)
  in
  let do_padding padding prog =
    let layers = Ph_schedule.Depth_oriented.schedule ~padding prog in
    let r = Ph_synthesis.Ft_backend.synthesize ~n_qubits:(Program.n_qubits prog) layers in
    Report.of_circuit (Ph_gatelevel.Peephole.optimize r.Ph_synthesis.Emit.circuit)
  in
  let sc_root root_policy prog =
    let layers = Ph_schedule.Depth_oriented.schedule prog in
    let r =
      Ph_synthesis.Sc_backend.synthesize ~root_policy ~coupling:sc_device
        ~n_qubits:(Program.n_qubits prog) layers
    in
    Report.of_circuit
      (Ph_gatelevel.Peephole.optimize
         (Ph_gatelevel.Circuit.decompose_swaps r.Ph_synthesis.Sc_backend.circuit))
  in
  let lex_rank rank prog =
    let layers = Ph_schedule.Gco.schedule ?rank prog in
    let r = Ph_synthesis.Ft_backend.synthesize ~n_qubits:(Program.n_qubits prog) layers in
    Report.of_circuit (Ph_gatelevel.Peephole.optimize r.Ph_synthesis.Emit.circuit)
  in
  let run name cases =
    if filters = [] || List.mem name filters then begin
      let prog = (Suite.find name).Suite.generate () in
      show name prog cases
    end
  in
  let sched_variant schedule prog =
    (ph_ft ~schedule prog).Pipelines.metrics
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
  let it_backend prog = (ph_it prog).Pipelines.metrics in
  let ft_backend prog = (ph_ft prog).Pipelines.metrics in
  run "Heisen-1D"
    [ "backend-ft", ft_backend; "backend-ion", it_backend ]

(* ---------- Compile-time study (bechamel) ---------- *)

(* Word-parallel Pauli-kernel microbenchmarks: the symplectic bitplane
   ops the schedulers and the frame verifier spend their time in, at
   widths from sub-word to several words (the native word holds
   Sys.int_size - 1 = 62 qubits per plane word). *)
let kernel_tests () =
  let open Bechamel in
  let open Ph_pauli in
  (* Deterministic LCG so every run benchmarks identical strings. *)
  let string_at ~seed n =
    let state = ref (seed land 0x3FFFFFFF) in
    Pauli_string.make n (fun _ ->
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        Pauli.of_code ((!state lsr 16) land 3))
  in
  List.concat_map
    (fun n ->
      let p = string_at ~seed:(0xA5 + n) n and q = string_at ~seed:(0x5A + n) n in
      [
        Test.make ~name:(Printf.sprintf "kernel/commutes-n%d" n)
          (Staged.stage (fun () -> ignore (Pauli_string.commutes p q)));
        Test.make ~name:(Printf.sprintf "kernel/overlap-n%d" n)
          (Staged.stage (fun () -> ignore (Pauli_string.overlap p q)));
        Test.make ~name:(Printf.sprintf "kernel/mul-n%d" n)
          (Staged.stage (fun () -> ignore (Pauli_string.mul p q)));
      ])
    [ 16; 64; 80; 256 ]

let timing () =
  let open Bechamel in
  let open Toolkit in
  Printf.printf "\n=== Compilation-time study (bechamel, one test per table) ===\n%!";
  let stage f = Staged.stage f in
  let uccsd8 = (Suite.find "UCCSD-8").Suite.generate () in
  let reg = (Suite.find "REG-20-4").Suite.generate () in
  let heisen = (Suite.find "Heisen-2D").Suite.generate () in
  let rand30 = (Suite.find "Rand-30").Suite.generate () in
  let fig11_graph = Graphs.regular ~seed:407 7 4 in
  let fig11_prog = Qaoa.maxcut fig11_graph ~gamma:0.5 in
  let tests =
    [
      Test.make ~name:"table1/naive-UCCSD-8"
        (stage (fun () -> ignore (Ph_synthesis.Naive.synthesize uccsd8)));
      Test.make ~name:"table2-sc/ph-UCCSD-8"
        (stage (fun () -> ignore (ph_sc sc_device uccsd8)));
      Test.make ~name:"table2-ft/ph-Rand-30"
        (stage (fun () -> ignore (ph_ft rand30)));
      Test.make ~name:"table3/ph-REG-20-4"
        (stage (fun () -> ignore (ph_sc sc_device reg)));
      Test.make ~name:"table4/do-Heisen-2D"
        (stage (fun () -> ignore (ph_ft ~schedule:Config.Depth_oriented heisen)));
      Test.make ~name:"fig11/ph-REG-n7-d4"
        (stage (fun () -> ignore (ph_sc Devices.melbourne fig11_prog)));
    ]
    @ (* schedule_s study: the DO scheduler alone over the 64-256 qubit
         scale suite, no synthesis — the rows the arena rewrite targets *)
    List.map
      (fun (b : Suite.t) ->
        let prog = b.Suite.generate () in
        Test.make ~name:(Printf.sprintf "sched/do-%s" b.Suite.name)
          (stage (fun () ->
               ignore (Ph_schedule.Depth_oriented.schedule prog))))
      (Suite.scale ())
    @ kernel_tests ()
  in
  let test = Test.make_grouped ~name:"paulihedral" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances test in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _label per_test ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) when t < 1e4 ->
            (* kernel microbenchmarks land in the ns range *)
            Printf.printf "%-40s %12.1f ns/run\n" name t
          | Some (t :: _) -> Printf.printf "%-40s %12.3f ms/run\n" name (t /. 1e6)
          | _ -> Printf.printf "%-40s (no estimate)\n" name)
        per_test)
    results

(* ---------- scale: the scheduler-scaling study ---------- *)

(* DO and PHX compiles of the 64-256 qubit scale suite (FT backend),
   with the scheduling stage's wall time broken out — the table the
   schedule_s speedup target is measured on. *)
let scale_table filters =
  header "Scale: DO vs PHX scheduling at 64-256 qubits (FT backend)"
    [ "config"; "cnot"; "single"; "total"; "depth"; "time(s)"; "sched(s)"; "gap" ];
  let cells =
    pooled
      (List.filter (wanted filters) (Suite.scale ()))
      (fun (b : Suite.t) ->
        let prog = b.Suite.generate () in
        let compiled schedule config =
          analyzed prog
            (cached ~bench:b.Suite.name ~config ~fp:(fp_ph_ft ~schedule ()) prog
               (fun () -> ph_ft ~schedule prog))
        in
        let ph = compiled Config.Depth_oriented "scale/PH" in
        let phx = compiled Config.Phoenix_like "scale/PHX" in
        let sched c =
          Printf.sprintf "%.3f" c.c_record.Report.trace.Report.schedule_s
        in
        ( [ ph; phx ],
          [
            ( b.Suite.name,
              (cell_checked ph "PH" :: cell_cols ph)
              @ [ sched ph; gap_col ph ] );
            ( "",
              (cell_checked phx "PHX" :: cell_cols phx)
              @ [ sched phx; gap_col phx ] );
          ] ))
  in
  gap_geomeans cells;
  phx_geomeans ~base_cfg:"scale/PH" ~phx_cfg:"scale/PHX" ~base_name:"DO" cells

(* ---------- driver ---------- *)

let experiments =
  [
    "table1", table1;
    "table2-sc", table2_sc;
    "table2-ft", table2_ft;
    "table3", table3;
    "table4-sched", table4_sched;
    "table4-bc", table4_bc;
    "fig11", fig11;
    "ablation", ablation;
    "scale", scale_table;
  ]

let usage () =
  prerr_endline
    "usage: main.exe [table1|table2-sc|table2-ft|table3|table4-sched|table4-bc|fig11|ablation|scale|timing] [benchmark names...] [--json FILE] [--lint] [--jobs N] [--sched-jobs N] [--cache DIR]\n\
    \       main.exe history record --commit LABEL [--db FILE] [--suite ft|sc|scale|all] [--jobs N]\n\
    \       main.exe history import FILE.json --commit LABEL [--db FILE]\n\
    \       main.exe history show [--db FILE] [--counter NAME] [--last N]\n\
    \       main.exe history compare A B [--db FILE]   (commit labels or .json reports)\n\
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

(* Fresh PH compiles of the table-2 suites (never cache-served: the
   counters must measure work actually performed here).  Row identity
   matches the table runners so imported BENCH_*.json rows and freshly
   recorded rows land on the same (bench, config) keys. *)
let history_records suite =
  let ft () = List.map (fun b -> `Ft b) (Suite.ft ()) in
  let sc () = List.map (fun b -> `Sc b) (Suite.sc ()) in
  let scale () = List.map (fun b -> `Scale b) (Suite.scale ()) in
  let items =
    match suite with
    | "ft" -> ft ()
    | "sc" -> sc ()
    | "scale" -> scale ()
    | "all" -> ft () @ sc () @ scale ()
    | _ -> usage ()
  in
  Ph_pool.Pool.map ~jobs:!bench_jobs
    (fun item ->
      let record ~bench ~config prog run =
        analyzed_record prog (cell ~bench ~config prog run).c_record
      in
      match item with
      | `Ft (b : Suite.t) ->
        let prog = b.Suite.generate () in
        [
          record ~bench:b.Suite.name ~config:"table2-ft/PH" prog
            (ph_ft ~schedule:Config.Depth_oriented prog);
          record ~bench:b.Suite.name ~config:"table2-ft/PHX" prog
            (ph_ft ~schedule:Config.Phoenix_like prog);
        ]
      | `Sc (b : Suite.t) ->
        let prog = b.Suite.generate () in
        [
          record ~bench:b.Suite.name ~config:"table2-sc/PH" prog
            (ph_sc sc_device prog);
          record ~bench:b.Suite.name ~config:"table2-sc/PHX" prog
            (ph_sc ~schedule:Config.Phoenix_like sc_device prog);
        ]
      | `Scale (b : Suite.t) ->
        let prog = b.Suite.generate () in
        [
          record ~bench:b.Suite.name ~config:"scale/PH" prog
            (ph_ft ~schedule:Config.Depth_oriented prog);
          record ~bench:b.Suite.name ~config:"scale/PHX" prog
            (ph_ft ~schedule:Config.Phoenix_like prog);
        ])
    items
  |> List.concat_map (function Stdlib.Ok rs -> rs | Stdlib.Error e -> raise e)

let rows_of_records ~commit records =
  List.concat_map (Report.perf_rows ~commit) records

(* Records of a bench --json report.  A missing or malformed file is a
   usage error of `history import|compare`, not a crash. *)
let load_records path =
  let fail msg =
    (* the Sys_error of a failed open already names the file *)
    let msg =
      if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg
    in
    Printf.eprintf "history: %s\n" msg;
    exit 1
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> fail msg
  | s -> (
    try List.map Report.record_of_json (Json.to_list (Json.parse s))
    with Json.Parse_error msg -> fail msg)

(* A comparison operand is either a commit label in the db or a path to
   a bench --json report (rows synthesized under the file name). *)
let history_operand db spec =
  if Filename.check_suffix spec ".json" then
    spec, rows_of_records ~commit:spec (load_records spec)
  else spec, Ph_perf.Db.rows_for db spec

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
    let records = history_records suite in
    let rows = rows_of_records ~commit records in
    Ph_perf.Db.append db_path rows;
    Printf.printf "history: appended %d rows (%d records, suite %s) for %s to %s\n"
      (List.length rows) (List.length records) suite commit db_path;
    0
  | "import" :: file :: rest ->
    let commit, rest = extract_opt "--commit" [] rest in
    if rest <> [] then usage ();
    let commit = match commit with Some c -> c | None -> usage () in
    let rows = rows_of_records ~commit (load_records file) in
    Ph_perf.Db.append db_path rows;
    Printf.printf "history: imported %d rows from %s as %s into %s\n"
      (List.length rows) file commit db_path;
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
      let names =
        match counter with
        | None -> Ph_perf.History.counter_names db
        | Some c -> [ c ]
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
  | "compare" :: rest ->
    let rest, operands =
      List.partition (fun a -> String.length a > 2 && String.sub a 0 2 = "--") rest
    in
    if rest <> [] then usage ();
    (match operands with
    | [ a; b ] ->
      let db = Ph_perf.Db.load db_path in
      let la, base = history_operand db a in
      let lb, cand = history_operand db b in
      Printf.printf "=== history compare: %s (A, %d rows) vs %s (B, %d rows) ===\n"
        la (List.length base) lb (List.length cand);
      print_summaries (Ph_perf.History.summarize ~baseline:base ~candidate:cand);
      0
    | _ -> usage ())
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
    let baseline = Ph_perf.Db.rows_for db base_label in
    if baseline = [] then begin
      Printf.eprintf "history gate: no rows for baseline %s in %s\n" base_label
        db_path;
      exit 1
    end;
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
  (match cache_dir with
  | Some dir -> bench_cache := Some (Ph_pool.Cache.create ~dir ())
  | None -> ());
  json_enabled := json_path <> None;
  (match args with
  | "history" :: rest -> exit (history_entry rest)
  | "timing" :: _ -> timing ()
  | name :: filters when List.mem_assoc name experiments ->
    (List.assoc name experiments) filters
  | [] -> List.iter (fun (_, f) -> f []) experiments
  | _ -> usage ());
  (match json_path with Some path -> write_json path | None -> ());
  Option.iter
    (fun cache -> print_endline (Ph_pool.Cache.summary (Ph_pool.Cache.counters cache)))
    !bench_cache
