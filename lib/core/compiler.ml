open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware
open Ph_schedule
open Ph_synthesis

type output = {
  circuit : Circuit.t;
  rotations : (Pauli_string.t * float) list;
  initial_layout : Layout.t option;
  final_layout : Layout.t option;
  metrics : Report.metrics;
  trace : Report.trace;
  certificate : Ph_analysis.Certificate.t;
  opt_program : Program.t option;
  verdict : bool Lazy.t;
}

let lint_errors o = Ph_lint.Diag.errors o.trace.Report.lint
let verified o = Lazy.force o.verdict

let schedule_layers config prog =
  let window = config.Config.window in
  let jobs = config.Config.sched_jobs in
  match config.Config.schedule with
  | Config.Program_order | Config.Phoenix_like ->
    (* under Phoenix, [prog] is the post-opt program: [Ph_opt.Pass]
       already fixed the block order (GCO-sorted within each Clifford
       frame), so the layers are its blocks verbatim *)
    let layers = List.map Layer.of_block (Program.blocks prog) in
    layers, (List.length layers, 0)
  | Config.Gco ->
    let layers = Gco.schedule prog in
    layers, (List.length layers, 0)
  | Config.Depth_oriented ->
    let layers, stats = Depth_oriented.schedule_stats ~window ~jobs prog in
    layers, (stats.Depth_oriented.layers, stats.Depth_oriented.padded)
  | Config.Max_overlap ->
    let layers = Max_overlap.schedule ~window ~jobs prog in
    layers, (List.length layers, 0)

(* [staged f] runs one compile stage: its result, wall time and the
   minor-heap words it allocated.  [Gc.minor_words] reads the calling
   domain's allocation pointer, so the count is exact and reproducible
   for a fixed compiler binary. *)
let staged f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  r, dt, int_of_float (Gc.minor_words () -. w0)

(* Accumulator for the verify-each checkers: [lint_run] times one
   checker and appends its findings in stage order; without one (lint
   off) no checker runs. *)
type lint = {
  mutable diags : Ph_lint.Diag.t list;
  mutable seconds : float;
  mutable words : int;
}

let lint_run lint check =
  match lint with
  | Some acc ->
    let diags, dt, words = staged check in
    acc.diags <- acc.diags @ diags;
    acc.seconds <- acc.seconds +. dt;
    acc.words <- acc.words + words
  | None -> ()

type lowered = {
  circuit : Circuit.t;
  metrics : Report.metrics;
  trace : Report.trace;
  swap_words : int;
  peephole_words : int;
  verdict : bool Lazy.t;
}

(* The one post-synthesis tail; it builds the verdict lazily, once. *)
let lower ?lint ?replay ~peephole ~rotations ?layouts synthesized =
  lint_run lint (fun () -> Ph_lint.Check_gates.circuit synthesized);
  (match replay, layouts with
  | Some (coupling, claimed_swaps), Some (initial, final) ->
    lint_run lint (fun () ->
        Ph_lint.Check_sc.check ~coupling ~initial ~final ~claimed_swaps synthesized)
  | _ -> ());
  let decomposed, swap_decompose_s, swap_words =
    match layouts with
    | Some _ -> staged (fun () -> Circuit.decompose_swaps synthesized)
    | None -> synthesized, 0., 0
  in
  let (circuit, pstats), peephole_s, peephole_words =
    if peephole then staged (fun () -> Peephole.optimize_stats decomposed)
    else (decomposed, { Peephole.removed = 0; rounds = 0 }), 0., 0
  in
  (* stage 4: the final circuit — structural invariants must have
     survived SWAP decomposition and cleanup, and the Pauli-frame
     verdict ties the whole pipeline back to the rotation trace *)
  lint_run lint (fun () -> Ph_lint.Check_gates.circuit ~post_peephole:peephole circuit);
  let verdict = lazy (Ph_verify.Pauli_frame.verify ?layouts ~trace:rotations circuit) in
  lint_run lint (fun () -> Ph_lint.Check_frame.check ~rotations verdict);
  let counters =
    {
      Report.empty_counters with
      Report.peephole_removed = pstats.Peephole.removed;
      peephole_rounds = pstats.Peephole.rounds;
    }
  in
  {
    circuit;
    metrics = Report.of_circuit circuit;
    trace = { Report.empty_trace with Report.swap_decompose_s; peephole_s; counters };
    swap_words;
    peephole_words;
    verdict;
  }

let compile config prog =
  (match config.Config.backend, config.Config.schedule with
  | Config.Ion_trap, Config.Phoenix_like ->
    invalid_arg
      "Compiler.compile: schedule phoenix is not supported on the ion-trap \
       backend"
  | _ -> ());
  (* Counter hygiene before any allocation baseline is sampled: the
     domain-local counter array must already exist (its one-time DLS
     setup would otherwise be charged to the first compile each domain
     runs, breaking --jobs 1 vs --jobs N byte-identity), and the
     coupling map's lazy all-pairs BFS must be forced for the same
     reason — shared device values are warmed by whichever compile gets
     there first.  The scan team's worker domains are spawned here too:
     a parallel dispatch allocates nothing on this domain once they
     exist, so --sched-jobs 1 and N record the same allocation words. *)
  Ph_perf.Counter.touch ();
  Ph_exec.Team.warm config.Config.sched_jobs;
  (match config.Config.backend with
  | Config.Sc { coupling; _ } ->
    if Coupling.n_qubits coupling > 0 then
      ignore (Coupling.distance coupling 0 0)
  | Config.Ft | Config.Ion_trap -> ());
  let perf0 = Ph_perf.Counter.snapshot () in
  let t0 = Unix.gettimeofday () in
  let acc = { diags = []; seconds = 0.; words = 0 } in
  let lint = if config.Config.lint = Ph_lint.Diag.Off then None else Some acc in
  (* stage -1: the configuration itself *)
  lint_run lint (fun () ->
      let backend_view =
        match config.Config.backend with
        | Config.Ft -> Ph_lint.Check_config.Ft_view
        | Config.Sc { coupling; _ } -> Ph_lint.Check_config.Sc_view coupling
        | Config.Ion_trap -> Ph_lint.Check_config.Ion_trap_view
      in
      Ph_lint.Check_config.check ~backend:backend_view
        ~peephole:config.Config.peephole);
  (* stage 0: the input Pauli IR *)
  lint_run lint (fun () -> Ph_lint.Check_ir.program prog);
  (* stage 0.5 (Phoenix only): the high-level IR optimizer — grouping,
     simultaneous diagonalization, fusion.  Everything downstream of
     this point (scheduling, lint, the certificate) sees the rewritten
     program; the optimizer's own time and allocation are reported
     separately and fold into the schedule stage totals. *)
  let opt, opt_s, opt_words =
    match config.Config.schedule with
    | Config.Phoenix_like ->
      let o, s, words = staged (fun () -> Ph_opt.Pass.run prog) in
      Some o, s, words
    | _ -> None, 0., 0
  in
  let sched_program =
    match opt with Some o -> o.Ph_opt.Pass.program | None -> prog
  in
  (match opt with
  | Some o -> lint_run lint (fun () -> Ph_lint.Check_ir.program o.Ph_opt.Pass.program)
  | None -> ());
  (* stage 1: block scheduling *)
  let (layers, (sched_layers, sched_padded)), schedule_s, schedule_words =
    staged (fun () -> schedule_layers config sched_program)
  in
  lint_run lint (fun () -> Ph_lint.Check_schedule.check ~program:sched_program layers);
  (* stage 2: backend synthesis (plus hardware replay on SC).  Each
     backend only synthesizes; [layouts] is [Some] exactly when the
     circuit is routed onto a device *)
  let n_qubits = Program.n_qubits prog in
  let (synthesized, rotations, layouts, sc_swaps), synthesis_s, synthesis_words =
    let emitted (r, s, words) = (r.Emit.circuit, r.Emit.rotations, None, 0), s, words in
    match config.Config.backend with
    | Config.Ft ->
      emitted
        (staged (fun () ->
             match opt with
             | Some o -> Ph_opt.Phoenix_backend.synthesize_ft ~n_qubits o
             | None -> Ft_backend.synthesize ~n_qubits layers))
    | Config.Sc { coupling; noise } ->
      let r, s, words =
        staged (fun () ->
            match opt with
            | Some o ->
              (* a noise model only disables caching upstream; the
                 Phoenix router is distance-driven *)
              Ph_opt.Phoenix_backend.synthesize_sc ~coupling ~n_qubits o
            | None -> Sc_backend.synthesize ?noise ~coupling ~n_qubits layers)
      in
      Sc_backend.(
        (r.circuit, r.rotations, Some (r.initial_layout, r.final_layout), r.swaps), s, words)
    | Config.Ion_trap -> emitted (staged (fun () -> Ion_trap.synthesize ~n_qubits layers))
  in
  (* stage 3: the shared tail.  The ion-trap lowering interleaves its
     own cleanup, so the generic peephole never runs there (CFG001
     warns when a config claims it) *)
  let replay, peephole =
    match config.Config.backend with
    | Config.Sc { coupling; _ } -> Some (coupling, sc_swaps), config.Config.peephole
    | Config.Ft -> None, config.Config.peephole
    | Config.Ion_trap -> None, false
  in
  let t = lower ?lint ?replay ~peephole ~rotations ?layouts synthesized in
  (* the optimizer is part of the scheduling family's work; its time
     folds into the schedule stage total (the [alloc_opt_words] entry
     keeps its allocation separately attributable) *)
  let schedule_s = opt_s +. schedule_s in
  let metrics = t.metrics in
  (* stage 5 (opt-in): the static analyzer — bounds and gap diagnostics
     run inside the compile window so their work counters land in
     [trace.perf]; findings are appended regardless of the lint level
     ([Config.analyze] is its own switch), and the time folds into
     [lint_s] alongside the other checkers *)
  let analysis =
    if config.Config.analyze then begin
      let (summary, diags), ana_s, ana_words =
        staged (fun () ->
            let bounds = Ph_analysis.Bounds.of_program prog in
            let summary =
              Ph_analysis.Gap.summarize ~cnot:metrics.Report.cnot
                ~single:metrics.Report.single ~total:metrics.Report.total
                ~depth:metrics.Report.depth bounds
            in
            ( summary,
              Ph_analysis.Gap.diagnose ~threshold:config.Config.gap_threshold
                summary ))
      in
      acc.diags <- acc.diags @ diags;
      acc.seconds <- acc.seconds +. ana_s;
      acc.words <- acc.words + ana_words;
      Some summary
    end
    else None
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let perf1 = Ph_perf.Counter.snapshot () in
  (* The [alloc_*] entries shift across compiler versions, which is
     why [Counter.gated] excludes them from the regression gate. *)
  let perf =
    Ph_perf.Counter.compile_assoc ~before:perf0 ~after:perf1
    @ [
        "alloc_opt_words", opt_words;
        "alloc_schedule_words", schedule_words;
        "alloc_synthesis_words", synthesis_words;
        "alloc_swap_words", t.swap_words;
        "alloc_peephole_words", t.peephole_words;
        "alloc_lint_words", acc.words;
      ]
  in
  (* The certificate is built outside the perf window: digesting blocks
     is bookkeeping about the schedule, not compilation work. *)
  let certificate =
    let opt_acc =
      Option.map
        (fun (o : Ph_opt.Pass.t) ->
          {
            Ph_analysis.Certificate.blocks_in = Program.block_count prog;
            groups = o.Ph_opt.Pass.stats.Ph_opt.Pass.groups;
            fused = o.Ph_opt.Pass.stats.Ph_opt.Pass.fused_blocks;
          })
        opt
    in
    Ph_analysis.Certificate.build ~n_qubits:(Program.n_qubits prog) ?opt:opt_acc
      ~cnot:metrics.Report.cnot ~single:metrics.Report.single
      ~depth:metrics.Report.depth
      (List.map (fun l -> l.Layer.blocks) layers)
  in
  {
    circuit = t.circuit;
    rotations;
    initial_layout = Option.map fst layouts;
    final_layout = Option.map snd layouts;
    metrics = { metrics with Report.seconds };
    trace =
      {
        t.trace with
        Report.schedule_s;
        synthesis_s;
        lint_s = acc.seconds;
        counters =
          {
            t.trace.Report.counters with
            Report.sched_layers;
            sched_padded;
            sched_window = config.Config.window;
            sc_swaps;
          };
        lint = acc.diags;
        perf;
        analysis;
      };
    certificate;
    opt_program = Option.map (fun (o : Ph_opt.Pass.t) -> o.Ph_opt.Pass.program) opt;
    verdict = t.verdict;
  }
