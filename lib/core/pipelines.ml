open Ph_pauli
open Ph_gatelevel
open Ph_hardware
open Ph_synthesis
open Ph_baselines

type run = {
  circuit : Circuit.t;
  rotations : (Pauli_string.t * float) list;
  initial_layout : Layout.t option;
  final_layout : Layout.t option;
  metrics : Report.metrics;
  trace : Report.trace;
}

let of_output (o : Compiler.output) =
  {
    circuit = o.circuit;
    rotations = o.rotations;
    initial_layout = o.initial_layout;
    final_layout = o.final_layout;
    metrics = o.metrics;
    trace = o.trace;
  }

let ph_ft ?schedule ?lint ?window ?sched_jobs prog =
  of_output (Compiler.compile_ft ?schedule ?lint ?window ?sched_jobs prog)

let ph_sc ?schedule ?noise ?lint ?window ?sched_jobs coupling prog =
  of_output
    (Compiler.compile_sc ?schedule ?noise ?lint ?window ?sched_jobs ~coupling
       prog)

let ph_it ?schedule ?lint ?window ?sched_jobs prog =
  of_output
    (Compiler.compile (Config.ion_trap ?schedule ?lint ?window ?sched_jobs ())
       prog)

(* Trace of a baseline stage: synthesis + peephole only (plus SWAP
   decomposition on SC); scheduling counters stay zero. *)
let baseline_trace ?(synthesis_s = 0.) ?(swap_decompose_s = 0.) ?(peephole_s = 0.)
    ?(sc_swaps = 0) (pstats : Peephole.stats) =
  {
    Report.schedule_s = 0.;
    synthesis_s;
    swap_decompose_s;
    peephole_s;
    lint_s = 0.;
    lint = [];
    perf = [];
    analysis = None;
    counters =
      {
        Report.empty_counters with
        Report.sc_swaps;
        peephole_removed = pstats.Peephole.removed;
        peephole_rounds = pstats.Peephole.rounds;
      };
  }

let ft_stage synthesize prog =
  let t0 = Unix.gettimeofday () in
  let (r : Emit.result), synthesis_s = Report.timed (fun () -> synthesize prog) in
  let (circuit, pstats), peephole_s =
    Report.timed (fun () -> Peephole.optimize_stats r.circuit)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  {
    circuit;
    rotations = r.rotations;
    initial_layout = None;
    final_layout = None;
    metrics = Report.of_circuit ~seconds circuit;
    trace = baseline_trace ~synthesis_s ~peephole_s pstats;
  }

let sc_stage synthesize coupling prog =
  let t0 = Unix.gettimeofday () in
  let (r : Emit.result), synthesis_s = Report.timed (fun () -> synthesize prog) in
  let routed, routing_s = Report.timed (fun () -> Router.route ~coupling r.circuit) in
  let decomposed, swap_decompose_s =
    Report.timed (fun () -> Circuit.decompose_swaps routed.Router.circuit)
  in
  let (circuit, pstats), peephole_s =
    Report.timed (fun () -> Peephole.optimize_stats decomposed)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let sc_swaps =
    Array.fold_left
      (fun acc g -> match g with Gate.Swap _ -> acc + 1 | _ -> acc)
      0
      (Circuit.gates routed.Router.circuit)
  in
  {
    circuit;
    rotations = r.rotations;
    initial_layout = Some routed.Router.initial_layout;
    final_layout = Some routed.Router.final_layout;
    metrics = Report.of_circuit ~seconds circuit;
    trace =
      baseline_trace
        ~synthesis_s:(synthesis_s +. routing_s)
        ~swap_decompose_s ~peephole_s ~sc_swaps pstats;
  }

let tk_ft ?strategy prog = ft_stage (Tk_like.compile ?strategy) prog
let tk_sc ?strategy coupling prog = sc_stage (Tk_like.compile ?strategy) coupling prog
let naive_ft prog = ft_stage Naive.synthesize prog
let naive_sc coupling prog = sc_stage Naive.synthesize coupling prog

let qaoa_sc coupling prog =
  let t0 = Unix.gettimeofday () in
  let r, synthesis_s =
    Report.timed (fun () -> Qaoa_compiler.compile ~coupling prog)
  in
  let decomposed, swap_decompose_s =
    Report.timed (fun () -> Circuit.decompose_swaps r.Qaoa_compiler.circuit)
  in
  let (circuit, pstats), peephole_s =
    Report.timed (fun () -> Peephole.optimize_stats decomposed)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let sc_swaps =
    Array.fold_left
      (fun acc g -> match g with Gate.Swap _ -> acc + 1 | _ -> acc)
      0
      (Circuit.gates r.Qaoa_compiler.circuit)
  in
  {
    circuit;
    rotations = r.Qaoa_compiler.rotations;
    initial_layout = Some r.Qaoa_compiler.initial_layout;
    final_layout = Some r.Qaoa_compiler.final_layout;
    metrics = Report.of_circuit ~seconds circuit;
    trace =
      baseline_trace ~synthesis_s ~swap_decompose_s ~peephole_s ~sc_swaps pstats;
  }

let verified run =
  match run.initial_layout, run.final_layout with
  | Some initial, Some final ->
    Ph_verify.Pauli_frame.verify_sc ~circuit:run.circuit ~trace:run.rotations
      ~initial ~final
  | _ -> Ph_verify.Pauli_frame.verify_ft run.circuit ~trace:run.rotations
