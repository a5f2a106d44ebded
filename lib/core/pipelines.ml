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
  verdict : bool Lazy.t;
}

let ph config prog =
  let (o : Compiler.output) = Compiler.compile config prog in
  {
    circuit = o.circuit;
    rotations = o.rotations;
    initial_layout = o.initial_layout;
    final_layout = o.final_layout;
    metrics = o.metrics;
    trace = o.trace;
    verdict = o.verdict;
  }

(* One baseline run: [synthesize] yields (circuit, rotations, layouts),
   with layouts exactly when it routed onto a device; then the shared
   lowering tail with lint off and the peephole on, and a trace whose
   scheduling fields stay zero. *)
let baseline synthesize =
  let run () =
    let (routed, rotations, layouts), synthesis_s = Report.timed synthesize in
    let t = Compiler.lower ~peephole:true ~rotations ?layouts routed in
    let counters = { t.trace.counters with Report.sc_swaps = Circuit.swap_count routed } in
    t, rotations, layouts, { t.trace with Report.synthesis_s; counters }
  in
  let (t, rotations, layouts, trace), seconds = Report.timed run in
  {
    circuit = t.Compiler.circuit;
    rotations;
    initial_layout = Option.map fst layouts;
    final_layout = Option.map snd layouts;
    metrics = { t.Compiler.metrics with Report.seconds };
    trace;
    verdict = t.Compiler.verdict;
  }

let ft_stage synthesize prog =
  baseline (fun () ->
      let (r : Emit.result) = synthesize prog in
      r.circuit, r.rotations, None)

let sc_stage ?initial ?lookahead synthesize coupling prog =
  baseline (fun () ->
      let (r : Emit.result) = synthesize prog in
      let routed = Router.route ?initial ?lookahead ~coupling r.circuit in
      ( routed.Router.circuit,
        r.rotations,
        Some (routed.Router.initial_layout, routed.Router.final_layout) ))

let tk_ft ?strategy prog = ft_stage (Tk_like.compile ?strategy) prog
let tk_sc ?strategy coupling prog = sc_stage (Tk_like.compile ?strategy) coupling prog
let naive_ft prog = ft_stage Naive.synthesize prog

let naive_sc ?initial ?lookahead coupling prog =
  sc_stage ?initial ?lookahead Naive.synthesize coupling prog

let qaoa_sc coupling prog =
  baseline (fun () ->
      let r = Qaoa_compiler.compile ~coupling prog in
      ( r.Qaoa_compiler.circuit,
        r.Qaoa_compiler.rotations,
        Some (r.Qaoa_compiler.initial_layout, r.Qaoa_compiler.final_layout) ))

let verified run = Lazy.force run.verdict
