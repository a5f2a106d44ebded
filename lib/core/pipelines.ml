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

let ph config prog =
  let (o : Compiler.output) = Compiler.compile config prog in
  {
    circuit = o.circuit;
    rotations = o.rotations;
    initial_layout = o.initial_layout;
    final_layout = o.final_layout;
    metrics = o.metrics;
    trace = o.trace;
  }

(* One baseline run: [synthesize] yields (circuit, rotations, layouts),
   with layouts exactly when it routed onto a device; then the generic
   stage — SWAP decomposition on routed circuits, peephole — and a trace
   whose scheduling fields stay zero. *)
let baseline synthesize =
  let run () =
    let (routed, rotations, layouts), synthesis_s = Report.timed synthesize in
    let decomposed, swap_decompose_s =
      match layouts with
      | Some _ -> Report.timed (fun () -> Circuit.decompose_swaps routed)
      | None -> routed, 0.
    in
    let (circuit, pstats), peephole_s =
      Report.timed (fun () -> Peephole.optimize_stats decomposed)
    in
    let counters =
      {
        Report.empty_counters with
        Report.sc_swaps = Circuit.swap_count routed;
        peephole_removed = pstats.Peephole.removed;
        peephole_rounds = pstats.Peephole.rounds;
      }
    in
    ( circuit,
      rotations,
      layouts,
      { Report.empty_trace with synthesis_s; swap_decompose_s; peephole_s; counters } )
  in
  let (circuit, rotations, layouts, trace), seconds = Report.timed run in
  {
    circuit;
    rotations;
    initial_layout = Option.map fst layouts;
    final_layout = Option.map snd layouts;
    metrics = Report.of_circuit ~seconds circuit;
    trace;
  }

let ft_stage synthesize prog =
  baseline (fun () ->
      let (r : Emit.result) = synthesize prog in
      r.circuit, r.rotations, None)

let sc_stage synthesize coupling prog =
  baseline (fun () ->
      let (r : Emit.result) = synthesize prog in
      let routed = Router.route ~coupling r.circuit in
      ( routed.Router.circuit,
        r.rotations,
        Some (routed.Router.initial_layout, routed.Router.final_layout) ))

let tk_ft ?strategy prog = ft_stage (Tk_like.compile ?strategy) prog
let tk_sc ?strategy coupling prog = sc_stage (Tk_like.compile ?strategy) coupling prog
let naive_ft prog = ft_stage Naive.synthesize prog
let naive_sc coupling prog = sc_stage Naive.synthesize coupling prog

let qaoa_sc coupling prog =
  baseline (fun () ->
      let r = Qaoa_compiler.compile ~coupling prog in
      ( r.Qaoa_compiler.circuit,
        r.Qaoa_compiler.rotations,
        Some (r.Qaoa_compiler.initial_layout, r.Qaoa_compiler.final_layout) ))

let verified run =
  let layouts =
    match run.initial_layout, run.final_layout with Some i, Some f -> Some (i, f) | _ -> None
  in
  Ph_verify.Pauli_frame.verify ?layouts ~trace:run.rotations run.circuit
