(* The traced run's per-layer replay.  For one job it runs the real
   compile path (parse, [Compiler.compile], Pauli-frame verification,
   serialization) under spans, then re-runs [Compiler.compile]'s stage
   order through each layer's public entry point, one span per layer
   call.  The replayed circuit must have the same
   cnot/single/total/depth as [Compiler.compile]'s output, so the
   per-layer numbers always describe the pipeline that users run. *)

open Paulihedral
open Ph_pauli_ir
open Ph_gatelevel
open Ph_schedule
open Ph_synthesis

type job = {
  equivalent : bool;
  gates_in : int;  (** gates entering the peephole *)
  removed : int;
  rounds : int;
  swaps : int;
  groups : int;
  fused : int;
  compile_s : float;  (** the [Compiler.compile] span *)
  stages_s : float;  (** the replayed stage spans that compile also runs *)
}

let stage = Span.record

let replay_stages (config : Config.t) program =
  let n_qubits = Program.n_qubits program in
  let opt =
    match config.Config.schedule with
    | Config.Phoenix_like -> Some (stage "opt" (fun () -> Ph_opt.Pass.run program))
    | _ -> None
  in
  let sched_program = match opt with Some o -> o.Ph_opt.Pass.program | None -> program in
  let window = config.Config.window and jobs = config.Config.sched_jobs in
  let layers =
    stage "schedule" (fun () ->
        match config.Config.schedule with
        | Config.Depth_oriented ->
          fst (Depth_oriented.schedule_stats ~window ~jobs sched_program)
        | Config.Gco -> Gco.schedule sched_program
        | Config.Max_overlap -> Max_overlap.schedule ~window ~jobs sched_program
        | Config.Program_order | Config.Phoenix_like ->
          List.map Layer.of_block (Program.blocks sched_program))
  in
  let circuit, swaps, routed =
    stage "synthesis" (fun () ->
        match config.Config.backend, opt with
        | Config.Ft, Some o ->
          (Ph_opt.Phoenix_backend.synthesize_ft ~n_qubits o).Emit.circuit, 0, false
        | Config.Ft, None -> (Ft_backend.synthesize ~n_qubits layers).Emit.circuit, 0, false
        | Config.Sc { coupling; _ }, Some o ->
          let r = Ph_opt.Phoenix_backend.synthesize_sc ~coupling ~n_qubits o in
          r.Sc_backend.circuit, r.Sc_backend.swaps, true
        | Config.Sc { coupling; noise }, None ->
          let r = Sc_backend.synthesize ?noise ~coupling ~n_qubits layers in
          r.Sc_backend.circuit, r.Sc_backend.swaps, true
        | Config.Ion_trap, _ -> invalid_arg "Replay: the ion-trap backend is not benchmarked")
  in
  let circuit =
    if routed then stage "gatelevel.swap_decompose" (fun () -> Circuit.decompose_swaps circuit)
    else circuit
  in
  let gates_in = Circuit.length circuit in
  let circuit, pstats =
    if config.Config.peephole then
      stage "gatelevel.peephole" (fun () -> Peephole.optimize_stats circuit)
    else circuit, { Peephole.removed = 0; rounds = 0 }
  in
  let metrics = Report.of_circuit circuit in
  if config.Config.analyze then
    stage "analysis" (fun () ->
        ignore
          (Ph_analysis.Gap.summarize ~cnot:metrics.Report.cnot
             ~single:metrics.Report.single ~total:metrics.Report.total
             ~depth:metrics.Report.depth
             (Ph_analysis.Bounds.of_program program)));
  let groups, fused =
    match opt with
    | Some o -> o.Ph_opt.Pass.stats.Ph_opt.Pass.groups, o.Ph_opt.Pass.stats.Ph_opt.Pass.fused_blocks
    | None -> 0, 0
  in
  metrics, gates_in, pstats, swaps, groups, fused

let stage_names =
  [ "opt"; "schedule"; "synthesis"; "gatelevel.swap_decompose"; "gatelevel.peephole"; "analysis" ]

(* Run one job's compile path under spans, then replay its stages, all
   under a ["bench.job"] root span in group [group]. *)
let job ~group (item : Inputs.item) =
  Span.set_group group;
  Span.record "bench.job" (fun () ->
      let mark = Span.mark () in
      let r = Compile_path.run ~traced:true item in
      let metrics, gates_in, pstats, swaps, groups, fused =
        replay_stages (Inputs.config_of item) r.Compile_path.program
      in
      let spans = Span.since mark in
      let time names =
        List.fold_left
          (fun acc s -> if List.mem s.Span.name names then acc +. Span.duration s else acc)
          0. spans
      in
      let m = r.Compile_path.out.Compiler.metrics in
      {
        equivalent =
          r.Compile_path.verified
          && Report.(
               m.cnot = metrics.cnot && m.single = metrics.single
               && m.total = metrics.total && m.depth = metrics.depth);
        gates_in;
        removed = pstats.Peephole.removed;
        rounds = pstats.Peephole.rounds;
        swaps;
        groups;
        fused;
        compile_s = time [ "core.compile" ];
        stages_s = time stage_names;
      })
