open Ph_pauli_ir

let schedule ?rank ?(window = Depth_oriented.default_window) ?(jobs = 1) prog =
  (* Start from the lexicographic order (a good tour already), then chain
     greedily: the window scans the not-yet-scheduled blocks in that
     order, so candidates stay similar to the current tail.  The arena
     keeps every candidate's head string as a bitplane row, so a visit
     is a word scan instead of a [Block.representative] pointer chase,
     and the whole step is the shared fused leader scan. *)
  let a = Arena.build ?rank ~order:Arena.Lex prog in
  let m = Arena.size a in
  let out = ref [] in
  for _ = 1 to m do
    let visited = Arena.collect a ~window in
    let have_tail = Arena.n_prev a > 0 in
    let pos =
      if not have_tail then 0
      else
        Arena.leader_argmax a ~jobs ~visited
          ~score_work:(visited * Arena.words a)
    in
    Ph_perf.Counter.bump Ph_perf.Counter.sched_leader_scans;
    Ph_perf.Counter.add Ph_perf.Counter.sched_candidates visited;
    if have_tail then Arena.charge_overlap_kernel a ~scores:visited ~per_score:1;
    let chosen = Arena.candidate a pos in
    Arena.take a chosen;
    Arena.set_prev1 a chosen;
    out := Arena.block a chosen :: !out
  done;
  List.rev_map Layer.of_block !out

let run ?rank ?window ?jobs prog =
  Layer.to_program ~n_qubits:(Program.n_qubits prog)
    (schedule ?rank ?window ?jobs prog)
