open Ph_pauli_ir

(* The argmax / padding scans are window-limited so that scheduling stays
   near-linear on the paper's largest inputs (tens of thousands of
   blocks); within the active-length-sorted order, far-away blocks are
   poor candidates anyway.  The default is shared with [Max_overlap] and
   surfaced as `phc compile --window N` via [Config].

   The loops run over [Arena] — a flat structure-of-arrays holding the
   per-block features (head/tail bitplanes, active words, depth
   estimates) with preallocated round scratch — so a round allocates
   nothing beyond its output layer, and the leader scan can fan out
   over worker domains ([jobs]) while staying bit-identical to the
   sequential scan. *)
let default_window = 512

type stats = { layers : int; padded : int }

let schedule_stats ?rank ?(padding = true) ?(window = default_window)
    ?(jobs = 1) prog =
  let a = Arena.build ?rank ~order:Arena.Active_desc prog in
  let layers = ref [] in
  let n_layers = ref 0 in
  let n_padded = ref 0 in
  while Arena.n_alive a > 0 do
    (* Leader: best overlap with the previous layer's tail strings. *)
    let leader_idx =
      if Arena.n_prev a = 0 then Arena.first_alive a
      else begin
        Ph_perf.Counter.bump Ph_perf.Counter.sched_leader_scans;
        let visited = Arena.collect a ~window in
        let n_prev = Arena.n_prev a in
        let pos =
          Arena.leader_argmax a ~jobs ~visited
            ~score_work:(visited * n_prev * Arena.words a)
        in
        Ph_perf.Counter.add Ph_perf.Counter.sched_candidates visited;
        Arena.charge_overlap_kernel a ~scores:visited ~per_score:n_prev;
        Arena.candidate a pos
      end
    in
    Arena.take a leader_idx;
    Arena.reset_chosen a;
    Arena.push_chosen a leader_idx;
    if padding && Arena.n_alive a > 0 then begin
      (* Padding: disjoint blocks that fit under the leader's depth
         budget join the layer ([Arena.pad] holds the fit test). *)
      let visited = Arena.collect a ~window in
      n_padded := !n_padded + Arena.pad a ~leader:leader_idx ~visited;
      Ph_perf.Counter.add Ph_perf.Counter.sched_padding_probes visited
    end;
    Arena.commit_prev a;
    incr n_layers;
    layers := Layer.make (Arena.chosen_blocks a) :: !layers
  done;
  List.rev !layers, { layers = !n_layers; padded = !n_padded }

let schedule ?rank ?padding ?window ?jobs prog =
  fst (schedule_stats ?rank ?padding ?window ?jobs prog)

let run ?rank ?padding ?window ?jobs prog =
  Layer.to_program ~n_qubits:(Program.n_qubits prog)
    (schedule ?rank ?padding ?window ?jobs prog)
