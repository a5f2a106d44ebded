(* Reference implementations for the gate-level tests: the list-based
   [Gate.commutes]/[Gate.cancels] and the global live-slot walk of
   [Peephole.cancel_once] with the round-by-round fixpoint driver, kept
   verbatim as oracles for the allocation-free predicates, the
   per-qubit walk on packed slots and the incremental fixpoint that
   replaced them. *)

open Ph_gatelevel

module Gate = struct
  include Gate

  let diagonal = function
    | Z _ | S _ | Sdg _ | Rz _ -> true
    | H _ | X _ | Y _ | Rx _ | Ry _ | Cnot _ | Swap _ | Rxx _ -> false

  let x_axis = function
    | X _ | Rx _ | Rxx _ -> true
    | H _ | Y _ | Z _ | S _ | Sdg _ | Rz _ | Ry _ | Cnot _ | Swap _ -> false

  let cancels a b =
    match a, b with
    | Swap (a1, b1), Swap (a2, b2) -> (a1 = a2 && b1 = b2) || (a1 = b2 && b1 = a2)
    | Rxx (t, a1, b1), Rxx (u, a2, b2) ->
      t = -.u && ((a1 = a2 && b1 = b2) || (a1 = b2 && b1 = a2))
    | _ -> equal (dagger a) b

  let disjoint a b =
    List.for_all (fun q -> not (List.mem q (qubits b))) (qubits a)

  let commutes a b =
    disjoint a b
    ||
    match a, b with
    | Cnot (c1, t1), Cnot (c2, t2) -> t1 <> c2 && c1 <> t2
    | Rxx (_, a1, b1), Rxx (_, a2, b2) ->
      (* both act as X on every shared qubit *)
      ignore (a1, b1, a2, b2);
      true
    | (Rxx (_, a, b) as r), Cnot (c, t) | Cnot (c, t), (Rxx (_, a, b) as r) ->
      ignore r;
      (* commutes when the only shared qubit is the CNOT target (X-side) *)
      c <> a && c <> b && (t = a || t = b)
    | (Rxx (_, a, b) as r), g | g, (Rxx (_, a, b) as r) ->
      ignore r;
      x_axis g && (qubits g = [ a ] || qubits g = [ b ])
    | g, Cnot (c, t) | Cnot (c, t), g ->
      let qs = qubits g in
      (diagonal g && qs = [ c ]) || (x_axis g && qs = [ t ])
    | g, h -> (diagonal g && diagonal h) || (x_axis g && x_axis h && qubits g = qubits h)
end

let zero_rotation = function
  | Gate.Rz (t, _) | Gate.Rx (t, _) | Gate.Ry (t, _) | Gate.Rxx (t, _, _) ->
    abs_float t < 1e-12
  | _ -> false

let merge a b =
  match a, b with
  | Gate.Rz (t, p), Gate.Rz (u, q) when p = q -> Some (Gate.Rz (t +. u, p))
  | Gate.Rx (t, p), Gate.Rx (u, q) when p = q -> Some (Gate.Rx (t +. u, p))
  | Gate.Ry (t, p), Gate.Ry (u, q) when p = q -> Some (Gate.Ry (t +. u, p))
  | Gate.Rxx (t, a1, b1), Gate.Rxx (u, a2, b2)
    when (a1 = a2 && b1 = b2) || (a1 = b2 && b1 = a2) ->
    Some (Gate.Rxx (t +. u, a1, b1))
  | _ -> None

(* One pass.  [slots] holds live gates; for the incoming gate [g] we walk
   backwards over live slots, skipping gates that commute with [g], until
   we hit a cancellation/merge partner or a blocking gate.

   Live slots are chained through [prev] (index of the nearest earlier
   live slot, or -1) so every step of the walk lands on an occupied slot:
   without the chain, cancel-heavy circuits leave long runs of emptied
   [None] slots that each walk re-scans — and since emptied slots never
   counted against [window], the pass degenerated to O(m²).  The window
   semantics is unchanged: only visited live slots count as steps. *)
let cancel_once ?(window = 400) circuit =
  Ph_perf.Counter.bump Ph_perf.Counter.peephole_scan_rounds;
  let gs = Circuit.gates circuit in
  let m = Array.length gs in
  let slots = Array.make m None in
  let prev = Array.make m (-1) in
  let last = ref (-1) in
  let removed = ref 0 in
  let probes = ref 0 in
  (* Drop live slot [j]; [succ] is the live slot the walk visited just
     after [j] (-1 when [j] is the chain head). *)
  let unlink ~succ j =
    if succ < 0 then last := prev.(j) else prev.(succ) <- prev.(j)
  in
  let place i g =
    slots.(i) <- Some g;
    prev.(i) <- !last;
    last := i
  in
  for i = 0 to m - 1 do
    let g = gs.(i) in
    if zero_rotation g then incr removed
    else begin
      let placed = ref false in
      let steps = ref 0 in
      let j = ref !last in
      let succ = ref (-1) in
      while (not !placed) && !j >= 0 && !steps < window do
        let jj = !j in
        (match slots.(jj) with
        | None -> assert false
        | Some h ->
          incr steps;
          if Gate.cancels h g then begin
            slots.(jj) <- None;
            unlink ~succ:!succ jj;
            removed := !removed + 2;
            placed := true
          end
          else
            match merge h g with
            | Some merged ->
              if zero_rotation merged then begin
                slots.(jj) <- None;
                unlink ~succ:!succ jj;
                removed := !removed + 2
              end
              else begin
                slots.(jj) <- Some merged;
                incr removed
              end;
              placed := true
            | None ->
              if not (Gate.commutes h g) then begin
                place i g;
                placed := true
              end);
        succ := jj;
        j := prev.(jj)
      done;
      probes := !probes + !steps;
      if not !placed then place i g
    end
  done;
  Ph_perf.Counter.add Ph_perf.Counter.peephole_probes !probes;
  let b = Circuit.Builder.create (Circuit.n_qubits circuit) in
  Array.iter (function Some g -> Circuit.Builder.add b g | None -> ()) slots;
  Circuit.Builder.to_circuit b, !removed

(* The fixpoint driver: [cancel_once] to a fixpoint bounded by
   [max_rounds], rebuilding the circuit every round; returns the
   circuit, the gates removed and the rounds run (the final empty one
   included). *)
let optimize_stats ?(window = 400) ?(max_rounds = 20) circuit =
  let rec go c total round =
    if round >= max_rounds then c, total, round
    else
      let c', removed = cancel_once ~window c in
      if removed = 0 then c', total, round + 1
      else go c' (total + removed) (round + 1)
  in
  go circuit 0 0
