(* Reference implementation for the hardware and synthesis tests: the
   per-pair Dijkstra [Coupling.shortest_path_weighted] used before it
   became a wrapper over [Coupling.shortest_path_tree] — a linear argmin
   over unvisited nodes (lowest index on ties) that stops when the
   destination is extracted.  Kept verbatim as the oracle for the
   heap-based shortest-path tree. *)

open Ph_hardware

let shortest_path_weighted g ~cost a b =
  let n = Coupling.n_qubits g in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let visited = Array.make n false in
  dist.(a) <- 0.;
  let exception Done in
  (try
     for _ = 0 to n - 1 do
       (* Extract the unvisited node with minimal distance. *)
       let u = ref (-1) and best = ref infinity in
       for v = 0 to n - 1 do
         if (not visited.(v)) && dist.(v) < !best then begin
           best := dist.(v);
           u := v
         end
       done;
       if !u = -1 then raise Done;
       if !u = b then raise Done;
       visited.(!u) <- true;
       List.iter
         (fun v ->
           let alt = dist.(!u) +. cost !u v in
           if alt < dist.(v) then begin
             dist.(v) <- alt;
             prev.(v) <- !u
           end)
         (Coupling.neighbors g !u)
     done
   with Done -> ());
  if dist.(b) = infinity then raise Not_found;
  let rec back v acc = if v = a then a :: acc else back prev.(v) (v :: acc) in
  back b []
