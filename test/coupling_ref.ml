(* Reference implementations for the hardware and synthesis tests, kept
   verbatim as oracles for the routines that replaced them:

   - the per-pair Dijkstra [Coupling.shortest_path_weighted] used before
     it became a wrapper over [Coupling.shortest_path_tree] — a linear
     argmin over unvisited nodes (lowest index on ties) that stops when
     the destination is extracted;
   - the list-based subset routines [subset_components], [component_of]
     and [bfs_tree] that [Coupling]'s scratch routines ([components],
     [connected], [bfs_tree]) replaced;
   - the rescan-every-step [densest_subgraph] (a [List.filter] over each
     candidate's neighbours and a tuple compare per candidate per step)
     that the incremental inside-neighbour count replaced. *)

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

let subset_components g nodes =
  let n = Coupling.n_qubits g in
  let in_set = Array.make n false in
  List.iter (fun v -> in_set.(v) <- true) nodes;
  let seen = Array.make n false in
  let component v =
    let queue = Queue.create () in
    let acc = ref [] in
    seen.(v) <- true;
    Queue.add v queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      acc := u :: !acc;
      List.iter
        (fun w ->
          if in_set.(w) && not seen.(w) then begin
            seen.(w) <- true;
            Queue.add w queue
          end)
        (Coupling.neighbors g u)
    done;
    List.sort Stdlib.compare !acc
  in
  List.filter_map (fun v -> if seen.(v) then None else Some (component v)) nodes

let component_of g nodes v =
  match List.find_opt (List.mem v) (subset_components g nodes) with
  | Some c -> c
  | None -> invalid_arg "Coupling.component_of: node not in subset"

let bfs_tree g ~root ~nodes =
  let n = Coupling.n_qubits g in
  let parents = Array.make n (-1) in
  let in_set = Array.make n false in
  List.iter (fun v -> in_set.(v) <- true) nodes;
  if not in_set.(root) then invalid_arg "Coupling.bfs_tree: root outside nodes";
  parents.(root) <- root;
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if in_set.(v) && parents.(v) = -1 then begin
          parents.(v) <- u;
          Queue.add v queue
        end)
      (Coupling.neighbors g u)
  done;
  parents

let densest_subgraph g k =
  let n = Coupling.n_qubits g in
  if k < 0 then invalid_arg "Coupling.densest_subgraph: k < 0";
  if k > n then invalid_arg "Coupling.densest_subgraph: k > n";
  if k = 0 then []
  else begin
    let in_set = Array.make n false in
    let seed = ref 0 in
    for v = 1 to n - 1 do
      if Coupling.degree g v > Coupling.degree g !seed then seed := v
    done;
    in_set.(!seed) <- true;
    let chosen = ref [ !seed ] in
    for _ = 2 to k do
      let best = ref (-1) and best_key = ref (-1, -1) in
      for v = 0 to n - 1 do
        if not in_set.(v) then begin
          let inside =
            List.length (List.filter (fun u -> in_set.(u)) (Coupling.neighbors g v))
          in
          if inside > 0 && (inside, Coupling.degree g v) > !best_key then begin
            best_key := inside, Coupling.degree g v;
            best := v
          end
        end
      done;
      if !best = -1 then invalid_arg "Coupling.densest_subgraph: graph too disconnected";
      in_set.(!best) <- true;
      chosen := !best :: !chosen
    done;
    List.rev !chosen
  end
