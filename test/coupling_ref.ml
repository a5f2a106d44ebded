(* Reference implementations for the hardware and synthesis tests, kept
   verbatim as oracles for the routines that replaced them:

   - the per-pair Dijkstra [Coupling.shortest_path_weighted] used before
     it became a wrapper over [Coupling.shortest_path_tree] — a linear
     argmin over unvisited nodes (lowest index on ties) that stops when
     the destination is extracted;
   - the list-based subset routines [subset_components], [component_of]
     and [bfs_tree] that [Coupling]'s scratch routines ([components],
     [connected], [bfs_tree]) replaced. *)

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
