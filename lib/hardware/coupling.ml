type t = {
  n : int;
  adj : int list array;
  arc_id : int array; (* n*n: id of the arc u->v, -1 when not adjacent *)
  arcs : int; (* directed arcs, 2 * edges *)
  mutable dist : int array option; (* lazy all-pairs BFS *)
}

let n_qubits g = g.n

let create n edge_list =
  if n <= 0 then invalid_arg "Coupling.create: n must be positive";
  let adj = Array.make n [] in
  let arc_id = Array.make (n * n) (-1) in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg (Printf.sprintf "Coupling.create: edge (%d,%d)" a b);
      if a = b then invalid_arg "Coupling.create: self-loop";
      if arc_id.((a * n) + b) < 0 then begin
        arc_id.((a * n) + b) <- 0;
        arc_id.((b * n) + a) <- 0;
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b)
      end)
    edge_list;
  Array.iteri (fun i l -> adj.(i) <- List.sort Stdlib.compare l) adj;
  let arcs = ref 0 in
  Array.iteri
    (fun u l ->
      List.iter
        (fun v ->
          arc_id.((u * n) + v) <- !arcs;
          incr arcs)
        l)
    adj;
  { n; adj; arc_id; arcs = !arcs; dist = None }

let edges g =
  let acc = ref [] in
  for a = g.n - 1 downto 0 do
    List.iter (fun b -> if a < b then acc := (a, b) :: !acc) g.adj.(a)
  done;
  !acc

let n_edges g = List.length (edges g)

let adjacent g a b = g.arc_id.((a * g.n) + b) >= 0
let n_arcs g = g.arcs
let arc g a b = g.arc_id.((a * g.n) + b)
let neighbors g v = g.adj.(v)
let degree g v = List.length g.adj.(v)

let all_pairs g =
  match g.dist with
  | Some d -> d
  | None ->
    let n = g.n in
    let d = Array.make (n * n) max_int in
    let queue = Queue.create () in
    for src = 0 to n - 1 do
      d.((src * n) + src) <- 0;
      Queue.clear queue;
      Queue.add src queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        let du = d.((src * n) + u) in
        List.iter
          (fun v ->
            if d.((src * n) + v) = max_int then begin
              d.((src * n) + v) <- du + 1;
              Queue.add v queue
            end)
          g.adj.(u)
      done
    done;
    g.dist <- Some d;
    d

let distance g a b = (all_pairs g).((a * g.n) + b)

let shortest_path g a b =
  if distance g a b = max_int then raise Not_found;
  (* Walk from b back to a following decreasing distance-from-a. *)
  let d = all_pairs g in
  let rec back v acc =
    if v = a then a :: acc
    else
      let dv = d.((a * g.n) + v) in
      let u = List.find (fun u -> d.((a * g.n) + u) = dv - 1) g.adj.(v) in
      back u (v :: acc)
  in
  back b []

(* Dijkstra over a binary min-heap of (dist, node) entries, ordered
   lexicographically so that every pop picks the lowest-index node among
   equal distances.  Deletion is lazy: a relaxation pushes a fresh entry
   and a popped entry whose node is already settled is skipped.  Each
   arc is relaxed at most once (when its tail settles), so [1 + arcs]
   heap slots always suffice. *)
let shortest_path_tree g ~cost ~targets src =
  let n = g.n in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let settled = Array.make n false in
  let is_target = Array.make n false in
  let pending = ref 0 in
  List.iter
    (fun v ->
      if not is_target.(v) then begin
        is_target.(v) <- true;
        incr pending
      end)
    targets;
  let hd = Array.make (1 + g.arcs) 0. and hn = Array.make (1 + g.arcs) 0 in
  let size = ref 0 in
  let less i j = hd.(i) < hd.(j) || (hd.(i) = hd.(j) && hn.(i) < hn.(j)) in
  let swap i j =
    let d = hd.(i) and v = hn.(i) in
    hd.(i) <- hd.(j);
    hn.(i) <- hn.(j);
    hd.(j) <- d;
    hn.(j) <- v
  in
  let push d v =
    let i = ref !size in
    hd.(!i) <- d;
    hn.(!i) <- v;
    incr size;
    while !i > 0 && less !i ((!i - 1) / 2) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let v = hn.(0) in
    decr size;
    hd.(0) <- hd.(!size);
    hn.(0) <- hn.(!size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let m = if l < !size && less l !i then l else !i in
      let m = if l + 1 < !size && less (l + 1) m then l + 1 else m in
      if m = !i then continue := false
      else begin
        swap !i m;
        i := m
      end
    done;
    v
  in
  dist.(src) <- 0.;
  push 0. src;
  while !pending > 0 && !size > 0 do
    let u = pop () in
    if not settled.(u) then begin
      settled.(u) <- true;
      if is_target.(u) then decr pending;
      List.iter
        (fun v ->
          let alt = dist.(u) +. cost u v in
          if alt < dist.(v) then begin
            dist.(v) <- alt;
            prev.(v) <- u;
            push alt v
          end)
        g.adj.(u)
    end
  done;
  dist, prev

let shortest_path_weighted g ~cost a b =
  let dist, prev = shortest_path_tree g ~cost ~targets:[ b ] a in
  if dist.(b) = infinity then raise Not_found;
  let rec back v acc = if v = a then a :: acc else back prev.(v) (v :: acc) in
  back b []

let is_connected g =
  let seen = Array.make g.n false in
  let queue = Queue.create () in
  seen.(0) <- true;
  Queue.add 0 queue;
  let count = ref 1 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          incr count;
          Queue.add v queue
        end)
      g.adj.(u)
  done;
  !count = g.n

let subset_components g nodes =
  let in_set = Array.make g.n false in
  List.iter (fun v -> in_set.(v) <- true) nodes;
  let seen = Array.make g.n false in
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
        g.adj.(u)
    done;
    List.sort Stdlib.compare !acc
  in
  List.filter_map (fun v -> if seen.(v) then None else Some (component v)) nodes

let component_of g nodes v =
  match List.find_opt (List.mem v) (subset_components g nodes) with
  | Some c -> c
  | None -> invalid_arg "Coupling.component_of: node not in subset"

let densest_subgraph g k =
  if k < 0 then invalid_arg "Coupling.densest_subgraph: k < 0";
  if k > g.n then invalid_arg "Coupling.densest_subgraph: k > n";
  if k = 0 then []
  else begin
    let in_set = Array.make g.n false in
    let seed = ref 0 in
    for v = 1 to g.n - 1 do
      if degree g v > degree g !seed then seed := v
    done;
    in_set.(!seed) <- true;
    let chosen = ref [ !seed ] in
    for _ = 2 to k do
      let best = ref (-1) and best_key = ref (-1, -1) in
      for v = 0 to g.n - 1 do
        if not in_set.(v) then begin
          let inside = List.length (List.filter (fun u -> in_set.(u)) g.adj.(v)) in
          if inside > 0 && (inside, degree g v) > !best_key then begin
            best_key := inside, degree g v;
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

let bfs_tree g ~root ~nodes =
  let parents = Array.make g.n (-1) in
  let in_set = Array.make g.n false in
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
      g.adj.(u)
  done;
  parents

let pp fmt g =
  Format.fprintf fmt "graph(%d qubits): " g.n;
  List.iter (fun (a, b) -> Format.fprintf fmt "%d-%d " a b) (edges g)
