type t = {
  n : int;
  adj : int list array;
  arc_id : int array; (* n*n: id of the arc u->v, -1 when not adjacent *)
  arcs : int; (* directed arcs, 2 * edges *)
  first : int array; (* n + 1: the arcs out of [u] are [first.(u) .. first.(u+1) - 1] *)
  head : int array; (* arcs: head node of each arc *)
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
  let first = Array.make (n + 1) 0 in
  Array.iteri
    (fun u l ->
      first.(u) <- !arcs;
      List.iter
        (fun v ->
          arc_id.((u * n) + v) <- !arcs;
          incr arcs)
        l)
    adj;
  first.(n) <- !arcs;
  let head = Array.make !arcs 0 in
  Array.iteri (fun u l -> List.iteri (fun i v -> head.(first.(u) + i) <- v) l) adj;
  { n; adj; arc_id; arcs = !arcs; first; head; dist = None }

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

(* Per-call work space of the subset routines below.  Node sets are
   stamp-marked: [member.(v) = clock] puts [v] in the current set and
   [seen.(v) = clock] marks it visited, so starting a query is one
   increment of [clock] instead of clearing arrays.  The last BFS tree
   keeps its own stamp, [tree_at], so later queries do not erase it. *)
type scratch = {
  nodes : int; (* n of the graph it was made for *)
  mutable clock : int;
  member : int array;
  seen : int array;
  label : int array; (* component of each seen node *)
  size : int array; (* node count of each component *)
  queue : int array;
  on_tree : int array;
  mutable tree_at : int;
  parent : int array;
  depth : int array;
  dist : float array;
  prev : int array;
  settled : int array;
  target : int array;
  hd : float array; (* heap: (dist, node) entries *)
  hn : int array;
  mutable heap : int; (* heap size *)
}

let scratch g =
  let n = g.n in
  {
    nodes = n;
    clock = 0;
    member = Array.make n 0;
    seen = Array.make n 0;
    label = Array.make n 0;
    size = Array.make n 0;
    queue = Array.make n 0;
    on_tree = Array.make n 0;
    tree_at = 0;
    parent = Array.make n 0;
    depth = Array.make n 0;
    dist = Array.make n infinity;
    prev = Array.make n (-1);
    settled = Array.make n 0;
    target = Array.make n 0;
    hd = Array.make (1 + g.arcs) 0.;
    hn = Array.make (1 + g.arcs) 0;
    heap = 0;
  }

let tick g sc =
  if sc.nodes <> g.n then invalid_arg "Coupling: scratch made for another graph";
  sc.clock <- sc.clock + 1;
  sc.clock

(* Start a query over the first [len] entries of [nodes]. *)
let mark g sc nodes len =
  let t = tick g sc in
  for i = 0 to len - 1 do
    sc.member.(nodes.(i)) <- t
  done;
  t

(* BFS from [src] through the nodes marked [t], labelling every node it
   reaches [c]; returns how many it reached. *)
let flood g sc t src c =
  sc.seen.(src) <- t;
  sc.label.(src) <- c;
  sc.queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = sc.queue.(!head) in
    incr head;
    for a = g.first.(u) to g.first.(u + 1) - 1 do
      let v = g.head.(a) in
      if sc.member.(v) = t && sc.seen.(v) <> t then begin
        sc.seen.(v) <- t;
        sc.label.(v) <- c;
        sc.queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail

let connected g sc nodes len = len = 0 || flood g sc (mark g sc nodes len) nodes.(0) 0 = len

let components g sc nodes len =
  let t = mark g sc nodes len in
  let c = ref 0 in
  for i = 0 to len - 1 do
    let v = nodes.(i) in
    if sc.seen.(v) <> t then begin
      sc.size.(!c) <- flood g sc t v !c;
      incr c
    end
  done;
  !c

let component sc v = sc.label.(v)
let component_size sc c = sc.size.(c)

let bfs_tree g sc ~root nodes len =
  let t = mark g sc nodes len in
  if sc.member.(root) <> t then invalid_arg "Coupling.bfs_tree: root outside nodes";
  sc.tree_at <- t;
  sc.on_tree.(root) <- t;
  sc.parent.(root) <- root;
  sc.depth.(root) <- 0;
  sc.queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = sc.queue.(!head) in
    incr head;
    for a = g.first.(u) to g.first.(u + 1) - 1 do
      let v = g.head.(a) in
      if sc.member.(v) = t && sc.on_tree.(v) <> t then begin
        sc.on_tree.(v) <- t;
        sc.parent.(v) <- u;
        sc.depth.(v) <- sc.depth.(u) + 1;
        sc.queue.(!tail) <- v;
        incr tail
      end
    done
  done

let parent sc v = if sc.on_tree.(v) = sc.tree_at then sc.parent.(v) else -1
let depth sc v = if sc.on_tree.(v) = sc.tree_at then sc.depth.(v) else -1

(* Dijkstra over a binary min-heap of (dist, node) entries, ordered
   lexicographically so that every pop picks the lowest-index node among
   equal distances.  Deletion is lazy: a relaxation pushes a fresh entry
   and a popped entry whose node is already settled is skipped.  Each
   arc is relaxed at most once (when its tail settles), so [1 + arcs]
   heap slots always suffice. *)
let heap_less sc i j =
  sc.hd.(i) < sc.hd.(j) || (sc.hd.(i) = sc.hd.(j) && sc.hn.(i) < sc.hn.(j))

let heap_swap sc i j =
  let d = sc.hd.(i) and v = sc.hn.(i) in
  sc.hd.(i) <- sc.hd.(j);
  sc.hn.(i) <- sc.hn.(j);
  sc.hd.(j) <- d;
  sc.hn.(j) <- v

(* Push [(dist.(v), v)]; taking no float argument keeps the distance
   unboxed. *)
let heap_push sc v =
  let i = ref sc.heap in
  sc.hd.(!i) <- sc.dist.(v);
  sc.hn.(!i) <- v;
  sc.heap <- sc.heap + 1;
  while !i > 0 && heap_less sc !i ((!i - 1) / 2) do
    heap_swap sc !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let heap_pop sc =
  let v = sc.hn.(0) in
  sc.heap <- sc.heap - 1;
  sc.hd.(0) <- sc.hd.(sc.heap);
  sc.hn.(0) <- sc.hn.(sc.heap);
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let m = if l < sc.heap && heap_less sc l !i then l else !i in
    let m = if l + 1 < sc.heap && heap_less sc (l + 1) m then l + 1 else m in
    if m = !i then continue := false
    else begin
      heap_swap sc !i m;
      i := m
    end
  done;
  v

let shortest_path_tree g sc ~cost ~targets ~n_targets src =
  let t = tick g sc in
  Array.fill sc.dist 0 g.n infinity;
  Array.fill sc.prev 0 g.n (-1);
  let pending = ref 0 in
  for i = 0 to n_targets - 1 do
    let v = targets.(i) in
    if sc.target.(v) <> t then begin
      sc.target.(v) <- t;
      incr pending
    end
  done;
  sc.heap <- 0;
  sc.dist.(src) <- 0.;
  heap_push sc src;
  while !pending > 0 && sc.heap > 0 do
    let u = heap_pop sc in
    if sc.settled.(u) <> t then begin
      sc.settled.(u) <- t;
      if sc.target.(u) = t then decr pending;
      for a = g.first.(u) to g.first.(u + 1) - 1 do
        let v = g.head.(a) in
        let alt = sc.dist.(u) +. cost.(a) in
        if alt < sc.dist.(v) then begin
          sc.dist.(v) <- alt;
          sc.prev.(v) <- u;
          heap_push sc v
        end
      done
    end
  done

let dist sc v = sc.dist.(v)
let prev sc v = sc.prev.(v)

let arc_costs g f =
  let cost = Array.make g.arcs 0. in
  for u = 0 to g.n - 1 do
    for a = g.first.(u) to g.first.(u + 1) - 1 do
      cost.(a) <- f u g.head.(a)
    done
  done;
  cost

let shortest_path_weighted g ~cost a b =
  let sc = scratch g in
  shortest_path_tree g sc ~cost:(arc_costs g cost) ~targets:[| b |] ~n_targets:1 a;
  if sc.dist.(b) = infinity then raise Not_found;
  let rec back v acc = if v = a then a :: acc else back sc.prev.(v) (v :: acc) in
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

(* [inside.(v)] counts [v]'s neighbours already in the set, updated
   over the CSR arcs of each added node, so a step compares plain ints
   (most inside edges, then highest degree, first maximum in node
   order). *)
let densest_subgraph g k =
  if k < 0 then invalid_arg "Coupling.densest_subgraph: k < 0";
  if k > g.n then invalid_arg "Coupling.densest_subgraph: k > n";
  if k = 0 then []
  else begin
    let in_set = Array.make g.n false and inside = Array.make g.n 0 in
    let deg v = g.first.(v + 1) - g.first.(v) in
    let add v =
      in_set.(v) <- true;
      for a = g.first.(v) to g.first.(v + 1) - 1 do
        let u = g.head.(a) in
        inside.(u) <- inside.(u) + 1
      done
    in
    let seed = ref 0 in
    for v = 1 to g.n - 1 do
      if deg v > deg !seed then seed := v
    done;
    add !seed;
    let chosen = ref [ !seed ] in
    for _ = 2 to k do
      let best = ref (-1) and best_in = ref 0 and best_deg = ref (-1) in
      for v = 0 to g.n - 1 do
        let i = inside.(v) in
        if i > 0 && (not in_set.(v))
           && (i > !best_in || (i = !best_in && deg v > !best_deg))
        then begin
          best_in := i;
          best_deg := deg v;
          best := v
        end
      done;
      if !best = -1 then invalid_arg "Coupling.densest_subgraph: graph too disconnected";
      add !best;
      chosen := !best :: !chosen
    done;
    List.rev !chosen
  end

let pp fmt g =
  Format.fprintf fmt "graph(%d qubits): " g.n;
  List.iter (fun (a, b) -> Format.fprintf fmt "%d-%d " a b) (edges g)
