open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware
open Ph_schedule

type result = {
  circuit : Circuit.t;
  rotations : (Pauli_string.t * float) list;
  initial_layout : Layout.t;
  final_layout : Layout.t;
  swaps : int;
}

(* Remove exactly the first physically-equal occurrence: blocks may be
   aliased (the same object appearing twice), and a filter on [!=] would
   drop every alias at once, silently losing rotations. *)
let rec remove_first x = function
  | [] -> []
  | y :: rest -> if y == x then rest else y :: remove_first x rest

let swap_cost noise a b =
  let e = noise.Noise_model.cnot_error a b in
  (* -log of SWAP fidelity; monotone in the error rate. *)
  -3. *. log (max 1e-9 (1. -. e))

(* The state of one [synthesize] call: the layout and circuit it grows,
   and every buffer the per-block and per-string work reuses, so that
   routing and emission allocate nothing but the gates they emit.  Node
   buffers have one slot per device qubit; [log] grows on demand.  One
   call owns it (DESIGN §18). *)
type state = {
  coupling : Coupling.t;
  graph : Coupling.scratch;
  noise : Noise_model.t;
  layout : Layout.t;
  builder : Circuit.Builder.t;
  edge_cost : float array; (* [swap_cost] of every arc, by [Coupling.arc] *)
  route_cost : float array; (* [connect_actives]' arc costs this iteration *)
  avoided : bool array; (* positions the current block must not enter *)
  all_nodes : int array; (* 0 .. n-1 *)
  nodes : int array; (* positions of a block's actives or a string's holders *)
  comp : int array; (* the root's component, ascending *)
  path : int array; (* best route found, destination first *)
  holders : int array; (* a string's holder positions ... *)
  ops : Pauli.t array; (* ... and their operators *)
  cone : int array; (* a string's cone positions, deepest first ... *)
  cone_gates : int array; (* ... and their CNOTs' codes *)
  settled : bool array;
  mutable log : int array; (* [connect_actives]' SWAPs, as pairs *)
  mutable n_log : int;
  mutable swap_count : int;
  mutable rotations : (Pauli_string.t * float) list;
}

let create_state coupling noise layout =
  let n = Coupling.n_qubits coupling in
  {
    coupling;
    graph = Coupling.scratch coupling;
    noise;
    layout;
    builder = Circuit.Builder.create n;
    edge_cost = Coupling.arc_costs coupling (swap_cost noise);
    route_cost = Array.make (Coupling.n_arcs coupling) 0.;
    avoided = Array.make n false;
    all_nodes = Array.init n Fun.id;
    nodes = Array.make n 0;
    comp = Array.make n 0;
    path = Array.make n 0;
    holders = Array.make n 0;
    ops = Array.make n Pauli.I;
    cone = Array.make n 0;
    cone_gates = Array.make n 0;
    settled = Array.make n false;
    log = Array.make 64 0;
    n_log = 0;
    swap_count = 0;
    rotations = [];
  }

(* A SWAP that moves the layout with it. *)
let add_swap st u v =
  Circuit.Builder.add_code st.builder (Circuit.code Circuit.Swap u v);
  st.swap_count <- st.swap_count + 1;
  Layout.swap_physical st.layout u v

(* Physical positions of [qs] into [st.nodes] from slot [i] on; returns
   the slot after the last. *)
let rec fill_positions_from st i = function
  | [] -> i
  | q :: rest ->
    st.nodes.(i) <- Layout.phys st.layout q;
    fill_positions_from st (i + 1) rest

let fill_positions st qs = fill_positions_from st 0 qs

(* Ascending insertion sort of [a.(0 .. len-1)]. *)
let sort_prefix a len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref i in
    while !j > 0 && a.(!j - 1) > x do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- x
  done

(* [connect_actives]' cost of every arc [u → v] out of [u]: prohibitive
   at an avoided end, else the SWAP cost.  Entering another active
   qubit's node costs nothing extra: the cheapest moving qubit's route
   never passes one (that qubit would be cheaper to move), so the
   penalty the reference form adds (test/sc_backend_ref.ml) never
   changes a route. *)
let rec fill_route_costs st u = function
  | [] -> ()
  | v :: rest ->
    let a = Coupling.arc st.coupling u v in
    st.route_cost.(a) <-
      (if st.avoided.(v) || st.avoided.(u) then 1e12 else st.edge_cost.(a));
    fill_route_costs st u rest

let log_swap st u v =
  if st.n_log + 2 > Array.length st.log then begin
    let log = Array.make (2 * Array.length st.log) 0 in
    Array.blit st.log 0 log 0 st.n_log;
    st.log <- log
  end;
  st.log.(st.n_log) <- u;
  st.log.(st.n_log + 1) <- v;
  st.n_log <- st.n_log + 2;
  Layout.swap_physical st.layout u v

(* One routing step of [connect_actives]: with the actives' positions in
   [st.nodes.(0 .. k-1)] labelled by component and [rc] the root's,
   move the outside qubit with the cheapest route (over every (qubit,
   component node) pair in (active order, ascending node) order, first
   minimum kept) up to the node adjacent to the component.  One
   shortest-path tree per moving qubit answers all of its pairs: each
   settled node's path and distance equal a per-pair search's
   (Coupling.shortest_path_tree).  False when no route is cheap enough. *)
let route_step st k rc =
  let g = st.coupling and sc = st.graph in
  let n_comp = ref 0 in
  for i = 0 to k - 1 do
    let p = st.nodes.(i) in
    if Coupling.component sc p = rc then begin
      st.comp.(!n_comp) <- p;
      incr n_comp
    end
  done;
  sort_prefix st.comp !n_comp;
  for u = 0 to Coupling.n_qubits g - 1 do
    fill_route_costs st u (Coupling.neighbors g u)
  done;
  let best = ref infinity and len = ref 0 in
  for i = 0 to k - 1 do
    let src = st.nodes.(i) in
    if Coupling.component sc src <> rc then begin
      Coupling.shortest_path_tree g sc ~cost:st.route_cost ~targets:st.comp ~n_targets:!n_comp
        src;
      for j = 0 to !n_comp - 1 do
        let dst = st.comp.(j) in
        let c = Coupling.dist sc dst in
        if c < !best then begin
          best := c;
          st.path.(0) <- dst;
          len := 1;
          while st.path.(!len - 1) <> src do
            st.path.(!len) <- Coupling.prev sc st.path.(!len - 1);
            incr len
          done
        end
      done
    end
  done;
  if !best >= 1e11 then false
  else begin
    (* [path] runs dst .. src; every hop but the last into dst. *)
    for i = !len - 1 downto 2 do
      log_swap st st.path.(i) st.path.(i - 1)
    done;
    true
  end

(* Routing steps until the root's component holds all [k] actives,
   at most [8k + 16] of them. *)
let rec route st ~root_log ~active_log k ~steps =
  ignore (fill_positions st active_log);
  ignore (Coupling.components st.coupling st.graph st.nodes k);
  let rc = Coupling.component st.graph (Layout.phys st.layout root_log) in
  Coupling.component_size st.graph rc = k
  || steps < (8 * k) + 16
     && route_step st k rc
     && route st ~root_log ~active_log k ~steps:(steps + 1)

(* Route the physical positions of [active_log] into one connected
   component containing the (moving) position of [root_log], inserting
   SWAPs.  Positions [p] with [st.avoided.(p)] are never entered.
   Returns false when that is impossible under [avoided]; the layout and
   circuit then stay as they were. *)
let connect_actives st ~root_log ~active_log =
  let k = fill_positions st active_log in
  Coupling.connected st.coupling st.graph st.nodes k
  || begin
    st.n_log <- 0;
    if route st ~root_log ~active_log k ~steps:0 then begin
      for i = 0 to (st.n_log / 2) - 1 do
        Circuit.Builder.add_code st.builder
          (Circuit.code Circuit.Swap st.log.(2 * i) st.log.((2 * i) + 1))
      done;
      st.swap_count <- st.swap_count + (st.n_log / 2);
      true
    end
    else begin
      for i = (st.n_log / 2) - 1 downto 0 do
        Layout.swap_physical st.layout st.log.(2 * i) st.log.((2 * i) + 1)
      done;
      false
    end
  end

(* Synthesize one string of a block over the BFS tree in [st.graph]
   (Algorithm 3 lines 8-17), in two phases; the string's [k] holders
   and operators sit in [st.holders]/[st.ops].

   Swap phase: the string's operator holders climb the tree — shallowest
   first, each until its parent position is already settled — so the
   settled positions form a connected subtree rooted at [root] (itself a
   holder).  These SWAPs persist as layout updates, exactly like a
   router's, so later strings profit from the movement.

   CNOT phase: a parity cone over the settled subtree (deepest first,
   child into parent), the rotation at the root, and the mirrored cone.
   No SWAP separates the two cones, so the mirror is exact and every
   gate lies on a tree edge of the coupling map. *)
let emit_string_on_tree st root k ~theta =
  let sc = st.graph and hs = st.holders and ops = st.ops in
  (* Holders are distinct positions, so sorting on (depth, position)
     makes the holder order a pure function of the tree. *)
  for i = 1 to k - 1 do
    let p = hs.(i) and op = ops.(i) in
    let d = Coupling.depth sc p in
    let j = ref i in
    while
      !j > 0
      &&
      let dj = Coupling.depth sc hs.(!j - 1) in
      d < dj || (d = dj && p < hs.(!j - 1))
    do
      hs.(!j) <- hs.(!j - 1);
      ops.(!j) <- ops.(!j - 1);
      decr j
    done;
    hs.(!j) <- p;
    ops.(!j) <- op
  done;
  if k = 0 then invalid_arg "Sc_backend.emit_string_on_tree: identity string";
  if hs.(0) <> root then invalid_arg "Sc_backend.emit_string_on_tree: root must be a holder";
  for i = 0 to k - 1 do
    let pos = ref hs.(i) in
    while !pos <> root && not st.settled.(Coupling.parent sc !pos) do
      let np = Coupling.parent sc !pos in
      add_swap st !pos np;
      pos := np
    done;
    st.settled.(!pos) <- true;
    hs.(i) <- !pos
  done;
  for i = 0 to k - 1 do
    Emit.add_basis_in st.builder ops.(i) hs.(i)
  done;
  (* The cone: settled non-root positions, deepest first, ties in holder
     order. *)
  let m = ref 0 in
  for i = 0 to k - 1 do
    let p = hs.(i) in
    if p <> root then begin
      let d = Coupling.depth sc p in
      let j = ref !m in
      while !j > 0 && Coupling.depth sc st.cone.(!j - 1) < d do
        st.cone.(!j) <- st.cone.(!j - 1);
        decr j
      done;
      st.cone.(!j) <- p;
      incr m
    end
  done;
  for i = 0 to !m - 1 do
    let p = st.cone.(i) in
    st.cone_gates.(i) <- Circuit.code Circuit.Cnot p (Coupling.parent sc p);
    Circuit.Builder.add_code st.builder st.cone_gates.(i)
  done;
  Circuit.Builder.add_rotation st.builder (Circuit.code Circuit.Rz root root) theta;
  for i = !m - 1 downto 0 do
    Circuit.Builder.add_code st.builder st.cone_gates.(i)
  done;
  for i = 0 to k - 1 do
    Emit.add_basis_out st.builder ops.(i) hs.(i);
    st.settled.(hs.(i)) <- false
  done

(* A string awaiting synthesis within its block: its logical support and
   its [string_cost] under the layout of the last refresh. *)
type pending = { term : Pauli_term.t; support : int array; mutable cost : int }

(* Root selection (Algorithm 3 lines 3-5): the candidate whose physical
   position lies in the largest connected component of the candidates'
   current positions (the first such component and candidate). *)
let select_root st policy candidates =
  match candidates with
  | [] -> invalid_arg "Sc_backend.select_root: no candidates"
  | first :: _ ->
    (match policy with
    | `First_core -> first
    | `Largest_component ->
      let sc = st.graph in
      let n_comps = Coupling.components st.coupling sc st.nodes (fill_positions st candidates) in
      let largest = ref 0 in
      for c = 1 to n_comps - 1 do
        if Coupling.component_size sc c > Coupling.component_size sc !largest then largest := c
      done;
      List.find
        (fun q -> Coupling.component sc (Layout.phys st.layout q) = !largest)
        candidates)

(* Sum of pairwise hop distances between the string's holders. *)
let string_cost st e =
  let s = e.support in
  let acc = ref 0 in
  for i = 0 to Array.length s - 1 do
    let p = Layout.phys st.layout s.(i) in
    for j = i + 1 to Array.length s - 1 do
      acc := !acc + Coupling.distance st.coupling p (Layout.phys st.layout s.(j))
    done
  done;
  !acc

(* One BFS hop of [a] towards [b]; idle device qubits are fair game
   (often shorter on sparse maps), but positions committed to
   concurrently-synthesized blocks are off limits.  The BFS tree from [b]
   over the non-avoided positions gives each position's distance from
   [b]; among the first hops that shorten it, prefer the
   lowest-error-rate coupler (Algorithm 3's "lowest error rate" path
   selection).  False when committed positions cut [a] off from [b]. *)
let hop_towards st a b =
  let n = ref 0 in
  for p = 0 to Coupling.n_qubits st.coupling - 1 do
    if p = b || not st.avoided.(p) then begin
      st.nodes.(!n) <- p;
      incr n
    end
  done;
  Coupling.bfs_tree st.coupling st.graph ~root:b st.nodes !n;
  let da = Coupling.depth st.graph a in
  da >= 0
  && begin
    let cnot_error = st.noise.Noise_model.cnot_error in
    let rec pick best = function
      | [] -> best
      | v :: rest ->
        if st.avoided.(v) || Coupling.depth st.graph v <> da - 1 then pick best rest
        else if best >= 0 && cnot_error a best <= cnot_error a v then pick best rest
        else pick v rest
    in
    let first = pick (-1) (Coupling.neighbors st.coupling a) in
    (* [a]'s tree parent always qualifies unless it is [b] and [b] is
       avoided; the backend has always failed there with this message *)
    if first < 0 then invalid_arg "option is None";
    add_swap st a first;
    true
  end

(* Sum of hop distances from [p] to the [k] holders in [st.holders]. *)
let spread st k p =
  let acc = ref 0 in
  for i = 0 to k - 1 do
    acc := !acc + Coupling.distance st.coupling p st.holders.(i)
  done;
  !acc

(* Emit [e] over a BFS tree rooted at the holder closest to the others:
   the tree over the first [len] entries of [nodes] serves only when the
   root's component there holds every holder; otherwise (a fallback
   region that hops left disconnected) the tree spans the whole device.
   Expects [e]'s holder positions in [st.holders]. *)
let emit_pending st blk e nodes len =
  let g = st.coupling and sc = st.graph and hs = st.holders in
  let t = e.term in
  let k = Array.length e.support in
  let theta = Emit.angle (Block.param blk) t.coeff in
  let root = ref hs.(0) and root_spread = ref (spread st k hs.(0)) in
  for i = 1 to k - 1 do
    let s = spread st k hs.(i) in
    if s < !root_spread then begin
      root := hs.(i);
      root_spread := s
    end
  done;
  Coupling.bfs_tree g sc ~root:!root nodes len;
  let on_tree = ref true in
  for i = 0 to k - 1 do
    if Coupling.parent sc hs.(i) < 0 then on_tree := false
  done;
  if not !on_tree then
    Coupling.bfs_tree g sc ~root:!root st.all_nodes (Array.length st.all_nodes);
  for i = 0 to k - 1 do
    st.ops.(i) <- Pauli_string.get t.str e.support.(i)
  done;
  emit_string_on_tree st !root k ~theta;
  st.rotations <- (t.str, theta) :: st.rotations

(* Synthesize one block: route its active qubits together (respecting
   [avoid]), embed the BFS tree, emit every string.  Returns false when
   routing failed under [avoid]. *)
let synthesize_block st policy ~avoid blk =
  let actives = Block.active_qubits blk in
  if actives = [] then true
  else begin
    List.iter (fun p -> st.avoided.(p) <- true) avoid;
    let core = match Block.core_qubits blk with [] -> actives | c -> c in
    let root_log = select_root st policy core in
    let ok = connect_actives st ~root_log ~active_log:actives in
    if ok then begin
      let g = st.coupling and sc = st.graph and hs = st.holders in
      (* Strings inside a block may be reordered freely (the IR's
         semantics is commutative within a pauli_str_list).  Greedy loop:
         whenever some string's support occupies a connected region it is
         synthesized immediately (a pure CNOT cone, no SWAPs); otherwise
         one SWAP moves the closest disconnected pair of the most
         clustered string one hop together, and everything is
         re-evaluated — the "larger search scope" Section 6.2 credits for
         beating the QAOA compiler's per-gate greedy.  [pending.(0 ..
         !left-1)] keeps the block's order as strings are removed. *)
      let pending =
        Array.of_list
          (List.filter_map
             (fun (t : Pauli_term.t) ->
               if Pauli_string.is_identity t.str then None
               else
                 Some { term = t; support = Array.of_list (Pauli_string.support t.str); cost = 0 })
             (Block.terms blk))
      in
      let left = ref (Array.length pending) in
      (* The layout moves only through SWAPs, all counted in
         [swap_count], so the cached string costs are refreshed only when
         that count changed. *)
      let costed_at = ref (-1) in
      (* Safety valve: hop-and-re-evaluate provably progresses when
         region and global distances agree; when they drift (exotic
         regions) we stop hopping and let the climb-to-root emission
         finish the stragglers. *)
      let hops = ref (32 + (16 * List.length actives)) in
      while !left > 0 do
        if !costed_at <> st.swap_count then begin
          for i = 0 to !left - 1 do
            pending.(i).cost <- string_cost st pending.(i)
          done;
          costed_at := st.swap_count
        end;
        let pick = ref 0 in
        for i = 1 to !left - 1 do
          if pending.(i).cost < pending.(!pick).cost then pick := i
        done;
        let e = pending.(!pick) in
        let k = Array.length e.support in
        for i = 0 to k - 1 do
          hs.(i) <- Layout.phys st.layout e.support.(i)
        done;
        let connected = Coupling.connected g sc hs k in
        if connected || !hops <= 0 then begin
          Array.blit pending (!pick + 1) pending !pick (!left - !pick - 1);
          decr left;
          if connected then emit_pending st blk e hs k
          else
            (* Fallback: synthesize over the whole active region; the
               settle phase's climbs bridge the disconnected holders. *)
            emit_pending st blk e st.nodes (fill_positions st actives)
        end
        else begin
          decr hops;
          (* Closest pair across two components of this string, compared
             in (component, component, node, node) order with the
             components numbered by first holder and the nodes
             ascending; the first minimum wins. *)
          let n_comps = Coupling.components g sc hs k in
          sort_prefix hs k;
          let best = ref max_int and ba = ref (-1) and bb = ref (-1) in
          for ci = 0 to n_comps - 1 do
            for cj = ci + 1 to n_comps - 1 do
              for x = 0 to k - 1 do
                if Coupling.component sc hs.(x) = ci then
                  for y = 0 to k - 1 do
                    if Coupling.component sc hs.(y) = cj then begin
                      let d = Coupling.distance g hs.(x) hs.(y) in
                      if !ba < 0 || d < !best then begin
                        best := d;
                        ba := hs.(x);
                        bb := hs.(y)
                      end
                    end
                  done
              done
            done
          done;
          (* a hop cut off from its target spends the whole budget, so
             the string takes the fallback *)
          if not (hop_towards st !ba !bb) then hops := 0
        end
      done
    end;
    List.iter (fun p -> st.avoided.(p) <- false) avoid;
    ok
  end

let cumulative_distance coupling layout blk =
  let ps = List.map (Layout.phys layout) (Block.active_qubits blk) in
  let rec go acc = function
    | [] -> acc
    | p :: rest ->
      go (List.fold_left (fun a q -> a + Coupling.distance coupling p q) acc rest) rest
  in
  go 0 ps

let synthesize ?noise ?(root_policy = `Largest_component) ~coupling ~n_qubits layers =
  let noise = match noise with Some n -> n | None -> Noise_model.uniform () in
  if n_qubits > Coupling.n_qubits coupling then
    invalid_arg "Sc_backend.synthesize: program larger than device";
  let layout = Layout.most_connected coupling ~n_logical:n_qubits in
  let initial_layout = Layout.copy layout in
  let st = create_state coupling noise layout in
  let remains = ref [] in
  List.iter
    (fun layer ->
      let leader = Layer.leader layer in
      if not (synthesize_block st root_policy ~avoid:[] leader) then
        remains := leader :: !remains
      else begin
        (* Blocks executable in parallel must not disturb the leader's
           tree (nor each other's). *)
        let committed = ref (List.map (Layout.phys layout) (Block.active_qubits leader)) in
        List.iter
          (fun small ->
            if synthesize_block st root_policy ~avoid:!committed small then
              committed :=
                List.map (Layout.phys layout) (Block.active_qubits small) @ !committed
            else remains := small :: !remains)
          (Layer.padding layer)
      end)
    layers;
  (* Deferred blocks: closest active sets first, recomputed as the
     mapping evolves (Algorithm 3 lines 21-23). *)
  let remains = ref (List.rev !remains) in
  while !remains <> [] do
    let best =
      List.fold_left
        (fun acc b ->
          let d = cumulative_distance coupling layout b in
          match acc with Some (d', _) when d' <= d -> acc | _ -> Some (d, b))
        None !remains
    in
    match best with
    | None -> remains := []
    | Some (_, blk) ->
      remains := remove_first blk !remains;
      if not (synthesize_block st root_policy ~avoid:[] blk) then
        invalid_arg "Sc_backend.synthesize: routing failed"
  done;
  {
    circuit = Circuit.Builder.to_circuit st.builder;
    rotations = List.rev st.rotations;
    initial_layout;
    final_layout = layout;
    swaps = st.swap_count;
  }
