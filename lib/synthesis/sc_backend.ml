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

(* Remove exactly the first physically-equal occurrence: terms and
   blocks may be aliased (the same object appearing twice), and a filter
   on [!=] would drop every alias at once, silently losing rotations. *)
let rec remove_first x = function
  | [] -> []
  | y :: rest -> if y == x then rest else y :: remove_first x rest

let swap_cost noise a b =
  let e = noise.Noise_model.cnot_error a b in
  (* -log of SWAP fidelity; monotone in the error rate. *)
  -3. *. log (max 1e-9 (1. -. e))

(* [swap_cost] of every directed coupler, indexed by [Coupling.arc],
   computed once per [synthesize] call.  Per-arc rather than n*n keeps
   the table small enough for the minor heap. *)
let edge_costs coupling noise =
  let costs = Array.make (Coupling.n_arcs coupling) 0. in
  for u = 0 to Coupling.n_qubits coupling - 1 do
    List.iter
      (fun v -> costs.(Coupling.arc coupling u v) <- swap_cost noise u v)
      (Coupling.neighbors coupling u)
  done;
  costs

(* Route the physical positions of [active_log] into one connected
   component containing the (moving) position of [root_log], inserting
   SWAPs.  Nodes [p] with [avoided.(p)] are never entered.  Returns the
   SWAP list (physical) or [None] when impossible under [avoided];
   [layout] is mutated only on success. *)
let connect_actives coupling edge_cost layout ~root_log ~active_log ~avoided =
  let n_phys = Coupling.n_qubits coupling in
  let trial = Layout.copy layout in
  let swaps = ref [] in
  let exception Stuck in
  let result =
    try
      let max_iter = (8 * List.length active_log) + 16 in
      let iter = ref 0 in
      let positions () = List.map (Layout.phys trial) active_log in
      let root_component () =
        Coupling.component_of coupling (positions ()) (Layout.phys trial root_log)
      in
      let rec go () =
        let comp = root_component () in
        if List.length comp = List.length active_log then ()
        else begin
          incr iter;
          if !iter > max_iter then raise Stuck;
          (* Soft-penalize paths displacing other active qubits. *)
          let occupied = Array.make n_phys false in
          List.iter (fun p -> occupied.(p) <- true) (positions ());
          let cost u v =
            if avoided.(v) || avoided.(u) then 1e12
            else edge_cost.(Coupling.arc coupling u v) +. if occupied.(v) then 10. else 0.
          in
          let outside =
            List.filter (fun q -> not (List.mem (Layout.phys trial q) comp)) active_log
          in
          (* One shortest-path tree per moving qubit answers all of its
             (qubit, component node) queries: each settled node's path and
             distance equal a per-pair search's (Coupling.shortest_path_tree),
             and the pairs are still compared in (qubit, node) order, first
             minimum kept. *)
          let best = ref None in
          List.iter
            (fun q ->
              let src = Layout.phys trial q in
              let dist, prev = Coupling.shortest_path_tree coupling ~cost ~targets:comp src in
              List.iter
                (fun dst ->
                  let c = dist.(dst) in
                  if c < infinity then
                    match !best with
                    | Some (c', _, _, _) when c' <= c -> ()
                    | _ -> best := Some (c, src, dst, prev))
                comp)
            outside;
          (match !best with
          | None -> raise Stuck
          | Some (c, src, dst, prev) ->
            if c >= 1e11 then raise Stuck;
            let rec back v acc = if v = src then src :: acc else back prev.(v) (v :: acc) in
            let path = back dst [] in
            (* Move the qubit up to the node adjacent to the component. *)
            let rec move = function
              | u :: (v :: (_ :: _ as rest)) ->
                swaps := Gate.Swap (u, v) :: !swaps;
                Layout.swap_physical trial u v;
                move (v :: rest)
              | _ -> ()
            in
            move path);
          go ()
        end
      in
      go ();
      Some (List.rev !swaps)
    with Stuck -> None
  in
  match result with
  | None -> None
  | Some swaps ->
    List.iter
      (function Gate.Swap (u, v) -> Layout.swap_physical layout u v | _ -> ())
      swaps;
    Some swaps

(* Depth of every node in a parent-array tree ([-1] off the tree), each
   computed once. *)
let tree_depths parents root =
  let n = Array.length parents in
  let depth = Array.make n (-1) in
  let rec d v =
    if depth.(v) < 0 then depth.(v) <- (if v = root then 0 else 1 + d parents.(v));
    depth.(v)
  in
  for v = 0 to n - 1 do
    if parents.(v) >= 0 then ignore (d v)
  done;
  depth

(* [on_tree parents ps] — every position of [ps] lies on the tree. *)
let rec on_tree parents = function
  | [] -> true
  | p :: rest -> parents.(p) >= 0 && on_tree parents rest

(* Synthesize one string of a block over the embedded tree (Algorithm 3
   lines 8-17), in two phases.

   Swap phase: the string's operator holders climb the tree — shallowest
   first, each until its parent position is already settled — so the
   settled positions form a connected subtree rooted at [root] (itself a
   holder).  These SWAPs persist as layout updates, exactly like a
   router's, so later strings profit from the movement.

   CNOT phase: a parity cone over the settled subtree (deepest first,
   child into parent), the rotation at the root, and the mirrored cone.
   No SWAP separates the two cones, so the mirror is exact and every
   gate lies on a tree edge of the coupling map. *)
let emit_string_on_tree builder layout parents root ~swap_count ~phys_ops ~theta =
  let depth = tree_depths parents root in
  (* [phys_ops] holds distinct positions, so sorting on (depth, position)
     makes the holder order a pure function of the tree. *)
  let holders =
    List.sort
      (fun (a, _) (b, _) ->
        match Int.compare depth.(a) depth.(b) with 0 -> Int.compare a b | c -> c)
      phys_ops
  in
  (match holders with
  | (r, _) :: _ when r <> root ->
    invalid_arg "Sc_backend.emit_string_on_tree: root must be a holder"
  | [] -> invalid_arg "Sc_backend.emit_string_on_tree: identity string"
  | _ -> ());
  let settled = Array.make (Array.length parents) false in
  let final =
    List.map
      (fun (p, op) ->
        let pos = ref p in
        while !pos <> root && not settled.(parents.(!pos)) do
          let np = parents.(!pos) in
          Circuit.Builder.add builder (Gate.Swap (!pos, np));
          incr swap_count;
          Layout.swap_physical layout !pos np;
          pos := np
        done;
        settled.(!pos) <- true;
        !pos, op)
      holders
  in
  List.iter
    (fun (p, op) -> Circuit.Builder.add_list builder (Emit.basis_in op p))
    final;
  let cone =
    List.filter (fun (p, _) -> p <> root) final
    |> List.map fst
    |> List.sort (fun a b -> Stdlib.compare depth.(b) depth.(a))
    |> List.map (fun n -> Gate.Cnot (n, parents.(n)))
  in
  Circuit.Builder.add_list builder cone;
  Circuit.Builder.add builder (Gate.Rz (theta, root));
  Circuit.Builder.add_list builder (List.rev cone);
  List.iter
    (fun (p, op) -> Circuit.Builder.add_list builder (Emit.basis_out op p))
    final

(* (physical position, operator) of every non-identity qubit of a
   logical string under [layout]. *)
let phys_ops_of layout str =
  List.map (fun q -> Layout.phys layout q, Pauli_string.get str q) (Pauli_string.support str)

(* A string awaiting synthesis within its block: its logical support and
   its [string_cost] under the layout of the last refresh.  Entries are
   distinct records, so [remove_first] drops exactly the one picked even
   when the block holds the same term object twice. *)
type pending = { term : Pauli_term.t; support : int array; mutable cost : int }

(* Root selection (Algorithm 3 lines 3-5): the candidate whose physical
   position lies in the largest connected component of the candidates'
   current positions. *)
let select_root coupling layout policy candidates =
  match candidates with
  | [] -> invalid_arg "Sc_backend.select_root: no candidates"
  | first :: _ ->
    (match policy with
    | `First_core -> first
    | `Largest_component ->
      let positions = List.map (Layout.phys layout) candidates in
      let comps = Coupling.subset_components coupling positions in
      let largest =
        List.fold_left
          (fun acc c -> if List.length c > List.length acc then c else acc)
          [] comps
      in
      List.find (fun q -> List.mem (Layout.phys layout q) largest) candidates)

(* Synthesize one block: route its active qubits together (respecting
   [avoid]), embed the BFS tree, emit every string.  Returns false when
   routing failed under [avoid]. *)
let synthesize_block coupling noise edge_cost layout builder rotations policy ~swap_count
    ~avoid blk =
  let actives = Block.active_qubits blk in
  if actives = [] then true
  else begin
    let n_phys = Coupling.n_qubits coupling in
    let avoided = Array.make n_phys false in
    List.iter (fun p -> avoided.(p) <- true) avoid;
    let core = match Block.core_qubits blk with [] -> actives | c -> c in
    let root_log = select_root coupling layout policy core in
    match connect_actives coupling edge_cost layout ~root_log ~active_log:actives ~avoided with
    | None -> false
    | Some swaps ->
      Circuit.Builder.add_list builder swaps;
      swap_count := !swap_count + List.length swaps;
      (* Strings inside a block may be reordered freely (the IR's
         semantics is commutative within a pauli_str_list).  Greedy loop:
         whenever some string's support occupies a connected region it is
         synthesized immediately (a pure CNOT cone, no SWAPs); otherwise
         one SWAP moves the closest disconnected pair of the most
         clustered string one hop together, and everything is
         re-evaluated — the "larger search scope" Section 6.2 credits for
         beating the QAOA compiler's per-gate greedy. *)
      let holders_of e = List.map (Layout.phys layout) (Array.to_list e.support) in
      (* Sum of pairwise hop distances between the string's holders. *)
      let string_cost e =
        let s = e.support in
        let acc = ref 0 in
        for i = 0 to Array.length s - 1 do
          let p = Layout.phys layout s.(i) in
          for j = i + 1 to Array.length s - 1 do
            acc := !acc + Coupling.distance coupling p (Layout.phys layout s.(j))
          done
        done;
        !acc
      in
      (* One BFS hop of [a] towards [b]; idle device qubits are fair
         game (often shorter on sparse maps), but positions committed to
         concurrently-synthesized blocks are off limits.  False when no
         hop is possible. *)
      let dist_b = Array.make n_phys (-1) in
      let queue = Queue.create () in
      let hop_towards a b =
        (* BFS distances from [b] over the non-avoided nodes ([-1]:
           unreached); among the first hops that shorten the distance,
           prefer the lowest-error-rate coupler (Algorithm 3's "lowest
           error rate" path selection). *)
        Array.fill dist_b 0 n_phys (-1);
        dist_b.(b) <- 0;
        Queue.add b queue;
        while not (Queue.is_empty queue) do
          let u = Queue.pop queue in
          let du = dist_b.(u) in
          List.iter
            (fun v ->
              if (not avoided.(v)) && dist_b.(v) < 0 then begin
                dist_b.(v) <- du + 1;
                Queue.add v queue
              end)
            (Coupling.neighbors coupling u)
        done;
        let da = dist_b.(a) in
        (* committed positions can cut [a] off from [b] *)
        if da < 0 then false
        else begin
          let first =
            List.filter
              (fun v -> (not avoided.(v)) && dist_b.(v) = da - 1)
              (Coupling.neighbors coupling a)
            |> List.fold_left
                 (fun acc v ->
                   match acc with
                   | Some u when noise.Noise_model.cnot_error a u
                                 <= noise.Noise_model.cnot_error a v ->
                     acc
                   | _ -> Some v)
                 None
            |> Option.get
          in
          Circuit.Builder.add builder (Gate.Swap (a, first));
          incr swap_count;
          Layout.swap_physical layout a first;
          true
        end
      in
      (* The layout moves only through SWAPs, all counted in
         [swap_count], so the cached string costs are refreshed only when
         that count changed. *)
      let remaining =
        ref
          (List.filter_map
             (fun (t : Pauli_term.t) ->
               if Pauli_string.is_identity t.str then None
               else
                 Some { term = t; support = Array.of_list (Pauli_string.support t.str); cost = 0 })
             (Block.terms blk))
      in
      let costed_at = ref (-1) in
      let emit_connected e holders ~nodes =
        let t = e.term in
        remaining := remove_first e !remaining;
        let theta = Emit.angle (Block.param blk) t.coeff in
        let spread p =
          List.fold_left (fun acc q -> acc + Coupling.distance coupling p q) 0 holders
        in
        let root_phys =
          List.fold_left
            (fun acc p ->
              match acc with
              | Some (c, _) when c <= spread p -> acc
              | _ -> Some (spread p, p))
            None holders
          |> Option.get |> snd
        in
        (* The tree over [nodes] serves only when the root's component
           there holds every holder; otherwise (a fallback region that
           hops left disconnected) the tree spans the whole device. *)
        let parents =
          let parents = Coupling.bfs_tree coupling ~root:root_phys ~nodes in
          if on_tree parents holders then parents
          else Coupling.bfs_tree coupling ~root:root_phys ~nodes:(List.init n_phys Fun.id)
        in
        emit_string_on_tree builder layout parents root_phys ~swap_count
          ~phys_ops:(phys_ops_of layout t.str) ~theta;
        rotations := (t.str, theta) :: !rotations
      in
      (* Safety valve: hop-and-re-evaluate provably progresses when
         region and global distances agree; when they drift (exotic
         regions) we stop hopping and let the climb-to-root emission
         finish the stragglers. *)
      let hops = ref (32 + (16 * List.length actives)) in
      while !remaining <> [] do
        if !costed_at <> !swap_count then begin
          List.iter (fun e -> e.cost <- string_cost e) !remaining;
          costed_at := !swap_count
        end;
        let e =
          List.fold_left
            (fun acc e ->
              match acc with
              | Some e' when e'.cost <= e.cost -> acc
              | _ -> Some e)
            None !remaining
          |> Option.get
        in
        let holders = holders_of e in
        match Coupling.subset_components coupling holders with
        | [ _ ] -> emit_connected e holders ~nodes:holders
        | _ when !hops <= 0 ->
          (* Fallback: synthesize over the whole active region; the
             settle phase's climbs bridge the disconnected holders. *)
          emit_connected e holders ~nodes:(List.map (Layout.phys layout) actives)
        | comps ->
          decr hops;
          (* Closest pair across two components of this string. *)
          let best = ref None in
          List.iteri
            (fun i ci ->
              List.iteri
                (fun j cj ->
                  if i < j then
                    List.iter
                      (fun a ->
                        List.iter
                          (fun b ->
                            let d = Coupling.distance coupling a b in
                            match !best with
                            | Some (d', _, _) when d' <= d -> ()
                            | _ -> best := Some (d, a, b))
                          cj)
                      ci)
                comps)
            comps;
          (match !best with
          | Some (_, a, b) ->
            (* a hop cut off from its target spends the whole budget, so
               the string takes the fallback *)
            if not (hop_towards a b) then hops := 0
          | None -> assert false)
      done;
      true
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
  let edge_cost = edge_costs coupling noise in
  let initial_layout = Layout.copy layout in
  let builder = Circuit.Builder.create (Coupling.n_qubits coupling) in
  let rotations = ref [] in
  let swap_count = ref 0 in
  let remains = ref [] in
  List.iter
    (fun layer ->
      let leader = Layer.leader layer in
      let ok =
        synthesize_block coupling noise edge_cost layout builder rotations root_policy
          ~swap_count ~avoid:[] leader
      in
      if not ok then remains := leader :: !remains
      else begin
        (* Blocks executable in parallel must not disturb the leader's
           tree (nor each other's). *)
        let committed = ref (List.map (Layout.phys layout) (Block.active_qubits leader)) in
        List.iter
          (fun small ->
            let ok =
              synthesize_block coupling noise edge_cost layout builder rotations root_policy
                ~swap_count ~avoid:!committed small
            in
            if ok then
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
      let ok =
        synthesize_block coupling noise edge_cost layout builder rotations root_policy
          ~swap_count ~avoid:[] blk
      in
      if not ok then invalid_arg "Sc_backend.synthesize: routing failed"
  done;
  {
    circuit = Circuit.Builder.to_circuit builder;
    rotations = List.rev !rotations;
    initial_layout;
    final_layout = layout;
    swaps = !swap_count;
  }
