(* Reference implementation for the synthesis tests: the SC backend as
   it was before routing moved to one shortest-path tree per moving qubit
   and block synthesis to flat arrays, kept verbatim (its per-pair
   Dijkstra and its subset routines come from [Coupling_ref]) as the
   oracle the rewritten [Sc_backend.synthesize] must match gate for
   gate. *)

open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_hardware
open Ph_schedule
open Ph_synthesis

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

(* Route the physical positions of [active_log] into one connected
   component containing the (moving) position of [root_log], inserting
   SWAPs.  Nodes in [avoid] are never entered.  Returns the SWAP list
   (physical) or [None] when impossible under [avoid]; [layout] is
   mutated only on success. *)
let connect_actives coupling noise layout ~root_log ~active_log ~avoid =
  let n_phys = Coupling.n_qubits coupling in
  let trial = Layout.copy layout in
  let swaps = ref [] in
  let avoided = Array.make n_phys false in
  List.iter (fun p -> avoided.(p) <- true) avoid;
  let exception Stuck in
  let result =
    try
      let max_iter = (8 * List.length active_log) + 16 in
      let iter = ref 0 in
      let positions () = List.map (Layout.phys trial) active_log in
      let root_component () =
        Coupling_ref.component_of coupling (positions ()) (Layout.phys trial root_log)
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
            else swap_cost noise u v +. if occupied.(v) then 10. else 0.
          in
          let path_cost path =
            fst
              (List.fold_left
                 (fun (acc, prev) v ->
                   match prev with
                   | None -> acc, Some v
                   | Some u -> acc +. cost u v, Some v)
                 (0., None) path)
          in
          let outside =
            List.filter (fun q -> not (List.mem (Layout.phys trial q) comp)) active_log
          in
          let best = ref None in
          List.iter
            (fun q ->
              let src = Layout.phys trial q in
              List.iter
                (fun dst ->
                  match Coupling_ref.shortest_path_weighted coupling ~cost src dst with
                  | path ->
                    let c = path_cost path in
                    (match !best with
                    | Some (c', _) when c' <= c -> ()
                    | _ -> best := Some (c, path))
                  | exception Not_found -> ())
                comp)
            outside;
          (match !best with
          | None -> raise Stuck
          | Some (c, path) ->
            if c >= 1e11 then raise Stuck;
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

(* Depth of every node in a parent-array tree. *)
let tree_depths parents root =
  let n = Array.length parents in
  let depth = Array.make n (-1) in
  let rec d v = if v = root then 0 else if depth.(v) >= 0 then depth.(v) else 1 + d parents.(v) in
  for v = 0 to n - 1 do
    if parents.(v) >= 0 then depth.(v) <- d v
  done;
  depth

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
  (* explicitly ordered walk rather than an unordered table fold:
     holder order must be a pure function of the tree, independent of
     hash-bucket layout (tools/check_determinism.sh bans unordered
     table iteration here) *)
  let holders =
    List.filter_map
      (fun p ->
        Option.map (fun op -> p, op) (Hashtbl.find_opt phys_ops p))
      (List.init (Array.length parents) Fun.id)
    |> List.sort (fun (a, _) (b, _) ->
           Stdlib.compare (depth.(a), a) (depth.(b), b))
  in
  (match holders with
  | (r, _) :: _ when r <> root ->
    invalid_arg "Sc_backend.emit_string_on_tree: root must be a holder"
  | [] -> invalid_arg "Sc_backend.emit_string_on_tree: identity string"
  | _ -> ());
  let settled = Hashtbl.create 8 in
  let final =
    List.map
      (fun (p, op) ->
        let pos = ref p in
        while !pos <> root && not (Hashtbl.mem settled parents.(!pos)) do
          let np = parents.(!pos) in
          Circuit.Builder.add builder (Gate.Swap (!pos, np));
          incr swap_count;
          Layout.swap_physical layout !pos np;
          pos := np
        done;
        Hashtbl.replace settled !pos ();
        !pos, op)
      holders
  in
  List.iter
    (fun (p, op) -> Emit.add_basis_in builder op p)
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
    (fun (p, op) -> Emit.add_basis_out builder op p)
    final

(* Physical operator table of a logical string under [layout]. *)
let phys_ops_of layout str =
  let table = Hashtbl.create 8 in
  List.iter
    (fun q -> Hashtbl.replace table (Layout.phys layout q) (Pauli_string.get str q))
    (Pauli_string.support str);
  table

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
      let comps = Coupling_ref.subset_components coupling positions in
      let largest =
        List.fold_left
          (fun acc c -> if List.length c > List.length acc then c else acc)
          [] comps
      in
      List.find (fun q -> List.mem (Layout.phys layout q) largest) candidates)

(* Synthesize one block: route its active qubits together (respecting
   [avoid]), embed the BFS tree, emit every string.  Returns false when
   routing failed under [avoid]. *)
let synthesize_block coupling noise layout builder rotations policy ~swap_count ~avoid blk =
  let actives = Block.active_qubits blk in
  if actives = [] then true
  else begin
    let core = match Block.core_qubits blk with [] -> actives | c -> c in
    let root_log = select_root coupling layout policy core in
    match connect_actives coupling noise layout ~root_log ~active_log:actives ~avoid with
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
      let holders_of (t : Pauli_term.t) =
        List.map (Layout.phys layout) (Pauli_string.support t.str)
      in
      let string_cost (t : Pauli_term.t) =
        let rec go acc = function
          | [] -> acc
          | p :: rest ->
            go (List.fold_left (fun a q -> a + Coupling.distance coupling p q) acc rest)
              rest
        in
        go 0 (holders_of t)
      in
      (* One BFS hop of [a] towards [b]; idle device qubits are fair
         game (often shorter on sparse maps), but positions committed to
         concurrently-synthesized blocks are off limits. *)
      let hop_towards a b =
        let region = Hashtbl.create 16 in
        for p = 0 to Coupling.n_qubits coupling - 1 do
          Hashtbl.replace region p ()
        done;
        List.iter (Hashtbl.remove region) avoid;
        (* BFS distances from [b] over the allowed region; among the
           first hops that shorten the distance, prefer the
           lowest-error-rate coupler (Algorithm 3's "lowest error rate"
           path selection). *)
        let dist_b = Hashtbl.create 32 in
        let queue = Queue.create () in
        Hashtbl.replace dist_b b 0;
        Queue.add b queue;
        while not (Queue.is_empty queue) do
          let u = Queue.pop queue in
          let du = Hashtbl.find dist_b u in
          List.iter
            (fun v ->
              if Hashtbl.mem region v && not (Hashtbl.mem dist_b v) then begin
                Hashtbl.replace dist_b v (du + 1);
                Queue.add v queue
              end)
            (Coupling.neighbors coupling u)
        done;
        let da = Hashtbl.find dist_b a in
        let first =
          List.filter
            (fun v -> Hashtbl.mem region v && Hashtbl.find_opt dist_b v = Some (da - 1))
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
        Layout.swap_physical layout a first
      in
      let remaining =
        ref (List.filter (fun (t : Pauli_term.t) -> not (Pauli_string.is_identity t.str))
               (Block.terms blk))
      in
      let emit_connected (t : Pauli_term.t) holders ~nodes =
        remaining := remove_first t !remaining;
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
        let parents = Coupling_ref.bfs_tree coupling ~root:root_phys ~nodes in
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
        let t =
          List.fold_left
            (fun acc t ->
              match acc with
              | Some (c, _) when c <= string_cost t -> acc
              | _ -> Some (string_cost t, t))
            None !remaining
          |> Option.get |> snd
        in
        let holders = holders_of t in
        match Coupling_ref.subset_components coupling holders with
        | [ _ ] -> emit_connected t holders ~nodes:holders
        | _ when !hops <= 0 ->
          (* Fallback: synthesize over the whole active region; the
             settle phase's climbs bridge the disconnected holders. *)
          emit_connected t holders ~nodes:(List.map (Layout.phys layout) actives)
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
          | Some (_, a, b) -> hop_towards a b
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
  let initial_layout = Layout.copy layout in
  let builder = Circuit.Builder.create (Coupling.n_qubits coupling) in
  let rotations = ref [] in
  let swap_count = ref 0 in
  let remains = ref [] in
  List.iter
    (fun layer ->
      let leader = Layer.leader layer in
      let ok =
        synthesize_block coupling noise layout builder rotations root_policy
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
              synthesize_block coupling noise layout builder rotations root_policy
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
        synthesize_block coupling noise layout builder rotations root_policy
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
