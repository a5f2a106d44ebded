open Ph_hardware
open Ph_gatelevel

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck = QCheck_alcotest.to_alcotest

(* --- Coupling --- *)

let test_create_dedup () =
  let g = Coupling.create 3 [ 0, 1; 1, 0; 1, 2 ] in
  check_int "edges deduplicated" 2 (Coupling.n_edges g);
  check "adjacent" true (Coupling.adjacent g 0 1);
  check "symmetric" true (Coupling.adjacent g 1 0);
  check "not adjacent" false (Coupling.adjacent g 0 2)

let test_arc_ids () =
  (* Arc ids number exactly the adjacent ordered pairs, densely, in
     (tail, head) order. *)
  List.iter
    (fun g ->
      let n = Coupling.n_qubits g in
      check_int "two arcs per edge" (2 * Coupling.n_edges g) (Coupling.n_arcs g);
      let next = ref 0 in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Coupling.adjacent g u v then begin
            check_int "dense id in (tail, head) order" !next (Coupling.arc g u v);
            incr next
          end
          else check_int "no id off the coupling map" (-1) (Coupling.arc g u v)
        done
      done)
    [ Coupling.create 3 [ 0, 1; 1, 0; 1, 2 ]; Devices.manhattan; Devices.grid 3 4 ]

let test_create_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Coupling.create: self-loop")
    (fun () -> ignore (Coupling.create 2 [ 1, 1 ]));
  Alcotest.check_raises "out of range" (Invalid_argument "Coupling.create: edge (0,5)")
    (fun () -> ignore (Coupling.create 2 [ 0, 5 ]))

let test_distance_path () =
  let g = Devices.line 5 in
  check_int "line distance" 4 (Coupling.distance g 0 4);
  Alcotest.(check (list int)) "path" [ 0; 1; 2; 3; 4 ] (Coupling.shortest_path g 0 4);
  let disconnected = Coupling.create 4 [ 0, 1; 2, 3 ] in
  check "disconnected distance" true (Coupling.distance disconnected 0 3 = max_int);
  check "connectivity check" false (Coupling.is_connected disconnected);
  check "line connected" true (Coupling.is_connected g)

let test_weighted_path () =
  (* Square 0-1-3, 0-2-3; make 0-1 expensive: path goes through 2. *)
  let g = Coupling.create 4 [ 0, 1; 1, 3; 0, 2; 2, 3 ] in
  let cost u v = if (u, v) = (0, 1) || (u, v) = (1, 0) then 10. else 1. in
  Alcotest.(check (list int)) "weighted path avoids 0-1" [ 0; 2; 3 ]
    (Coupling.shortest_path_weighted g ~cost 0 3)

(* [Coupling.shortest_path_tree] against the per-pair Dijkstra oracle
   [Coupling_ref.shortest_path_weighted]: for every source and every
   target of the set, the path read off [prev] and [dist] are exactly the
   oracle's path and the left-to-right float sum of its arc costs; an
   unreachable target has [dist = infinity] where the oracle raises
   [Not_found].  [shortest_path_weighted] must agree too.  One scratch
   serves every search. *)
let check_tree_against_ref ?sc name g ~cost ~target_sets =
  let n = Coupling.n_qubits g in
  let sc = match sc with Some sc -> sc | None -> Coupling.scratch g in
  let arc_cost = Coupling.arc_costs g cost in
  for src = 0 to n - 1 do
    List.iter
      (fun targets ->
        let t = Array.of_list targets in
        Coupling.shortest_path_tree g sc ~cost:arc_cost ~targets:t ~n_targets:(Array.length t) src;
        let dist = Coupling.dist sc and prev = Coupling.prev sc in
        List.iter
          (fun dst ->
            let where = Printf.sprintf "%s %d->%d" name src dst in
            match Coupling_ref.shortest_path_weighted g ~cost src dst with
            | exception Not_found ->
              check (where ^ " unreachable") true (dist dst = infinity);
              check (where ^ " wrapper raises") true
                (match Coupling.shortest_path_weighted g ~cost src dst with
                | _ -> false
                | exception Not_found -> true)
            | path ->
              let rec back v acc = if v = src then src :: acc else back (prev v) (v :: acc) in
              Alcotest.(check (list int)) (where ^ " path") path (back dst []);
              let rec sum acc = function
                | u :: (v :: _ as rest) -> sum (acc +. cost u v) rest
                | _ -> acc
              in
              check (where ^ " dist is the path's float sum") true (dist dst = sum 0. path);
              Alcotest.(check (list int)) (where ^ " wrapper") path
                (Coupling.shortest_path_weighted g ~cost src dst))
          targets)
      (target_sets src)
  done

let test_shortest_path_tree () =
  let all g = List.init (Coupling.n_qubits g) Fun.id in
  (* every node at once, each node alone, and a strided subset (early
     stop with targets left unsettled elsewhere) *)
  let target_sets g src =
    [ all g; [ (src + 7) mod Coupling.n_qubits g ]; List.filter (fun v -> v mod 5 = 2) (all g) ]
  in
  let swap_cost noise u v = -3. *. log (max 1e-9 (1. -. noise.Noise_model.cnot_error u v)) in
  List.iter
    (fun (dname, g) ->
      let n = Coupling.n_qubits g in
      let calibrated = Noise_model.calibrated g ~seed:3 () in
      let avoided = Array.init n (fun v -> v mod 6 = 1) in
      let occupied = Array.init n (fun v -> v mod 4 = 0) in
      List.iter
        (fun (cname, cost) ->
          check_tree_against_ref (dname ^ "/" ^ cname) g ~cost ~target_sets:(target_sets g))
        [
          "uniform", (fun _ _ -> 1.);
          "calibrated", swap_cost calibrated;
          ( "avoided",
            fun u v ->
              if avoided.(u) || avoided.(v) then 1e12
              else swap_cost calibrated u v +. if occupied.(v) then 10. else 0. );
        ])
    [ "manhattan", Devices.manhattan; "grid-5x5", Devices.grid 5 5 ];
  (* Disconnected: {0,1,2} and {3,4}. *)
  let g = Coupling.create 5 [ 0, 1; 1, 2; 3, 4 ] in
  check_tree_against_ref "disconnected" g ~cost:(fun _ _ -> 1.) ~target_sets:(fun _ -> [ all g ]);
  let sc = Coupling.scratch g in
  Coupling.shortest_path_tree g sc ~cost:(Coupling.arc_costs g (fun _ _ -> 1.)) ~targets:[| 4 |]
    ~n_targets:1 0;
  check "unreachable target at infinity" true (Coupling.dist sc 4 = infinity);
  Alcotest.check_raises "unreachable path" Not_found (fun () ->
      ignore (Coupling.shortest_path_weighted g ~cost:(fun _ _ -> 1.) 0 4))

(* The scratch routines against the list-based oracles in [Coupling_ref],
   on random node subsets, with one scratch per graph serving every call
   in a random interleaving: a stale stamp, an unreset parent or a
   leftover Dijkstra entry shows up as a mismatch. *)
let test_scratch_matches_ref () =
  let st = Random.State.make [| 26 |] in
  let graphs =
    [
      "manhattan", Devices.manhattan;
      "grid-5x5", Devices.grid 5 5;
      "heavy-hex-3x9", Devices.heavy_hex ~rows:3 ~row_length:9;
      "disconnected", Coupling.create 9 [ 0, 1; 1, 2; 2, 0; 3, 4; 5, 6; 6, 7 ];
    ]
  in
  List.iter
    (fun (name, g) ->
      let n = Coupling.n_qubits g in
      let sc = Coupling.scratch g in
      let subset () =
        (* distinct nodes in random order, from tiny to the whole graph *)
        let perm = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        let len = 1 + Random.State.int st (min n (if Random.State.bool st then 6 else n)) in
        Array.sub perm 0 len
      in
      for call = 1 to 600 do
        let where = Printf.sprintf "%s call %d" name call in
        let nodes = subset () in
        let len = Array.length nodes in
        let ref_comps = Coupling_ref.subset_components g (Array.to_list nodes) in
        match Random.State.int st 4 with
        | 0 ->
          check (where ^ " connected") (List.length ref_comps = 1)
            (Coupling.connected g sc nodes len)
        | 1 ->
          check_int (where ^ " component count") (List.length ref_comps)
            (Coupling.components g sc nodes len);
          List.iteri
            (fun c comp ->
              check_int (where ^ " component size") (List.length comp)
                (Coupling.component_size sc c);
              List.iter (fun v -> check_int (where ^ " label") c (Coupling.component sc v)) comp)
            ref_comps
        | 2 ->
          let root = nodes.(Random.State.int st len) in
          Coupling.bfs_tree g sc ~root nodes len;
          let parents = Coupling_ref.bfs_tree g ~root ~nodes:(Array.to_list nodes) in
          let rec depth v = if v = root then 0 else 1 + depth parents.(v) in
          for v = 0 to n - 1 do
            check_int (where ^ " parent") parents.(v) (Coupling.parent sc v);
            check_int (where ^ " depth")
              (if parents.(v) < 0 then -1 else depth v)
              (Coupling.depth sc v)
          done
        | _ ->
          let src = Random.State.int st n in
          (* small integer weights tie often, which the (dist, node) order
             must break as the oracle does *)
          let ties = Random.State.bool st in
          let weights =
            Array.init (n * n) (fun _ ->
                if ties then float (1 + Random.State.int st 2)
                else 0.5 +. Random.State.float st 2.)
          in
          let cost u v = weights.((min u v * n) + max u v) in
          Coupling.shortest_path_tree g sc ~cost:(Coupling.arc_costs g cost) ~targets:nodes
            ~n_targets:len src;
          check_int (where ^ " no prev of src") (-1) (Coupling.prev sc src);
          Array.iter
            (fun dst ->
              match Coupling_ref.shortest_path_weighted g ~cost src dst with
              | exception Not_found ->
                check (where ^ " unreachable") true (Coupling.dist sc dst = infinity)
              | path ->
                let rec back v acc =
                  if v = src then src :: acc else back (Coupling.prev sc v) (v :: acc)
                in
                Alcotest.(check (list int)) (where ^ " path") path (back dst []))
            nodes
      done)
    graphs

let test_subset_components () =
  let g = Devices.line 6 in
  let sc = Coupling.scratch g in
  let nodes = [| 4; 0; 1; 3; 5 |] in
  check_int "two components" 2 (Coupling.components g sc nodes 5);
  check_int "numbered by first node" 0 (Coupling.component sc 5);
  check_int "second component" 1 (Coupling.component sc 1);
  check_int "size of {3, 4, 5}" 3 (Coupling.component_size sc 0);
  check "not connected" false (Coupling.connected g sc nodes 5);
  check "prefix {4} connected" true (Coupling.connected g sc nodes 1);
  check "empty set connected" true (Coupling.connected g sc nodes 0);
  Alcotest.check_raises "scratch of another graph"
    (Invalid_argument "Coupling: scratch made for another graph") (fun () ->
      ignore (Coupling.connected (Devices.line 5) sc nodes 1))

let test_densest_subgraph () =
  let g = Devices.grid 3 3 in
  let nodes = Coupling.densest_subgraph g 4 in
  check_int "4 nodes" 4 (List.length nodes);
  (* Chosen nodes form a connected induced subgraph. *)
  check "connected" true
    (Coupling.connected g (Coupling.scratch g) (Array.of_list nodes) (List.length nodes))

let test_densest_subgraph_matches_ref () =
  List.iter
    (fun (name, g) ->
      for k = 0 to Coupling.n_qubits g do
        Alcotest.(check (list int))
          (Printf.sprintf "%s k=%d" name k)
          (Coupling_ref.densest_subgraph g k)
          (Coupling.densest_subgraph g k)
      done)
    [
      "manhattan", Devices.manhattan;
      "melbourne", Devices.melbourne;
      "grid 5x5", Devices.grid 5 5;
      "heavy-hex 3x9", Devices.heavy_hex ~rows:3 ~row_length:9;
      "line:9", Devices.line 9;
    ]

let test_densest_subgraph_empty () =
  let g = Devices.grid 3 3 in
  Alcotest.(check (list int)) "k = 0 gives no nodes" [] (Coupling.densest_subgraph g 0);
  Alcotest.check_raises "k < 0 rejected"
    (Invalid_argument "Coupling.densest_subgraph: k < 0")
    (fun () -> ignore (Coupling.densest_subgraph g (-1)));
  check_int "empty most-connected layout" 0
    (Layout.n_logical (Layout.most_connected g ~n_logical:0))

let test_bfs_tree () =
  let g = Devices.line 5 in
  let sc = Coupling.scratch g in
  Coupling.bfs_tree g sc ~root:2 [| 0; 1; 2; 3; 4 |] 5;
  check_int "root parent" 2 (Coupling.parent sc 2);
  check_int "parent of 0" 1 (Coupling.parent sc 0);
  check_int "parent of 4" 3 (Coupling.parent sc 4);
  check_int "depth of 0" 2 (Coupling.depth sc 0);
  (* the tree survives the other routines *)
  ignore (Coupling.components g sc [| 0; 4 |] 2);
  check_int "parent of 0 after components" 1 (Coupling.parent sc 0);
  Coupling.bfs_tree g sc ~root:0 [| 0; 1; 3 |] 3;
  check_int "unreachable node" (-1) (Coupling.parent sc 3);
  check_int "unreachable depth" (-1) (Coupling.depth sc 3);
  check_int "node of the previous tree" (-1) (Coupling.parent sc 4);
  Alcotest.check_raises "root outside nodes"
    (Invalid_argument "Coupling.bfs_tree: root outside nodes") (fun () ->
      Coupling.bfs_tree g sc ~root:4 [| 0; 1 |] 2)

let test_manhattan () =
  let g = Devices.manhattan in
  check_int "65 qubits" 65 (Coupling.n_qubits g);
  check_int "72 couplers" 72 (Coupling.n_edges g);
  check "connected" true (Coupling.is_connected g);
  (* Heavy-hex: max degree 3. *)
  check "sparse (max degree 3)" true
    (List.for_all (fun v -> Coupling.degree g v <= 3) (List.init 65 Fun.id))

let test_heavy_hex () =
  let g = Devices.heavy_hex ~rows:3 ~row_length:9 in
  check "connected" true (Coupling.is_connected g);
  check "max degree 3" true
    (List.for_all (fun v -> Coupling.degree g v <= 3) (List.init (Coupling.n_qubits g) Fun.id));
  (* 3 rows of 9 + bridges: gap 0 has offsets 0,4,8 (3 bridges), gap 1 has
     offsets 2,6 (2 bridges) -> 27 + 5 qubits. *)
  check_int "qubit count" 32 (Coupling.n_qubits g);
  check "validation" true
    (match Devices.heavy_hex ~rows:0 ~row_length:5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_melbourne () =
  let g = Devices.melbourne in
  check_int "16 qubits" 16 (Coupling.n_qubits g);
  check "connected" true (Coupling.is_connected g)

let prop_distance_triangle =
  QCheck.Test.make ~name:"BFS distances satisfy the triangle inequality" ~count:100
    QCheck.(triple (int_bound 64) (int_bound 64) (int_bound 64))
    (fun (a, b, c) ->
      let g = Devices.manhattan in
      Coupling.distance g a c <= Coupling.distance g a b + Coupling.distance g b c)

let prop_path_valid =
  QCheck.Test.make ~name:"shortest paths walk along edges" ~count:100
    QCheck.(pair (int_bound 64) (int_bound 64))
    (fun (a, b) ->
      let g = Devices.manhattan in
      let path = Coupling.shortest_path g a b in
      List.length path = Coupling.distance g a b + 1
      &&
      let rec ok = function
        | u :: (v :: _ as rest) -> Coupling.adjacent g u v && ok rest
        | _ -> true
      in
      ok path)

(* --- Layout --- *)

let test_layout_identity () =
  let l = Layout.identity 3 5 in
  check_int "phys of 2" 2 (Layout.phys l 2);
  check "log of 4 empty" true (Layout.log l 4 = None);
  check "log of 1" true (Layout.log l 1 = Some 1)

let test_layout_swap () =
  let l = Layout.identity 2 4 in
  Layout.swap_physical l 1 3;
  check_int "logical 1 moved" 3 (Layout.phys l 1);
  check "phys 1 now empty" true (Layout.log l 1 = None);
  Layout.swap_physical l 3 0;
  check_int "logical 1 moved again" 0 (Layout.phys l 1);
  check_int "logical 0 displaced" 3 (Layout.phys l 0)

let test_layout_most_connected () =
  let l = Layout.most_connected Devices.manhattan ~n_logical:10 in
  let positions = List.init 10 (Layout.phys l) in
  check_int "injective" 10 (List.length (List.sort_uniq Stdlib.compare positions));
  check_int "connected region" 1
    (List.length (Coupling_ref.subset_components Devices.manhattan positions))

let test_layout_validation () =
  Alcotest.check_raises "too many logical"
    (Invalid_argument "Layout.identity: too many logical qubits") (fun () ->
      ignore (Layout.identity 5 3));
  Alcotest.check_raises "not injective"
    (Invalid_argument "Layout.of_assignment: not injective") (fun () ->
      ignore (Layout.of_assignment ~n_physical:4 [| 1; 1 |]))

let prop_layout_swaps_keep_bijection =
  QCheck.Test.make ~name:"swap sequences keep the layout bijective" ~count:100
    QCheck.(list_of_size (Gen.int_bound 20) (pair (int_bound 7) (int_bound 7)))
    (fun swaps ->
      let l = Layout.identity 5 8 in
      List.iter (fun (a, b) -> if a <> b then Layout.swap_physical l a b) swaps;
      let positions = List.init 5 (Layout.phys l) in
      List.length (List.sort_uniq Stdlib.compare positions) = 5
      && List.for_all (fun q -> Layout.log l (Layout.phys l q) = Some q) (List.init 5 Fun.id))

(* --- Noise model --- *)

let test_esp_uniform () =
  let nm = Noise_model.uniform ~cnot:0.01 ~single:0.001 ~readout:0.0 () in
  let circuit = Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1) ] in
  Alcotest.(check (float 1e-9)) "esp" (0.999 *. 0.99) (Noise_model.esp nm circuit)

let test_esp_swap_counts_triple () =
  let nm = Noise_model.uniform ~cnot:0.01 ~single:0.0 ~readout:0.0 () in
  let swap = Circuit.of_gates 2 [ Gate.Swap (0, 1) ] in
  let three = Circuit.of_gates 2 [ Gate.Cnot (0, 1); Gate.Cnot (1, 0); Gate.Cnot (0, 1) ] in
  Alcotest.(check (float 1e-9)) "swap = 3 cnots"
    (Noise_model.esp nm three) (Noise_model.esp nm swap)

let test_calibrated_deterministic () =
  let nm1 = Noise_model.calibrated Devices.melbourne ~seed:7 () in
  let nm2 = Noise_model.calibrated Devices.melbourne ~seed:7 () in
  Alcotest.(check (float 1e-15)) "same seed same rates"
    (nm1.Noise_model.cnot_error 0 1) (nm2.Noise_model.cnot_error 0 1);
  check "rates vary across pairs" true
    (nm1.Noise_model.cnot_error 0 1 <> nm1.Noise_model.cnot_error 1 2
    || nm1.Noise_model.cnot_error 2 3 <> nm1.Noise_model.cnot_error 3 4)

let test_esp_untouched_qubits_no_readout () =
  let nm = Noise_model.uniform ~cnot:0.0 ~single:0.0 ~readout:0.5 () in
  let c = Circuit.of_gates 4 [ Gate.H 0 ] in
  Alcotest.(check (float 1e-9)) "only touched qubits read out" 0.5 (Noise_model.esp nm c)

let () =
  Alcotest.run "hardware"
    [
      ( "coupling",
        [
          Alcotest.test_case "create/dedup" `Quick test_create_dedup;
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "arc ids" `Quick test_arc_ids;
          Alcotest.test_case "distance and paths" `Quick test_distance_path;
          Alcotest.test_case "weighted paths" `Quick test_weighted_path;
          Alcotest.test_case "subset components" `Quick test_subset_components;
          Alcotest.test_case "scratch routines match list-based oracles" `Quick
            test_scratch_matches_ref;
          Alcotest.test_case "shortest-path tree matches per-pair Dijkstra" `Quick
            test_shortest_path_tree;
          Alcotest.test_case "densest subgraph" `Quick test_densest_subgraph;
          Alcotest.test_case "densest subgraph of k <= 0" `Quick test_densest_subgraph_empty;
          Alcotest.test_case "densest subgraph matches rescan oracle" `Quick
            test_densest_subgraph_matches_ref;
          Alcotest.test_case "bfs tree" `Quick test_bfs_tree;
          qcheck prop_distance_triangle;
          qcheck prop_path_valid;
        ] );
      ( "devices",
        [
          Alcotest.test_case "manhattan" `Quick test_manhattan;
          Alcotest.test_case "melbourne" `Quick test_melbourne;
          Alcotest.test_case "heavy-hex generator" `Quick test_heavy_hex;
        ] );
      ( "layout",
        [
          Alcotest.test_case "identity" `Quick test_layout_identity;
          Alcotest.test_case "swap tracking" `Quick test_layout_swap;
          Alcotest.test_case "most connected" `Quick test_layout_most_connected;
          Alcotest.test_case "validation" `Quick test_layout_validation;
          qcheck prop_layout_swaps_keep_bijection;
        ] );
      ( "noise",
        [
          Alcotest.test_case "uniform esp" `Quick test_esp_uniform;
          Alcotest.test_case "swap error" `Quick test_esp_swap_counts_triple;
          Alcotest.test_case "calibrated determinism" `Quick test_calibrated_deterministic;
          Alcotest.test_case "readout only on touched qubits" `Quick
            test_esp_untouched_qubits_no_readout;
        ] );
    ]
