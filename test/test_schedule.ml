open Ph_pauli
open Ph_pauli_ir
open Ph_schedule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck = QCheck_alcotest.to_alcotest

let term s w = Pauli_term.make (Pauli_string.of_string s) w

let single s = Block.make [ term s 1.0 ] (Block.fixed 0.5)

let prog_of blocks = Program.make (Block.n_qubits (List.hd blocks)) blocks

let strings_of_layers layers =
  List.concat_map
    (fun l ->
      List.concat_map
        (fun b ->
          List.map
            (fun (t : Pauli_term.t) -> Pauli_string.to_string t.str)
            (Block.terms b))
        l.Layer.blocks)
    layers

(* --- Layer --- *)

let test_layer_accessors () =
  let l = Layer.make [ single "ZZII"; single "IIXX" ] in
  Alcotest.(check string) "leader" "ZZII"
    (Pauli_string.to_string (Block.representative (Layer.leader l)).str);
  check_int "padding size" 1 (List.length (Layer.padding l));
  Alcotest.(check (list int)) "active" [ 0; 1; 2; 3 ] (Layer.active_qubits l)

let test_est_depth () =
  (* weight-3 string: 2*(3-1)+1 = 5 *)
  check_int "weight-3 depth" 5 (Layer.est_block_depth (single "ZZZI"));
  check_int "weight-1 depth" 1 (Layer.est_block_depth (single "IIIZ"))

let test_overlap_with_tail () =
  let l = Layer.make [ single "ZZII" ] in
  check_int "overlap" 2 (Layer.overlap_with_tail l (single "ZZXI"));
  check_int "no overlap" 0 (Layer.overlap_with_tail l (single "IIXX"))

(* --- GCO --- *)

let test_gco_order () =
  let prog = prog_of [ single "IIZ"; single "XII"; single "ZII"; single "YII" ] in
  let layers = Gco.schedule prog in
  Alcotest.(check (list string)) "lex order (X<Y<Z<I, high qubit first)"
    [ "XII"; "YII"; "ZII"; "IIZ" ]
    (strings_of_layers layers)

let test_gco_sorts_within_block () =
  let b = Block.make [ term "ZII" 1.0; term "XII" 1.0 ] (Block.fixed 1.0) in
  let layers = Gco.schedule (prog_of [ b ]) in
  Alcotest.(check (list string)) "terms sorted" [ "XII"; "ZII" ] (strings_of_layers layers)

let test_gco_singleton_layers () =
  let prog = prog_of [ single "ZZI"; single "IZZ" ] in
  check "every layer singleton" true
    (List.for_all (fun l -> List.length l.Layer.blocks = 1) (Gco.schedule prog))

(* --- Depth-oriented --- *)

let test_do_active_length_order () =
  let prog = prog_of [ single "IIIZ"; single "ZZZZ"; single "IZZI" ] in
  let layers = Depth_oriented.schedule prog in
  match layers with
  | first :: _ ->
    Alcotest.(check string) "largest first" "ZZZZ"
      (Pauli_string.to_string (Block.representative (Layer.leader first)).str)
  | [] -> Alcotest.fail "no layers"

let test_do_pads_disjoint_blocks () =
  (* A large block on q4..7 and small blocks on q0..1 can share a layer. *)
  let big =
    Block.make
      [ term "ZZZZIIII" 1.0; term "ZZZYIIII" 1.0; term "XZZXIIII" 1.0 ]
      (Block.fixed 1.0)
  in
  let small1 = single "IIIIIIZZ" in
  let small2 = single "IIIIIIXX" in
  let layers = Depth_oriented.schedule (prog_of [ big; small1; small2 ]) in
  match layers with
  | first :: _ ->
    check "padding happened" true (List.length first.Layer.blocks > 1);
    let leader_active = Block.active_qubits (Layer.leader first) in
    List.iter
      (fun b ->
        check "padding disjoint from leader" true
          (not
             (List.exists
                (fun q -> List.mem q leader_active)
                (Block.active_qubits b))))
      (Layer.padding first)
  | [] -> Alcotest.fail "no layers"

let test_do_padding_ablation () =
  let prog = prog_of [ single "ZZZZIIII"; single "IIIIIIZZ" ] in
  let layers = Depth_oriented.schedule ~padding:false prog in
  check "no padding when ablated" true
    (List.for_all (fun l -> List.length l.Layer.blocks = 1) layers)

let test_do_stats () =
  let big =
    Block.make
      [ term "ZZZZIIII" 1.0; term "ZZZYIIII" 1.0; term "XZZXIIII" 1.0 ]
      (Block.fixed 1.0)
  in
  let prog = prog_of [ big; single "IIIIIIZZ"; single "IIIIIIXX" ] in
  let layers, stats = Depth_oriented.schedule_stats prog in
  Alcotest.(check int) "stats.layers = layer count"
    (List.length layers) stats.Depth_oriented.layers;
  (* every block is placed exactly once: one leader per layer, the rest
     as padding *)
  Alcotest.(check int) "leaders + padded cover the program"
    (Program.block_count prog)
    (stats.Depth_oriented.layers + stats.Depth_oriented.padded);
  check "padding counted" true (stats.Depth_oriented.padded > 0);
  let _, no_pad = Depth_oriented.schedule_stats ~padding:false prog in
  Alcotest.(check int) "ablated padding counts zero" 0 no_pad.Depth_oriented.padded

let test_do_respects_budget () =
  (* The small blocks' estimated depth must stay below the leader's. *)
  let big = Block.make [ term "ZZZIII" 1.0 ] (Block.fixed 1.0) in
  (* leader depth 5; each small candidate has depth 3: only one fits. *)
  let s1 = single "IIIZZI" and s2 = single "IIIIZZ" in
  let layers = Depth_oriented.schedule (prog_of [ big; s1; s2 ]) in
  match layers with
  | first :: _ ->
    let pad_depth =
      List.fold_left (fun a b -> a + Layer.est_block_depth b) 0 (Layer.padding first)
    in
    check "padding within budget" true
      (pad_depth < Layer.est_block_depth (Layer.leader first))
  | [] -> Alcotest.fail "no layers"

(* Random programs: both schedulers are permutations of the input. *)
let gen_blocks n =
  QCheck.Gen.(
    let gen_str =
      map
        (fun ops ->
          let s = Pauli_string.of_ops (Array.of_list ops) in
          if Pauli_string.is_identity s then Pauli_string.of_support n [ 0, Pauli.Z ] else s)
        (list_repeat n (oneofl Pauli.all))
    in
    list_size (int_range 1 12)
      (map2
         (fun s w -> Block.make [ Pauli_term.make s (0.1 +. w) ] (Block.fixed 0.7))
         gen_str (float_bound_inclusive 1.)))

let prop_gco_permutation =
  QCheck.Test.make ~name:"GCO preserves the block multiset" ~count:60
    (QCheck.make (gen_blocks 5))
    (fun blocks ->
      let prog = prog_of blocks in
      Program.same_multiset prog (Gco.run prog))

let prop_do_permutation =
  QCheck.Test.make ~name:"DO preserves the block multiset" ~count:60
    (QCheck.make (gen_blocks 5))
    (fun blocks ->
      let prog = prog_of blocks in
      Program.same_multiset prog (Depth_oriented.run prog))

let prop_do_layers_disjoint =
  QCheck.Test.make ~name:"DO padding is always disjoint from its leader" ~count:60
    (QCheck.make (gen_blocks 6))
    (fun blocks ->
      let layers = Depth_oriented.schedule (prog_of blocks) in
      List.for_all
        (fun l ->
          let leader_active = Block.active_qubits (Layer.leader l) in
          List.for_all
            (fun b ->
              not
                (List.exists (fun q -> List.mem q leader_active) (Block.active_qubits b)))
            (Layer.padding l))
        layers)

let prop_gco_sorted =
  QCheck.Test.make ~name:"GCO output is lexicographically sorted" ~count:60
    (QCheck.make (gen_blocks 5))
    (fun blocks ->
      let layers = Gco.schedule (prog_of blocks) in
      let reps =
        List.map (fun l -> (Block.representative (Layer.leader l)).str) layers
      in
      let rec sorted = function
        | a :: (b :: _ as rest) -> Pauli_string.compare_lex a b <= 0 && sorted rest
        | _ -> true
      in
      sorted reps)

(* --- Max-overlap (TSP-style) scheduling --- *)

let test_maxov_chains_overlap () =
  (* ZZI then IZZ overlap on q1; XXI overlaps neither strongly: the chain
     should keep the overlapping pair adjacent. *)
  let prog = prog_of [ single "XXI"; single "IZZ"; single "ZZI" ] in
  let order = strings_of_layers (Max_overlap.schedule prog) in
  let index s = Option.get (List.find_index (String.equal s) order) in
  check "ZZI next to IZZ" true (abs (index "ZZI" - index "IZZ") = 1)

let prop_maxov_permutation =
  QCheck.Test.make ~name:"max-overlap preserves the block multiset" ~count:60
    (QCheck.make (gen_blocks 5))
    (fun blocks ->
      let prog = prog_of blocks in
      Program.same_multiset prog (Max_overlap.run prog))

(* Greedy chaining is not per-instance monotone, but over a seeded
   sample it must accumulate more consecutive overlap than the original
   program order. *)
let test_maxov_aggregate_overlap () =
  let total prog =
    let strs =
      List.map
        (fun b -> (Block.representative b).Pauli_term.str)
        (Program.blocks prog)
    in
    let rec go acc = function
      | a :: (b :: _ as rest) -> go (acc + Pauli_string.overlap a b) rest
      | _ -> acc
    in
    go 0 strs
  in
  let rand = Random.State.make [| 17 |] in
  let gen = gen_blocks 6 in
  let chained = ref 0 and original = ref 0 in
  for _ = 1 to 40 do
    let prog = prog_of (gen rand) in
    chained := !chained + total (Max_overlap.run prog);
    original := !original + total prog
  done;
  check
    (Printf.sprintf "aggregate overlap %d >= %d" !chained !original)
    true
    (!chained >= !original)

(* --- Arena parity: the pr8 list-based schedulers kept as oracle --- *)

(* Verbatim copies of the pre-arena [Depth_oriented.schedule_stats] and
   [Max_overlap.schedule] (perf-counter bumps stripped): the reference
   the structure-of-arrays rewrite must match layer-for-layer on every
   input.  Do not "modernize" these — their value is being the old
   code. *)
module Oracle = struct
  let do_schedule ?rank ?(padding = true)
      ?(window = Depth_oriented.default_window) prog =
    let blocks =
      List.map (Block.sort_terms_lex ?rank) (Program.blocks prog)
      |> List.stable_sort (fun a b ->
             let c =
               Stdlib.compare (Block.active_length b) (Block.active_length a)
             in
             if c <> 0 then c
             else
               Pauli_term.compare_lex ?rank (Block.representative a)
                 (Block.representative b))
      |> Array.of_list
    in
    let m = Array.length blocks in
    let n = Program.n_qubits prog in
    let active = Array.map Block.active_set blocks in
    let depth = Array.map Layer.est_block_depth blocks in
    let head =
      Array.map (fun b -> (Block.representative b).Pauli_term.str) blocks
    in
    let tail = Array.map (fun b -> (Block.last_term b).Pauli_term.str) blocks in
    let alive = Array.make m true in
    let n_alive = ref m in
    let first_alive = ref 0 in
    let advance () =
      while !first_alive < m && not alive.(!first_alive) do
        incr first_alive
      done
    in
    let take i =
      alive.(i) <- false;
      decr n_alive;
      advance ()
    in
    let scan_alive f =
      let visited = ref 0 in
      let i = ref !first_alive in
      while !i < m && !visited < window do
        if alive.(!i) then begin
          incr visited;
          f !i
        end;
        incr i
      done;
      !visited
    in
    let layers = ref [] in
    let last_tails = ref [] in
    let load = Array.make n 0 in
    while !n_alive > 0 do
      let leader_idx =
        match !last_tails with
        | [] -> !first_alive
        | tails ->
          let best = ref !first_alive and best_ov = ref (-1) in
          ignore
            (scan_alive (fun i ->
                 let ov =
                   List.fold_left
                     (fun acc t -> max acc (Pauli_string.overlap t head.(i)))
                     0 tails
                 in
                 if ov > !best_ov then begin
                   best_ov := ov;
                   best := i
                 end));
          !best
      in
      let leader = blocks.(leader_idx) in
      let occupied = active.(leader_idx) in
      take leader_idx;
      let chosen = ref [ leader ] in
      let tails = ref [ tail.(leader_idx) ] in
      if padding && !n_alive > 0 then begin
        let budget = depth.(leader_idx) in
        let touched = ref [] in
        ignore
          (scan_alive (fun i ->
               let qs = active.(i) in
               let current = Qubit_set.max_over qs load in
               if
                 current + depth.(i) <= budget
                 && Qubit_set.disjoint occupied qs
               then begin
                 Qubit_set.set_over qs load (current + depth.(i));
                 touched := qs :: !touched;
                 chosen := blocks.(i) :: !chosen;
                 tails := tail.(i) :: !tails;
                 take i
               end));
        List.iter (fun qs -> Qubit_set.set_over qs load 0) !touched
      end;
      last_tails := !tails;
      layers := Layer.make (List.rev !chosen) :: !layers
    done;
    List.rev !layers

  let maxov_schedule ?rank ?(window = Depth_oriented.default_window) prog =
    let blocks =
      List.map (Block.sort_terms_lex ?rank) (Program.blocks prog)
      |> List.stable_sort (fun a b ->
             Pauli_term.compare_lex ?rank (Block.representative a)
               (Block.representative b))
      |> Array.of_list
    in
    let m = Array.length blocks in
    let alive = Array.make m true in
    let first_alive = ref 0 in
    let advance () =
      while !first_alive < m && not alive.(!first_alive) do
        incr first_alive
      done
    in
    let last_string (b : Block.t) = (Block.last_term b).Pauli_term.str in
    let out = ref [] in
    let tail = ref None in
    for _ = 1 to m do
      let best = ref (-1) and best_ov = ref (-1) in
      let visited = ref 0 in
      let i = ref !first_alive in
      while !i < m && !visited < window do
        if alive.(!i) then begin
          incr visited;
          let ov =
            match !tail with
            | None -> 0
            | Some t ->
              Pauli_string.overlap t
                (Block.representative blocks.(!i)).Pauli_term.str
          in
          if ov > !best_ov then begin
            best_ov := ov;
            best := !i
          end
        end;
        incr i
      done;
      let chosen = !best in
      alive.(chosen) <- false;
      advance ();
      tail := Some (last_string blocks.(chosen));
      out := blocks.(chosen) :: !out
    done;
    List.rev_map Layer.of_block !out
end

(* Layer lists as nested term-string lists: equal structures mean the
   same blocks, in the same order, in the same layers, with the same
   in-block term order. *)
let layer_strings layers =
  List.map
    (fun l ->
      List.map
        (fun b ->
          List.map
            (fun (t : Pauli_term.t) -> Pauli_string.to_string t.Pauli_term.str)
            (Block.terms b))
        l.Layer.blocks)
    layers

(* PR 8 schedule certificates (digests of every layer's leader and
   padding blocks): structural equality covers everything the layer
   strings might miss — qubit masks, depth estimates, coefficients. *)
let certificate prog layers =
  Ph_analysis.Certificate.build ~n_qubits:(Program.n_qubits prog) ~cnot:0
    ~single:0 ~depth:0
    (List.map (fun l -> l.Layer.blocks) layers)

let check_parity ~what ?window ?(jobs = [ 1 ]) prog =
  let old_do = Oracle.do_schedule ?window prog in
  let old_mo = Oracle.maxov_schedule ?window prog in
  List.iter
    (fun j ->
      let what = if j = 1 then what else Printf.sprintf "%s (jobs %d)" what j in
      let new_do = Depth_oriented.schedule ?window ~jobs:j prog in
      check (what ^ ": DO layers identical") true
        (layer_strings old_do = layer_strings new_do);
      check (what ^ ": DO certificates identical") true
        (certificate prog old_do = certificate prog new_do);
      let new_mo = Max_overlap.schedule ?window ~jobs:j prog in
      check (what ^ ": maxov layers identical") true
        (layer_strings old_mo = layer_strings new_mo);
      check (what ^ ": maxov certificates identical") true
        (certificate prog old_mo = certificate prog new_mo))
    jobs

let test_arena_parity_table2 () =
  List.iter
    (fun (b : Ph_benchmarks.Suite.t) ->
      check_parity ~what:b.Ph_benchmarks.Suite.name
        (b.Ph_benchmarks.Suite.generate ()))
    (Ph_benchmarks.Suite.ft () @ Ph_benchmarks.Suite.sc ())

let test_arena_parity_fuzz () =
  let rand = Random.State.make [| 4243 |] in
  let gen = gen_blocks 6 in
  for case = 1 to 500 do
    let prog = prog_of (gen rand) in
    (* alternate a tiny window in so truncation paths get exercised *)
    let window = if case mod 3 = 0 then Some 4 else None in
    check_parity ~what:(Printf.sprintf "fuzz case %d" case) ?window prog
  done

(* A random string of weight 1-[max_weight] on [n] qubits. *)
let sparse_string rand ~max_weight n =
  Pauli_string.of_support n
    (List.init
       (1 + Random.State.int rand max_weight)
       (fun _ ->
         ( Random.State.int rand n,
           List.nth [ Pauli.X; Pauli.Y; Pauli.Z ] (Random.State.int rand 3) )))

(* The fused leader scan serves every plane width, so check it where
   rows span several words: the 64- and 128-qubit scale programs; a
   256-qubit program of short strings, whose wide padded layers push
   the DO leader scans over the parallel-dispatch threshold (the scale
   programs almost never cross it); and random programs of 63-130
   qubits mixing dense strings (busy overlap kernel) with sparse ones
   (padding fits), some under a tiny window — each sequentially and
   with the parallel scan enabled. *)
let test_arena_parity_wide () =
  List.iter
    (fun (b : Ph_benchmarks.Suite.t) ->
      if List.mem b.Ph_benchmarks.Suite.name [ "UCCSD-64"; "UCCSD-128"; "Rand-64"; "Rand-128" ]
      then
        check_parity ~what:b.Ph_benchmarks.Suite.name ~jobs:[ 1; 4 ]
          (b.Ph_benchmarks.Suite.generate ()))
    (Ph_benchmarks.Suite.scale ());
  let rand = Random.State.make [| 1616 |] in
  let par_scans () =
    List.assoc "sched_par_scans" (Ph_perf.Counter.totals_assoc ())
  in
  let before = par_scans () in
  check_parity ~what:"short strings 256q" ~jobs:[ 1; 4 ]
    (Program.make 256
       (List.init 1200 (fun _ ->
            Block.make
              [ Pauli_term.make (sparse_string rand ~max_weight:4 256) 0.5 ]
              (Block.fixed 0.7))));
  check "short strings 256q: parallel scans ran" true (par_scans () > before);
  for case = 1 to 100 do
    let n = 63 + Random.State.int rand 68 in
    let dense = gen_blocks n in
    let blocks =
      List.init
        (1 + Random.State.int rand 40)
        (fun _ ->
          if Random.State.bool rand then List.hd (dense rand)
          else
            Block.make
              (List.init
                 (1 + Random.State.int rand 3)
                 (fun _ -> Pauli_term.make (sparse_string rand ~max_weight:6 n) 0.5))
              (Block.fixed 0.7))
    in
    let window = if case mod 3 = 0 then Some 4 else None in
    check_parity
      ~what:(Printf.sprintf "wide fuzz case %d (%dq)" case n)
      ?window ~jobs:[ 1; 4 ] (Program.make n blocks)
  done

(* The padding scan carries most of DO's time on ft-chem-sized inputs,
   so check the fit test there too: same layers, certificates and
   padded counts as the oracle, and the recorded number of padding
   probes — the fit test's conjunct order must not change how many
   candidates are probed. *)
let test_arena_parity_ft_chem () =
  List.iter
    (fun (what, prog, probes) ->
      check_parity ~what prog;
      let old_do = Oracle.do_schedule prog in
      let before = Ph_perf.Counter.snapshot () in
      let _, stats = Depth_oriented.schedule_stats prog in
      let after = Ph_perf.Counter.snapshot () in
      check_int (what ^ ": padded count")
        (List.length (List.concat_map (fun l -> l.Layer.blocks) old_do)
        - List.length old_do)
        stats.Depth_oriented.padded;
      check_int (what ^ ": padding probes") probes
        (List.assoc "sched_padding_probes"
           (Ph_perf.Counter.compile_assoc ~before ~after)))
    [
      ( "molecule 28q/3000",
        Ph_benchmarks.Molecule.synthetic ~n_qubits:28 ~target_strings:3000 (),
        979_855 );
      ( "random 40q/0.5",
        Ph_benchmarks.Random_h.program ~density:0.5 ~n_qubits:40 (),
        213_481 );
    ]

(* Parallel scans must be invisible: same layers at any jobs count, with
   the window shrunk so the scan actually partitions. *)
let test_arena_jobs_identical () =
  let prog =
    (Ph_benchmarks.Suite.find "MgO").Ph_benchmarks.Suite.generate ()
  in
  let base = layer_strings (Depth_oriented.schedule ~jobs:1 prog) in
  List.iter
    (fun jobs ->
      check
        (Printf.sprintf "DO layers at jobs=%d" jobs)
        true
        (layer_strings (Depth_oriented.schedule ~jobs prog) = base))
    [ 2; 4; 8 ];
  let mo = layer_strings (Max_overlap.schedule ~jobs:1 prog) in
  check "maxov layers at jobs=4" true
    (layer_strings (Max_overlap.schedule ~jobs:4 prog) = mo)

let () =
  Alcotest.run "schedule"
    [
      ( "layer",
        [
          Alcotest.test_case "accessors" `Quick test_layer_accessors;
          Alcotest.test_case "depth estimate" `Quick test_est_depth;
          Alcotest.test_case "tail overlap" `Quick test_overlap_with_tail;
        ] );
      ( "gco",
        [
          Alcotest.test_case "lexicographic order" `Quick test_gco_order;
          Alcotest.test_case "in-block sorting" `Quick test_gco_sorts_within_block;
          Alcotest.test_case "singleton layers" `Quick test_gco_singleton_layers;
          qcheck prop_gco_permutation;
          qcheck prop_gco_sorted;
        ] );
      ( "depth_oriented",
        [
          Alcotest.test_case "active-length order" `Quick test_do_active_length_order;
          Alcotest.test_case "pads disjoint blocks" `Quick test_do_pads_disjoint_blocks;
          Alcotest.test_case "padding ablation" `Quick test_do_padding_ablation;
          Alcotest.test_case "depth budget" `Quick test_do_respects_budget;
          Alcotest.test_case "stats cover the program" `Quick test_do_stats;
          qcheck prop_do_permutation;
          qcheck prop_do_layers_disjoint;
        ] );
      ( "max_overlap",
        [
          Alcotest.test_case "chains overlapping blocks" `Quick test_maxov_chains_overlap;
          qcheck prop_maxov_permutation;
          Alcotest.test_case "aggregate overlap gain" `Quick test_maxov_aggregate_overlap;
        ] );
      ( "arena_parity",
        [
          Alcotest.test_case "table-2 suites vs pr8 oracle" `Quick
            test_arena_parity_table2;
          Alcotest.test_case "500-case fuzz vs pr8 oracle" `Quick
            test_arena_parity_fuzz;
          Alcotest.test_case "ft-chem-scale padding vs pr8 oracle" `Quick
            test_arena_parity_ft_chem;
          Alcotest.test_case "multi-word widths vs list oracle" `Quick
            test_arena_parity_wide;
          Alcotest.test_case "layers identical across jobs" `Quick
            test_arena_jobs_identical;
        ] );
    ]
