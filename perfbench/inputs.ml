(* Seeded workload generation.  Every workload is a pure function of the
   seed; the program under test only ever sees the rendered [.pauli]
   text (plus the parameter bindings a [phc compile --param] call would
   pass), never the generator's [Program.t]. *)

open Paulihedral
open Ph_pauli_ir
open Ph_benchmarks

(* One compile job, in the terms of [phc compile] / a serve request. *)
type item = {
  name : string;
  text : string;
  params : (string * float) list;
  backend : string;  (** "ft" | "sc" *)
  device : string;  (** SC device spec; "manhattan" *)
  schedule : Config.schedule;
  analyze : bool;
}

let render ?(backend = "ft") ?(schedule = Config.Depth_oriented) ?(analyze = false)
    name prog =
  let params =
    List.filter_map
      (fun b ->
        match (Block.param b).Block.label with
        | Some l -> Some (l, (Block.param b).Block.value)
        | None -> None)
      (Program.blocks prog)
  in
  {
    name;
    text = Parser.to_text prog;
    params;
    backend;
    device = "manhattan";
    schedule;
    analyze;
  }

let config_of item =
  match
    Ph_serve.Protocol.config_for ~analyze:item.analyze ~backend:item.backend
      ~device:item.device ~schedule:item.schedule ~lint:Lint.Diag.Off
      ~window:Config.default_window ()
  with
  | Ok c -> c
  | Error (`Msg m) -> failwith m

let config_name item =
  Ph_serve.Protocol.config_name ~backend:item.backend ~device:item.device
    ~schedule:item.schedule

let rng seed salt = Random.State.make [| seed; salt |]
let pick st xs = List.nth xs (Random.State.int st (List.length xs))
let between st lo hi = lo + Random.State.int st (hi - lo + 1)
let sub_seed st = Random.State.bits st

(* Sizes are fixed per workload and the seed draws only the content
   (strings, coefficients, excitation subsamples, graphs, distances), so
   the suite's cost and the output sizes stay comparable across seeds. *)

(* ft-chem: molecule-like and random Hamiltonians of 20-50 qubits on the
   FT backend under DO scheduling — the schedule layer's arena scans and
   Pauli kernel carry most of the compile time here. *)
let ft_chem seed =
  let st = rng seed 1 in
  let molecules =
    List.map
      (fun (n, strings) ->
        render
          (Printf.sprintf "mol-%dq-%d" n strings)
          (Molecule.synthetic ~seed:(sub_seed st) ~n_qubits:n
             ~target_strings:strings ()))
      [ 20, 1500; 28, 3000; 36, 6000 ]
  in
  let randoms =
    List.map
      (fun n ->
        render
          (Printf.sprintf "rand-%dq" n)
          (Random_h.program ~seed:(sub_seed st) ~density:0.5 ~n_qubits:n ()))
      [ 30; 40; 50 ]
  in
  molecules @ randoms

(* ft-wide: 64-256-qubit UCCSD (capped excitations) and random
   Hamiltonians on the FT backend, each under DO and under phoenix. *)
let ft_wide seed =
  let st = rng seed 2 in
  let uccsd =
    List.map
      (fun (n, cap) ->
        ( Printf.sprintf "uccsd-%dq" n,
          Uccsd.ansatz ~seed:(sub_seed st) ~max_singles:cap ~max_doubles:cap
            ~n_qubits:n () ))
      [ 64, 150; 96, 120 ]
  in
  let randoms =
    List.mapi
      (fun i (n, strings) ->
        ( Printf.sprintf "rand%d-%dq-%d" i n strings,
          Random_h.program ~seed:(sub_seed st)
            ~density:(float_of_int strings /. float_of_int (n * n))
            ~n_qubits:n () ))
      [ 128, 80; 128, 80; 192, 60; 256, 40 ]
  in
  List.concat_map
    (fun (name, prog) ->
      [
        render ~schedule:Config.Depth_oriented (name ^ "/do") prog;
        render ~schedule:Config.Phoenix_like (name ^ "/phoenix") prog;
      ])
    (uccsd @ randoms)

(* sc-route: the SC backend on Manhattan-65 under DO — tree embedding,
   SWAP routing and SWAP decomposition.  Four seeded instances of each
   shape keep the suite's cost and geomeans steady across seeds. *)
let sc_route seed =
  let st = rng seed 3 in
  let sc = render ~backend:"sc" in
  let instance k =
    let uccsd =
      List.map
        (fun (n, cap) ->
          sc
            (Printf.sprintf "uccsd-%dq.%d" n k)
            (Uccsd.ansatz ~seed:(sub_seed st) ?max_doubles:cap ~n_qubits:n ()))
        [ 8, None; 12, Some 100; 16, Some 120 ]
    in
    let regular =
      List.map
        (fun d ->
          sc
            (Printf.sprintf "reg-20-%d.%d" d k)
            (Qaoa.maxcut (Graphs.regular ~seed:(sub_seed st) 20 d) ~gamma:0.6))
        [ 4; 8 ]
    in
    let erdos =
      List.map
        (fun p ->
          sc
            (Printf.sprintf "er-20-%g.%d" p k)
            (Qaoa.maxcut (Graphs.erdos_renyi ~seed:(sub_seed st) 20 p) ~gamma:0.6))
        [ 0.3; 0.5 ]
    in
    let tsp =
      List.map
        (fun n ->
          sc (Printf.sprintf "tsp-%d.%d" n k) (Qaoa.tsp ~seed:(sub_seed st) n ~gamma:0.6))
        [ 4; 5 ]
    in
    uccsd @ regular @ erdos @ tsp
  in
  List.concat_map instance [ 0; 1; 2; 3 ]

(* serve-mix request pool: small programs over FT/SC x GCO/DO/phoenix,
   about a fifth of them with the analyzer on.  Programs cycle through a
   fixed list of shapes (backend, schedule, family, size, analyzer) in a
   seeded order, so every stretch of the stream has the same mix and the
   seed only draws the content. *)
let serve_shapes =
  List.concat_map
    (fun backend ->
      List.concat_map
        (fun schedule ->
          List.map (fun family -> backend, schedule, family) [ `Rand; `Mol; `Reg ])
        [ Config.Gco; Config.Depth_oriented; Config.Phoenix_like ])
    [ "ft"; "sc" ]
  |> List.mapi (fun k (b, s, f) -> b, s, f, k mod 5 = 0)
  |> Array.of_list

let serve_program st i (backend, schedule, family, analyze) =
  let name, prog =
    match family with
    | `Rand ->
      let n = between st 5 7 in
      ( Printf.sprintf "p%d-rand-%dq" i n,
        Random_h.program ~seed:(sub_seed st) ~density:0.5 ~n_qubits:n () )
    | `Mol ->
      let n = 2 * between st 4 5 in
      let strings = between st 20 40 in
      ( Printf.sprintf "p%d-mol-%dq" i n,
        Molecule.synthetic ~seed:(sub_seed st) ~n_qubits:n ~target_strings:strings () )
    | `Reg ->
      let n = 2 * between st 3 5 in
      ( Printf.sprintf "p%d-reg-%d" i n,
        Qaoa.maxcut (Graphs.regular ~seed:(sub_seed st) n 3) ~gamma:0.6 )
  in
  render ~backend ~schedule ~analyze name prog

let serve_pool ?(salt = 4) seed n =
  let st = rng seed salt in
  let k = Array.length serve_shapes in
  let order = Array.init k Fun.id in
  Array.init n (fun i ->
      if i mod k = 0 then
        for j = k - 1 downto 1 do
          let r = Random.State.int st (j + 1) in
          let t = order.(j) in
          order.(j) <- order.(r);
          order.(r) <- t
        done;
      serve_program st i serve_shapes.(order.(i mod k)))

(* MD5 over every rendered job, so a seed's inputs can be pinned. *)
let digest items =
  let b = Buffer.create 4096 in
  List.iter
    (fun it ->
      Buffer.add_string b it.name;
      Buffer.add_char b '\n';
      Buffer.add_string b (config_name it);
      Buffer.add_char b (if it.analyze then 'A' else '-');
      Buffer.add_string b it.text;
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s=%h;" k v))
        it.params)
    items;
  Digest.to_hex (Digest.string (Buffer.contents b))
