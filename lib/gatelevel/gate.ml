open Ph_linalg

type t =
  | H of int
  | X of int
  | Y of int
  | Z of int
  | S of int
  | Sdg of int
  | Rz of float * int
  | Rx of float * int
  | Ry of float * int
  | Cnot of int * int
  | Swap of int * int
  | Rxx of float * int * int

let qubits = function
  | H q | X q | Y q | Z q | S q | Sdg q | Rz (_, q) | Rx (_, q) | Ry (_, q) -> [ q ]
  | Cnot (a, b) | Swap (a, b) | Rxx (_, a, b) -> [ a; b ]

let is_two_qubit = function
  | Cnot _ | Swap _ | Rxx _ -> true
  | H _ | X _ | Y _ | Z _ | S _ | Sdg _ | Rz _ | Rx _ | Ry _ -> false

let dagger = function
  | (H _ | X _ | Y _ | Z _ | Cnot _ | Swap _) as g -> g
  | S q -> Sdg q
  | Sdg q -> S q
  | Rz (a, q) -> Rz (-.a, q)
  | Rx (a, q) -> Rx (-.a, q)
  | Ry (a, q) -> Ry (-.a, q)
  | Rxx (a, p, q) -> Rxx (-.a, p, q)

let equal a b =
  match a, b with
  | H p, H q | X p, X q | Y p, Y q | Z p, Z q | S p, S q | Sdg p, Sdg q -> p = q
  | Rz (t, p), Rz (u, q) | Rx (t, p), Rx (u, q) | Ry (t, p), Ry (u, q) -> p = q && t = u
  | Cnot (a1, b1), Cnot (a2, b2) | Swap (a1, b1), Swap (a2, b2) -> a1 = a2 && b1 = b2
  | Rxx (t, a1, b1), Rxx (u, a2, b2) -> t = u && a1 = a2 && b1 = b2
  | ( ( H _ | X _ | Y _ | Z _ | S _ | Sdg _ | Rz _ | Rx _ | Ry _ | Cnot _
      | Swap _ | Rxx _ ),
      _ ) ->
    false

(* Direct operand matches: [equal (dagger a) b] without building the
   dagger — the peephole asks this of every same-qubit candidate. *)
let cancels a b =
  match a, b with
  | H p, H q | X p, X q | Y p, Y q | Z p, Z q | S p, Sdg q | Sdg p, S q -> p = q
  | Rz (t, p), Rz (u, q) | Rx (t, p), Rx (u, q) | Ry (t, p), Ry (u, q) ->
    p = q && t = -.u
  | Cnot (a1, b1), Cnot (a2, b2) -> a1 = a2 && b1 = b2
  | Swap (a1, b1), Swap (a2, b2) -> (a1 = a2 && b1 = b2) || (a1 = b2 && b1 = a2)
  | Rxx (t, a1, b1), Rxx (u, a2, b2) ->
    t = -.u && ((a1 = a2 && b1 = b2) || (a1 = b2 && b1 = a2))
  | ( ( H _ | X _ | Y _ | Z _ | S _ | Sdg _ | Rz _ | Rx _ | Ry _ | Cnot _
      | Swap _ | Rxx _ ),
      _ ) ->
    false

(* Diagonal-in-Z gates commute among themselves on any qubits and with CNOT
   controls; X-axis gates commute with CNOT targets. *)
let diagonal = function
  | Z _ | S _ | Sdg _ | Rz _ -> true
  | H _ | X _ | Y _ | Rx _ | Ry _ | Cnot _ | Swap _ | Rxx _ -> false

let x_axis = function
  | X _ | Rx _ | Rxx _ -> true
  | H _ | Y _ | Z _ | S _ | Sdg _ | Rz _ | Ry _ | Cnot _ | Swap _ -> false

let touches g q =
  match g with
  | H p | X p | Y p | Z p | S p | Sdg p | Rz (_, p) | Rx (_, p) | Ry (_, p) -> p = q
  | Cnot (a, b) | Swap (a, b) | Rxx (_, a, b) -> a = q || b = q

let disjoint a b =
  match a with
  | H q | X q | Y q | Z q | S q | Sdg q | Rz (_, q) | Rx (_, q) | Ry (_, q) ->
    not (touches b q)
  | Cnot (p, q) | Swap (p, q) | Rxx (_, p, q) -> not (touches b p || touches b q)

(* Case by case over operands, allocating nothing; the truth table is
   that of "disjoint, or one of the syntactic commutation rules". *)
let commutes a b =
  match a, b with
  | Cnot (c1, t1), Cnot (c2, t2) -> t1 <> c2 && c1 <> t2
  | Rxx _, Rxx _ ->
    (* both act as X on every shared qubit *)
    true
  | Rxx (_, p, q), Cnot (c, _) | Cnot (c, _), Rxx (_, p, q) ->
    (* commutes when the only shared qubit is the CNOT target (X-side) *)
    c <> p && c <> q
  | Swap _, _ | _, Swap _ -> disjoint a b
  | Rxx (_, p, q), g | g, Rxx (_, p, q) ->
    (* [g] is single-qubit from here on *)
    x_axis g || not (touches g p || touches g q)
  | g, Cnot (c, t) | Cnot (c, t), g ->
    not (touches g c || touches g t)
    || (diagonal g && touches g c)
    || (x_axis g && touches g t)
  | g, h -> disjoint g h || (diagonal g && diagonal h) || (x_axis g && x_axis h)

let matrix1 g : Cplx.t array =
  let c x : Cplx.t = { re = x; im = 0. } in
  let ci x : Cplx.t = { re = 0.; im = x } in
  match g with
  | H _ ->
    let s = 1. /. sqrt 2. in
    [| c s; c s; c s; c (-.s) |]
  | X _ -> [| c 0.; c 1.; c 1.; c 0. |]
  | Y _ -> [| c 0.; ci (-1.); ci 1.; c 0. |]
  | Z _ -> [| c 1.; c 0.; c 0.; c (-1.) |]
  | S _ -> [| c 1.; c 0.; c 0.; ci 1. |]
  | Sdg _ -> [| c 1.; c 0.; c 0.; ci (-1.) |]
  | Rz (t, _) -> [| Cplx.exp_i (-.t /. 2.); c 0.; c 0.; Cplx.exp_i (t /. 2.) |]
  | Rx (t, _) ->
    let co = cos (t /. 2.) and si = sin (t /. 2.) in
    [| c co; ci (-.si); ci (-.si); c co |]
  | Ry (t, _) ->
    let co = cos (t /. 2.) and si = sin (t /. 2.) in
    [| c co; c (-.si); c si; c co |]
  | Cnot _ | Swap _ | Rxx _ -> invalid_arg "Gate.matrix1: two-qubit gate"

let remap f = function
  | H q -> H (f q)
  | X q -> X (f q)
  | Y q -> Y (f q)
  | Z q -> Z (f q)
  | S q -> S (f q)
  | Sdg q -> Sdg (f q)
  | Rz (t, q) -> Rz (t, f q)
  | Rx (t, q) -> Rx (t, f q)
  | Ry (t, q) -> Ry (t, f q)
  | Cnot (a, b) -> Cnot (f a, f b)
  | Swap (a, b) -> Swap (f a, f b)
  | Rxx (t, a, b) -> Rxx (t, f a, f b)

let to_string = function
  | H q -> Printf.sprintf "h q%d" q
  | X q -> Printf.sprintf "x q%d" q
  | Y q -> Printf.sprintf "y q%d" q
  | Z q -> Printf.sprintf "z q%d" q
  | S q -> Printf.sprintf "s q%d" q
  | Sdg q -> Printf.sprintf "sdg q%d" q
  | Rz (t, q) -> Printf.sprintf "rz(%g) q%d" t q
  | Rx (t, q) -> Printf.sprintf "rx(%g) q%d" t q
  | Ry (t, q) -> Printf.sprintf "ry(%g) q%d" t q
  | Cnot (a, b) -> Printf.sprintf "cx q%d, q%d" a b
  | Swap (a, b) -> Printf.sprintf "swap q%d, q%d" a b
  | Rxx (t, a, b) -> Printf.sprintf "rxx(%g) q%d, q%d" t a b

let pp fmt g = Format.pp_print_string fmt (to_string g)
