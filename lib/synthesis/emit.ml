open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel

type result = {
  circuit : Circuit.t;
  rotations : (Pauli_string.t * float) list;
}

let angle (param : Block.param) w = 2. *. w *. param.value

let half_pi = Float.pi /. 2.
let minus_half_pi = -.half_pi

let add_basis_in b op q =
  match op with
  | Pauli.X -> Circuit.Builder.add b (Gate.H q)
  | Pauli.Y -> Circuit.Builder.add b (Gate.Rx (half_pi, q))
  | Pauli.Z | Pauli.I -> ()

let add_basis_out b op q =
  match op with
  | Pauli.X -> Circuit.Builder.add b (Gate.H q)
  | Pauli.Y -> Circuit.Builder.add b (Gate.Rx (minus_half_pi, q))
  | Pauli.Z | Pauli.I -> ()

let emit_chain b p ~order ~theta =
  let support = Pauli_string.support p in
  if List.sort Stdlib.compare order <> support then
    invalid_arg "Emit.emit_chain: order must enumerate the support";
  match order with
  | [] -> ()
  | first :: _ ->
    List.iter (fun q -> add_basis_in b (Pauli_string.get p q) q) order;
    let rec cnots prev = function
      | [] -> prev
      | q :: rest ->
        Circuit.Builder.add b (Gate.Cnot (prev, q));
        cnots q rest
    in
    let root = cnots first (List.tl order) in
    Circuit.Builder.add b (Gate.Rz (theta, root));
    let rec rev_cnots = function
      | a :: (c :: _ as rest) ->
        rev_cnots rest;
        Circuit.Builder.add b (Gate.Cnot (a, c))
      | [ _ ] | [] -> ()
    in
    rev_cnots order;
    List.iter (fun q -> add_basis_out b (Pauli_string.get p q) q) order
