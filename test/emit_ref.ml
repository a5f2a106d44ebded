(* Reference implementation for the emission tests: the boxed gate
   builder (a growable [Gate.t] array), the basis changes and the
   list-ordered [emit_chain] with its sort-based order check, kept
   verbatim as the oracle the flat-code emitters must match code for
   code.  [Ft_backend_ref] and [Sc_backend_ref] emit through it. *)

open Ph_pauli
open Ph_gatelevel

module Builder = struct
  type t = { n : int; mutable buf : Gate.t array; mutable len : int }

  let create n = { n; buf = Array.make 64 (Gate.H 0); len = 0 }

  let n_qubits b = b.n

  let add b g =
    if b.len = Array.length b.buf then begin
      let buf = Array.make (2 * b.len) (Gate.H 0) in
      Array.blit b.buf 0 buf 0 b.len;
      b.buf <- buf
    end;
    b.buf.(b.len) <- g;
    b.len <- b.len + 1

  let add_list b gs = List.iter (add b) gs

  let length b = b.len

  let to_circuit b =
    Ph_perf.Counter.add Ph_perf.Counter.circuit_gates_built b.len;
    Circuit.of_gates b.n (Array.to_list (Array.sub b.buf 0 b.len))

  let append b c = Array.iter (add b) (Circuit.gates c)
end

let half_pi = Float.pi /. 2.
let minus_half_pi = -.half_pi

let add_basis_in b op q =
  match op with
  | Pauli.X -> Builder.add b (Gate.H q)
  | Pauli.Y -> Builder.add b (Gate.Rx (half_pi, q))
  | Pauli.Z | Pauli.I -> ()

let add_basis_out b op q =
  match op with
  | Pauli.X -> Builder.add b (Gate.H q)
  | Pauli.Y -> Builder.add b (Gate.Rx (minus_half_pi, q))
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
        Builder.add b (Gate.Cnot (prev, q));
        cnots q rest
    in
    let root = cnots first (List.tl order) in
    Builder.add b (Gate.Rz (theta, root));
    let rec rev_cnots = function
      | a :: (c :: _ as rest) ->
        rev_cnots rest;
        Builder.add b (Gate.Cnot (a, c))
      | [ _ ] | [] -> ()
    in
    rev_cnots order;
    List.iter (fun q -> add_basis_out b (Pauli_string.get p q) q) order

(* A circuit as plain data — qubit count, codes and the bits of every
   angle — so that [=] compares code for code and angle for angle to
   the bit (which tells [-0.] from [0.]). *)
let flat c =
  let angles = Circuit.angles c in
  ( Circuit.n_qubits c,
    Array.copy (Circuit.codes c),
    Array.init (Float.Array.length angles) (fun i ->
        Int64.bits_of_float (Float.Array.get angles i)) )

let same_circuit a b = flat a = flat b
