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

let add_h b q = Circuit.Builder.add_code b (Circuit.code Circuit.H q q)
let add_rx b q theta = Circuit.Builder.add_rotation b (Circuit.code Circuit.Rx q q) theta
let add_cnot b c t = Circuit.Builder.add_code b (Circuit.code Circuit.Cnot c t)

let add_basis_in b op q =
  match op with
  | Pauli.X -> add_h b q
  | Pauli.Y -> add_rx b q half_pi
  | Pauli.Z | Pauli.I -> ()

let add_basis_out b op q =
  match op with
  | Pauli.X -> add_h b q
  | Pauli.Y -> add_rx b q minus_half_pi
  | Pauli.Z | Pauli.I -> ()

(* The basis change of [p]'s operator on [q], read from the plane bits:
   X (x only) enters and leaves through H, Y (x and z) through
   Rx(±π/2), Z and I need none. *)
let add_basis b p q y_angle =
  let w = Bits.word_of q and bit = Bits.bit_of q in
  if (Pauli_string.x_word p w lsr bit) land 1 = 1 then
    if (Pauli_string.z_word p w lsr bit) land 1 = 1 then add_rx b q y_angle else add_h b q

let invalid_order () = invalid_arg "Emit.emit_chain: order must enumerate the support"

(* [order] enumerates the support exactly when it has the support's
   size, every entry lies in the support and none repeats: one bitmask
   over the qubits, no sort. *)
let check_order p order =
  let n = Pauli_string.n_qubits p in
  if Array.length order <> Pauli_string.weight p then invalid_order ();
  let seen = Array.make (Bits.words_for n) 0 in
  for i = 0 to Array.length order - 1 do
    let q = order.(i) in
    if q < 0 || q >= n then invalid_order ();
    let w = Bits.word_of q and bit = 1 lsl Bits.bit_of q in
    if
      (Pauli_string.x_word p w lor Pauli_string.z_word p w) land bit = 0
      || seen.(w) land bit <> 0
    then invalid_order ();
    seen.(w) <- seen.(w) lor bit
  done

let chain_length p =
  let x = ref 0 in
  for w = 0 to Bits.words_for (Pauli_string.n_qubits p) - 1 do
    x := !x + Bits.popcount (Pauli_string.x_word p w)
  done;
  let k = Pauli_string.weight p in
  if k = 0 then 0 else (2 * !x) + (2 * (k - 1)) + 1

let emit_chain b p ~order ~theta =
  check_order p order;
  let k = Array.length order in
  if k > 0 then begin
    for i = 0 to k - 1 do
      add_basis b p order.(i) half_pi
    done;
    for i = 1 to k - 1 do
      add_cnot b order.(i - 1) order.(i)
    done;
    let root = order.(k - 1) in
    Circuit.Builder.add_rotation b (Circuit.code Circuit.Rz root root) theta;
    for i = k - 1 downto 1 do
      add_cnot b order.(i - 1) order.(i)
    done;
    for i = 0 to k - 1 do
      add_basis b p order.(i) minus_half_pi
    done
  end
