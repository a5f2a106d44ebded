open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel

let synthesize prog =
  let b = Circuit.Builder.create (Program.n_qubits prog) in
  let rotations = ref [] in
  List.iter
    (fun (blk : Block.t) ->
      List.iter
        (fun (t : Pauli_term.t) ->
          let theta = Emit.angle (Block.param blk) t.coeff in
          if not (Pauli_string.is_identity t.str) then begin
            Emit.emit_chain b t.str ~order:(Array.of_list (Pauli_string.support t.str)) ~theta;
            rotations := (t.str, theta) :: !rotations
          end)
        (Block.terms blk))
    (Program.blocks prog);
  { Emit.circuit = Circuit.Builder.to_circuit b; rotations = List.rev !rotations }
