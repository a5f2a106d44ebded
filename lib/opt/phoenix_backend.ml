(* Backend emission for the Phoenix scheduling family: per group, the
   Clifford frame enters, the diagonal blocks synthesize through the
   standard FT backend (whose tree-sharing now sees a whole frame's
   worth of Z-rotations at once), and the frame mirrors out.  The
   rotation trace is rewritten back to the original strings via the
   group's rows, so the Pauli-frame verifier — which reconstructs the
   conjugation through the bracket — checks it unchanged. *)

open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_schedule
open Ph_synthesis
module Tbl = Hashtbl.Make (Pauli_string)

let emittable_layers blocks =
  List.filter_map
    (fun b ->
      if
        List.exists
          (fun (t : Pauli_term.t) -> not (Pauli_string.is_identity t.Pauli_term.str))
          (Block.terms b)
      then Some (Layer.of_block b)
      else None)
    blocks

(* Every group's diagonal circuit is synthesized first, so that the
   frame-wrapped whole is built in buffers of its exact size. *)
let synthesize_ft ~n_qubits (pass : Pass.t) =
  let parts =
    List.filter_map
      (fun (g : Pass.group) ->
        match emittable_layers g.Pass.blocks with
        | [] -> None
        | layers -> Some (g, Ft_backend.synthesize ~n_qubits layers))
      pass.Pass.groups
  in
  let capacity =
    List.fold_left
      (fun acc ((g : Pass.group), r) ->
        acc + (2 * List.length g.Pass.clifford) + Circuit.length r.Emit.circuit)
      0 parts
  in
  let builder = Circuit.Builder.create ~capacity n_qubits in
  let rotations = ref [] in
  List.iter
    (fun ((g : Pass.group), r) ->
      (* diag → (original, sign); lookups only, never iterated *)
      let origin = Tbl.create 16 in
      List.iter (fun (orig, diag, sign) -> Tbl.replace origin diag (orig, sign)) g.Pass.rows;
      Circuit.Builder.add_list builder g.Pass.clifford;
      Circuit.Builder.append builder r.Emit.circuit;
      List.iter
        (fun (diag, theta) ->
          match Tbl.find_opt origin diag with
          | Some (orig, sign) -> rotations := (orig, sign *. theta) :: !rotations
          | None -> invalid_arg "Phoenix_backend: emitted rotation missing from rows")
        r.Emit.rotations;
      List.iter
        (fun gate -> Circuit.Builder.add builder (Gate.dagger gate))
        (List.rev g.Pass.clifford))
    parts;
  {
    Emit.circuit = Circuit.Builder.to_circuit builder;
    rotations = List.rev !rotations;
  }

(* SC: the all-to-all Phoenix circuit routes through the generic
   lookahead router (the role SABRE plays for the TK/naive baselines);
   Clifford frames and diagonal trees alike become coupling-legal, and
   the logical trace carries through for frame verification against the
   router's layouts.  A noise model, when present, only disables
   caching upstream — routing here is distance-driven. *)
let synthesize_sc ~coupling ~n_qubits (pass : Pass.t) =
  let r = synthesize_ft ~n_qubits pass in
  let routed = Ph_baselines.Router.route ~coupling r.Emit.circuit in
  {
    Sc_backend.circuit = routed.Ph_baselines.Router.circuit;
    rotations = r.Emit.rotations;
    initial_layout = routed.Ph_baselines.Router.initial_layout;
    final_layout = routed.Ph_baselines.Router.final_layout;
    swaps = Circuit.swap_count routed.Ph_baselines.Router.circuit;
  }
