(* Reference implementation for the baseline and optimizer tests: the
   list-based [Symplectic.diagonalize] that conjugated every row through
   [Symplectic.conjugate] (one fresh string per row per Clifford gate),
   kept verbatim as the oracle for the flat in-place tableau that
   replaced it. *)

open Ph_pauli
open Ph_gatelevel
open Ph_baselines.Symplectic

let diagonalize strings =
  (match strings with
  | [] -> invalid_arg "Symplectic.diagonalize: empty set"
  | _ -> ());
  let rec pairwise = function
    | [] -> true
    | p :: rest -> List.for_all (Pauli_string.commutes p) rest && pairwise rest
  in
  if not (pairwise strings) then
    invalid_arg "Symplectic.diagonalize: strings do not commute";
  let rows = Array.of_list (List.map (fun p -> p, 0) strings) in
  let gates = ref [] in
  let apply g =
    gates := g :: !gates;
    Array.iteri (fun i row -> rows.(i) <- conjugate g row) rows
  in
  let x_support p =
    List.filter
      (fun q -> match Pauli_string.get p q with Pauli.X | Pauli.Y -> true | _ -> false)
      (Pauli_string.support p)
  in
  for r = 0 to Array.length rows - 1 do
    let row () = fst rows.(r) in
    match x_support (row ()) with
    | [] -> ()
    | pivot :: _ as xs ->
      (* Clear Ys on the X-support so CNOT folding stays clean. *)
      List.iter (fun j -> if Pauli_string.get (row ()) j = Pauli.Y then apply (Gate.S j)) xs;
      (* Fold the X-support onto the pivot. *)
      List.iter (fun j -> if j <> pivot then apply (Gate.Cnot (pivot, j))) xs;
      (* Clear leftover Zs with CZ = H·CNOT·H so a single X remains. *)
      List.iter
        (fun j ->
          if j <> pivot && Pauli_string.get (row ()) j = Pauli.Z then begin
            apply (Gate.H j);
            apply (Gate.Cnot (pivot, j));
            apply (Gate.H j)
          end)
        (Pauli_string.support (row ()));
      apply (Gate.H pivot);
      assert (is_diagonal (row ()))
  done;
  List.rev !gates, Array.to_list rows
