open Ph_pauli
open Ph_gatelevel

let xz_of_op = function
  | Pauli.I -> 0, 0
  | Pauli.X -> 1, 0
  | Pauli.Y -> 1, 1
  | Pauli.Z -> 0, 1

let op_of_xz = function
  | 0, 0 -> Pauli.I
  | 1, 0 -> Pauli.X
  | 1, 1 -> Pauli.Y
  | 0, 1 -> Pauli.Z
  | _ -> assert false

let half_pi = Float.pi /. 2.

(* Transform one signed string by g·P·g† using the standard symplectic
   update rules; sign flips are recorded as +2 on the i-power. *)
let conjugate g (p, k) =
  let n = Pauli_string.n_qubits p in
  let flip = ref 0 in
  let update1 q f =
    let x, z = xz_of_op (Pauli_string.get p q) in
    let (x', z'), flips = f (x, z) in
    if flips then flip := !flip + 2;
    Pauli_string.with_ops p [ q, op_of_xz (x', z') ]
  in
  let p' =
    match g with
    | Gate.H q -> update1 q (fun (x, z) -> (z, x), x land z = 1)
    | Gate.S q -> update1 q (fun (x, z) -> (x, x lxor z), x land z = 1)
    | Gate.Sdg q -> update1 q (fun (x, z) -> (x, x lxor z), x = 1 && z = 0)
    | Gate.X q -> update1 q (fun (x, z) -> (x, z), z = 1)
    | Gate.Y q -> update1 q (fun (x, z) -> (x, z), x lxor z = 1)
    | Gate.Z q -> update1 q (fun (x, z) -> (x, z), x = 1)
    | Gate.Rx (t, q) when abs_float (t -. half_pi) < 1e-9 ->
      update1 q (fun (x, z) -> (x lxor z, z), z = 1 && x = 0)
    | Gate.Rx (t, q) when abs_float (t +. half_pi) < 1e-9 ->
      update1 q (fun (x, z) -> (x lxor z, z), x land z = 1)
    | Gate.Cnot (c, t) ->
      let xc, zc = xz_of_op (Pauli_string.get p c) in
      let xt, zt = xz_of_op (Pauli_string.get p t) in
      if xc land zt land (xt lxor zc lxor 1) = 1 then flip := !flip + 2;
      Pauli_string.with_ops p
        [ c, op_of_xz (xc, zc lxor zt); t, op_of_xz (xt lxor xc, zt) ]
    | Gate.Swap (a, b) ->
      Pauli_string.make n (fun i ->
          if i = a then Pauli_string.get p b
          else if i = b then Pauli_string.get p a
          else Pauli_string.get p i)
    | Gate.Rz _ | Gate.Rx _ | Gate.Ry _ | Gate.Rxx _ ->
      invalid_arg (Printf.sprintf "Symplectic.conjugate: non-Clifford %s" (Gate.to_string g))
  in
  p', (k + !flip) land 3

let conjugate_list gates row = List.fold_left (fun r g -> conjugate g r) row gates

let is_diagonal p =
  List.for_all
    (fun q -> Pauli_string.get p q = Pauli.Z)
    (Pauli_string.support p)

(* A commuting class as one row-major bitplane tableau, the layout of
   [Pauli_frame]'s: row [r] is words [r·words, (r+1)·words) of the
   [xs]/[zs] planes and [sg.(r) ∈ {0, 2}] is its i-power.  H, S and
   CNOT rewrite one or two bits per row in place with exactly
   [conjugate]'s sign rules — no string per row per gate. *)
type tableau = {
  words : int;
  rows : int;
  xs : int array;
  zs : int array;
  sg : int array;
}

let flip t r = t.sg.(r) <- t.sg.(r) lxor 2

(* (x, z) -> (z, x); sign flips on Y *)
let apply_h t q =
  let w = Bits.word_of q and b = 1 lsl Bits.bit_of q in
  for r = 0 to t.rows - 1 do
    let o = (r * t.words) + w in
    let x = t.xs.(o) and z = t.zs.(o) in
    let xb = x land b and zb = z land b in
    if xb <> 0 && zb <> 0 then flip t r;
    t.xs.(o) <- x lxor xb lor zb;
    t.zs.(o) <- z lxor zb lor xb
  done

(* (x, z) -> (x, x xor z); sign flips on Y *)
let apply_s t q =
  let w = Bits.word_of q and b = 1 lsl Bits.bit_of q in
  for r = 0 to t.rows - 1 do
    let o = (r * t.words) + w in
    let xb = t.xs.(o) land b in
    if xb <> 0 && t.zs.(o) land b <> 0 then flip t r;
    t.zs.(o) <- t.zs.(o) lxor xb
  done

(* z_c ^= z_t, x_t ^= x_c; sign flips when x_c·z_t·(x_t ⊕ z_c ⊕ 1) *)
let apply_cnot t c tq =
  let wc = Bits.word_of c and bc = Bits.bit_of c in
  let wt = Bits.word_of tq and bt = Bits.bit_of tq in
  for r = 0 to t.rows - 1 do
    let oc = (r * t.words) + wc and ot = (r * t.words) + wt in
    let xc = (t.xs.(oc) lsr bc) land 1 and zc = (t.zs.(oc) lsr bc) land 1 in
    let xt = (t.xs.(ot) lsr bt) land 1 and zt = (t.zs.(ot) lsr bt) land 1 in
    if xc land zt land (xt lxor zc lxor 1) = 1 then flip t r;
    t.zs.(oc) <- t.zs.(oc) lxor (zt lsl bc);
    t.xs.(ot) <- t.xs.(ot) lxor (xc lsl bt)
  done

let has_x p =
  let words = Bits.words_for (Pauli_string.n_qubits p) in
  let rec any w = w < words && (Pauli_string.x_word p w <> 0 || any (w + 1)) in
  any 0

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
  if not (List.exists has_x strings) then [], List.map (fun p -> p, 0) strings
  else begin
    let n = Pauli_string.n_qubits (List.hd strings) in
    let words = Bits.words_for n and rows = List.length strings in
    let t =
      {
        words;
        rows;
        xs = Array.make (rows * words) 0;
        zs = Array.make (rows * words) 0;
        sg = Array.make rows 0;
      }
    in
    List.iteri (fun r p -> Pauli_string.blit_planes p t.xs t.zs (r * words)) strings;
    let gates = ref [] in
    let apply g =
      gates := g :: !gates;
      match g with
      | Gate.H q -> apply_h t q
      | Gate.S q -> apply_s t q
      | Gate.Cnot (c, tq) -> apply_cnot t c tq
      | _ -> assert false
    in
    let bit plane o q = (plane.(o + Bits.word_of q) lsr Bits.bit_of q) land 1 = 1 in
    (* The row's X-support (and, after folding, its support) as it
       stood before the gates that walk it. *)
    let snap = Array.make words 0 in
    let iter_snap f =
      for w = 0 to words - 1 do
        Bits.iter_bits (w * Bits.word_bits) snap.(w) f
      done
    in
    for r = 0 to rows - 1 do
      let o = r * words in
      Array.blit t.xs o snap 0 words;
      let rec first w =
        if w = words then -1 else if snap.(w) <> 0 then w else first (w + 1)
      in
      match first 0 with
      | -1 -> ()
      | w0 ->
        let pivot = (w0 * Bits.word_bits) + Bits.lowest_bit snap.(w0) in
        (* Clear Ys on the X-support so CNOT folding stays clean. *)
        iter_snap (fun j -> if bit t.zs o j then apply (Gate.S j));
        (* Fold the X-support onto the pivot. *)
        iter_snap (fun j -> if j <> pivot then apply (Gate.Cnot (pivot, j)));
        (* Clear leftover Zs with CZ = H·CNOT·H so a single X remains. *)
        for w = 0 to words - 1 do
          snap.(w) <- t.xs.(o + w) lor t.zs.(o + w)
        done;
        iter_snap (fun j ->
            if j <> pivot && (not (bit t.xs o j)) && bit t.zs o j then begin
              apply (Gate.H j);
              apply (Gate.Cnot (pivot, j));
              apply (Gate.H j)
            end);
        apply (Gate.H pivot);
        for w = 0 to words - 1 do
          assert (t.xs.(o + w) = 0)
        done
    done;
    ( List.rev !gates,
      List.init rows (fun r -> Pauli_string.of_planes n t.xs t.zs (r * words), t.sg.(r)) )
  end

type group = {
  clifford : Gate.t list;
  rows : (Pauli_string.t * Pauli_string.t * float) list;
}

let diagonalize_group strings =
  let clifford, diags = diagonalize strings in
  let rows =
    List.map2
      (fun p (diag, phase) -> p, diag, if phase = 0 then 1. else -1.)
      strings diags
  in
  { clifford; rows }
