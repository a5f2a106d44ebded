(* Reference implementation for the verifier tests: the boxed
   Pauli-frame tableau ([Pauli_string.mul] per row product, one
   [(string, i-power)] pair per row) and the scan-every-entry
   [normalize], kept verbatim as oracles for the flat in-place tableau
   and the hash-guarded normal form that replaced them. *)

open Ph_pauli
open Ph_gatelevel
open Ph_verify

type tableau = {
  n : int;
  zs : (Pauli_string.t * int) array; (* D(Z_q) as (string, i-power) *)
  xs : (Pauli_string.t * int) array;
}

let create n =
  {
    n;
    zs = Array.init n (fun q -> Pauli_string.of_support n [ q, Pauli.Z ], 0);
    xs = Array.init n (fun q -> Pauli_string.of_support n [ q, Pauli.X ], 0);
  }

(* (S1, k1)·(S2, k2) with an extra i^extra factor.  Since the strings
   are symplectic bitplanes, one row multiply is a word-parallel XOR of
   both planes plus a popcount-derived phase — the tableau replay costs
   O(gates · n/word_bits) instead of O(gates · n). *)
let row_mul ?(extra = 0) (s1, k1) (s2, k2) =
  let k, s = Pauli_string.mul s1 s2 in
  s, (k1 + k2 + k + extra) land 3

let check_hermitian (s, k) =
  if k land 1 <> 0 then invalid_arg "Pauli_frame: non-Hermitian row";
  s, k

(* Rotation angles reduced to (−π, π]; merged Clifford rotations can
   arrive as any multiple of π/2. *)
let canonical theta =
  let two_pi = 2. *. Float.pi in
  let t = Float.rem theta two_pi in
  if t > Float.pi +. 1e-9 then t -. two_pi
  else if t <= -.Float.pi -. 1e-9 then t +. two_pi
  else t

let near x y = abs_float (x -. y) < 1e-9

let flip (s, k) = s, (k + 2) land 3

(* D'(P) = D(g† P g): rewrite each basis generator on g's qubits. *)
let apply_gate t g =
  match g with
  | Gate.H q ->
    let z = t.zs.(q) in
    t.zs.(q) <- t.xs.(q);
    t.xs.(q) <- z
  | Gate.S q ->
    (* S† X S = -Y = -i·X·Z *)
    t.xs.(q) <- check_hermitian (row_mul ~extra:3 t.xs.(q) t.zs.(q))
  | Gate.Sdg q ->
    (* S X S† = Y = i·X·Z *)
    t.xs.(q) <- check_hermitian (row_mul ~extra:1 t.xs.(q) t.zs.(q))
  | Gate.X q ->
    let s, k = t.zs.(q) in
    t.zs.(q) <- s, (k + 2) land 3
  | Gate.Z q ->
    let s, k = t.xs.(q) in
    t.xs.(q) <- s, (k + 2) land 3
  | Gate.Y q ->
    let sz, kz = t.zs.(q) in
    t.zs.(q) <- sz, (kz + 2) land 3;
    let sx, kx = t.xs.(q) in
    t.xs.(q) <- sx, (kx + 2) land 3
  | Gate.Cnot (c, tq) ->
    (* X_c → X_c X_t and Z_t → Z_c Z_t *)
    t.xs.(c) <- check_hermitian (row_mul t.xs.(c) t.xs.(tq));
    t.zs.(tq) <- check_hermitian (row_mul t.zs.(c) t.zs.(tq))
  | Gate.Swap (a, b) ->
    let za = t.zs.(a) and xa = t.xs.(a) in
    t.zs.(a) <- t.zs.(b);
    t.xs.(a) <- t.xs.(b);
    t.zs.(b) <- za;
    t.xs.(b) <- xa
  | Gate.Rx (theta, q) when near (canonical theta) (Float.pi /. 2.) ->
    (* Rx(π/2)† Z Rx(π/2) = Y = i·X·Z *)
    t.zs.(q) <- check_hermitian (row_mul ~extra:1 t.xs.(q) t.zs.(q))
  | Gate.Rx (theta, q) when near (canonical theta) (-.Float.pi /. 2.) ->
    (* Rx(−π/2)† Z Rx(−π/2) = −Y = −i·X·Z *)
    t.zs.(q) <- check_hermitian (row_mul ~extra:3 t.xs.(q) t.zs.(q))
  | Gate.Rx (theta, q) when near (abs_float (canonical theta)) Float.pi ->
    (* ≐ X up to phase *)
    t.zs.(q) <- flip t.zs.(q)
  | Gate.Ry (theta, q) when near (canonical theta) (Float.pi /. 2.) ->
    (* c† X c = Z and c† Z c = −X *)
    let x = t.xs.(q) in
    t.xs.(q) <- t.zs.(q);
    t.zs.(q) <- flip x
  | Gate.Ry (theta, q) when near (canonical theta) (-.Float.pi /. 2.) ->
    (* c† X c = −Z and c† Z c = X *)
    let x = t.xs.(q) in
    t.xs.(q) <- flip t.zs.(q);
    t.zs.(q) <- x
  | Gate.Ry (theta, q) when near (abs_float (canonical theta)) Float.pi ->
    (* ≐ Y up to phase *)
    t.xs.(q) <- flip t.xs.(q);
    t.zs.(q) <- flip t.zs.(q)
  | Gate.Rxx (theta, a, b) when near (canonical theta) (Float.pi /. 2.) ->
    (* c† Z_a c = +Y_a X_b and symmetrically for b; X rows unchanged. *)
    let za' = check_hermitian (row_mul (row_mul ~extra:1 t.xs.(a) t.zs.(a)) t.xs.(b)) in
    let zb' = check_hermitian (row_mul (row_mul ~extra:1 t.xs.(b) t.zs.(b)) t.xs.(a)) in
    t.zs.(a) <- za';
    t.zs.(b) <- zb'
  | Gate.Rxx (theta, a, b) when near (canonical theta) (-.Float.pi /. 2.) ->
    (* c† Z_a c = −Y_a X_b. *)
    let za' = check_hermitian (row_mul (row_mul ~extra:3 t.xs.(a) t.zs.(a)) t.xs.(b)) in
    let zb' = check_hermitian (row_mul (row_mul ~extra:3 t.xs.(b) t.zs.(b)) t.xs.(a)) in
    t.zs.(a) <- za';
    t.zs.(b) <- zb'
  | Gate.Rxx (theta, a, b) when near (abs_float (canonical theta)) Float.pi ->
    (* ≐ X_a X_b up to phase *)
    t.zs.(a) <- flip t.zs.(a);
    t.zs.(b) <- flip t.zs.(b)
  | Gate.Rz _ | Gate.Rx _ | Gate.Ry _ | Gate.Rxx _ ->
    invalid_arg (Printf.sprintf "Pauli_frame: non-Clifford gate %s" (Gate.to_string g))

let extract circuit =
  let t = create (Circuit.n_qubits circuit) in
  let rotations = ref [] in
  Array.iter
    (fun g ->
      match g with
      | Gate.Rz (theta, q) ->
        let s, k = t.zs.(q) in
        let sign = if k land 3 = 0 then 1. else -1. in
        rotations := (s, sign *. theta) :: !rotations
      | Gate.Rxx (theta, a, b)
        when (let c = canonical theta in
              not (near (abs_float c) (Float.pi /. 2.) || near (abs_float c) Float.pi)) ->
        (* native two-qubit rotation: effective Pauli is D(X_a X_b) *)
        let s, k = row_mul t.xs.(a) t.xs.(b) in
        if k land 1 <> 0 then invalid_arg "Pauli_frame: non-Hermitian rotation";
        let sign = if k land 3 = 0 then 1. else -1. in
        rotations := (s, sign *. theta) :: !rotations
      | g -> apply_gate t g)
    (Circuit.gates circuit);
  List.rev !rotations,
  { Pauli_frame.z_images = Array.copy t.zs; x_images = Array.copy t.xs }

let zero_angle theta = abs_float theta <= 1e-12

let normalize rotations =
  let out = ref [] in
  (* [out] is kept in reverse order; entries are mutable angle refs. *)
  List.iter
    (fun (p, theta) ->
      if not (zero_angle theta) then begin
        let rec merge = function
          | [] -> None
          | (q, angle) :: rest ->
            if Pauli_string.equal p q then Some angle
            else if zero_angle !angle then merge rest
            else if Pauli_string.commutes p q then merge rest
            else None
        in
        match merge !out with
        | Some angle -> angle := !angle +. theta
        | None -> out := (p, ref theta) :: !out
      end)
    rotations;
  List.rev_map (fun (p, angle) -> p, !angle) !out
  |> List.filter (fun (_, theta) -> not (zero_angle theta))
