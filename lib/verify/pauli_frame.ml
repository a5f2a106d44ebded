open Ph_pauli
open Ph_gatelevel

type residue = {
  z_images : (Pauli_string.t * int) array;
  x_images : (Pauli_string.t * int) array;
}

(* The Clifford prefix's conjugation images as one flat tableau: row
   [r] is words [r·words, (r+1)·words) of the [xs]/[zs] planes, with
   i-power [ph.(r)]; [zrow.(q)]/[xrow.(q)] name the rows holding
   D(Z_q)/D(X_q).  H, SWAP and Ry(±π/2) therefore only permute row
   indices, X/Y/Z only flip phases, and a row product runs in place —
   no string or tuple per gate.  Row [scratch] (initially [2n]) takes
   the products that must not overwrite a live row yet.  [muls] counts
   row products; {!charge} books them as [pauli_mul] kernel calls in
   one counter access instead of one per product. *)
type tableau = {
  words : int;
  xs : int array;
  zs : int array;
  ph : int array;
  zrow : int array;
  xrow : int array;
  mutable scratch : int;
  mutable muls : int;
}

let create n =
  let words = Bits.words_for n in
  let rows = (2 * n) + 1 in
  let t =
    {
      words;
      xs = Array.make (rows * words) 0;
      zs = Array.make (rows * words) 0;
      ph = Array.make rows 0;
      zrow = Array.init n Fun.id;
      xrow = Array.init n (fun q -> n + q);
      scratch = 2 * n;
      muls = 0;
    }
  in
  for q = 0 to n - 1 do
    let w = Bits.word_of q and b = 1 lsl Bits.bit_of q in
    t.zs.((q * words) + w) <- b;
    t.xs.(((n + q) * words) + w) <- b
  done;
  t

(* Row [dst] <- i^extra · row [a] · row [b], where [dst] may be [a] or
   [b]: each word is read before it is written.  The phase is
   [Pauli_string.mul]'s — writing each operator as
   P(x,z) = i^{x·z}·X^x·Z^z, the product's i-power is
   x₁z₁ + x₂z₂ + 2·z₁x₂ − (x₁⊕x₂)(z₁⊕z₂) summed over qubits — plus both
   rows' own i-powers, and the kernel counts as one [pauli_mul]. *)
let mul_rows t ~extra dst a b =
  let words = t.words and xs = t.xs and zs = t.zs in
  t.muls <- t.muls + 1;
  let oa = a * words and ob = b * words and od = dst * words in
  let phase = ref (t.ph.(a) + t.ph.(b) + extra) in
  for w = 0 to words - 1 do
    let x1 = Array.unsafe_get xs (oa + w) and z1 = Array.unsafe_get zs (oa + w) in
    let x2 = Array.unsafe_get xs (ob + w) and z2 = Array.unsafe_get zs (ob + w) in
    let x = x1 lxor x2 and z = z1 lxor z2 in
    phase :=
      !phase
      + Bits.popcount (x1 land z1)
      + Bits.popcount (x2 land z2)
      + (2 * Bits.popcount (z1 land x2))
      - Bits.popcount (x land z);
    Array.unsafe_set xs (od + w) x;
    Array.unsafe_set zs (od + w) z
  done;
  t.ph.(dst) <- !phase land 3

(* What [Counter.kernel_op pauli_mul ~words ~pops:(4 * words)] per
   product would have added. *)
let charge t =
  let open Ph_perf.Counter in
  if t.muls > 0 then begin
    add pauli_mul t.muls;
    add pauli_words (t.muls * t.words);
    add pauli_popcounts (4 * t.muls * t.words)
  end

let check_hermitian t row =
  if t.ph.(row) land 1 <> 0 then invalid_arg "Pauli_frame: non-Hermitian row"

let flip t row = t.ph.(row) <- (t.ph.(row) + 2) land 3

let row_string t row =
  Pauli_string.of_planes (Array.length t.zrow) t.xs t.zs (row * t.words)

(* Rotation angles reduced to (−π, π]; merged Clifford rotations can
   arrive as any multiple of π/2. *)
let canonical theta =
  let two_pi = 2. *. Float.pi in
  let t = Float.rem theta two_pi in
  if t > Float.pi +. 1e-9 then t -. two_pi
  else if t <= -.Float.pi -. 1e-9 then t +. two_pi
  else t

let near x y = abs_float (x -. y) < 1e-9

(* Rxx(±π/2): c† Z_a c = ±Y_a X_b = ±i·X_a·Z_a·X_b and symmetrically
   for b, both from the old rows; X rows are unchanged.  Z_a's image
   goes to the scratch row first, which then swaps in as [zrow.(a)]. *)
let rxx_quarter t ~extra a b =
  let za' = t.scratch and zb = t.zrow.(b) in
  mul_rows t ~extra za' t.xrow.(a) t.zrow.(a);
  mul_rows t ~extra:0 za' za' t.xrow.(b);
  check_hermitian t za';
  mul_rows t ~extra zb t.xrow.(b) zb;
  mul_rows t ~extra:0 zb zb t.xrow.(a);
  check_hermitian t zb;
  t.scratch <- t.zrow.(a);
  t.zrow.(a) <- za'

let non_clifford g =
  invalid_arg (Printf.sprintf "Pauli_frame: non-Clifford gate %s" (Gate.to_string g))

(* D'(P) = D(g† P g): rewrite each basis generator on g's qubits
   (Rz and Rxx are handled by [extract]). *)
let apply_gate t g =
  match g with
  | Gate.H q ->
    let z = t.zrow.(q) in
    t.zrow.(q) <- t.xrow.(q);
    t.xrow.(q) <- z
  | Gate.S q ->
    (* S† X S = -Y = -i·X·Z *)
    let x = t.xrow.(q) in
    mul_rows t ~extra:3 x x t.zrow.(q);
    check_hermitian t x
  | Gate.Sdg q ->
    (* S X S† = Y = i·X·Z *)
    let x = t.xrow.(q) in
    mul_rows t ~extra:1 x x t.zrow.(q);
    check_hermitian t x
  | Gate.X q -> flip t t.zrow.(q)
  | Gate.Z q -> flip t t.xrow.(q)
  | Gate.Y q ->
    flip t t.zrow.(q);
    flip t t.xrow.(q)
  | Gate.Cnot (c, tq) ->
    (* X_c → X_c X_t and Z_t → Z_c Z_t *)
    let xc = t.xrow.(c) and xt = t.xrow.(tq) in
    mul_rows t ~extra:0 xc xc xt;
    check_hermitian t xc;
    let zc = t.zrow.(c) and zt = t.zrow.(tq) in
    mul_rows t ~extra:0 zt zc zt;
    check_hermitian t zt
  | Gate.Swap (a, b) ->
    let za = t.zrow.(a) and xa = t.xrow.(a) in
    t.zrow.(a) <- t.zrow.(b);
    t.xrow.(a) <- t.xrow.(b);
    t.zrow.(b) <- za;
    t.xrow.(b) <- xa
  | Gate.Rx (theta, q) ->
    let c = canonical theta in
    if near c (Float.pi /. 2.) then begin
      (* Rx(π/2)† Z Rx(π/2) = Y = i·X·Z *)
      let z = t.zrow.(q) in
      mul_rows t ~extra:1 z t.xrow.(q) z;
      check_hermitian t z
    end
    else if near c (-.Float.pi /. 2.) then begin
      (* Rx(−π/2)† Z Rx(−π/2) = −Y = −i·X·Z *)
      let z = t.zrow.(q) in
      mul_rows t ~extra:3 z t.xrow.(q) z;
      check_hermitian t z
    end
    else if near (abs_float c) Float.pi then
      (* ≐ X up to phase *)
      flip t t.zrow.(q)
    else non_clifford g
  | Gate.Ry (theta, q) ->
    let c = canonical theta in
    if near c (Float.pi /. 2.) then begin
      (* c† X c = Z and c† Z c = −X *)
      let x = t.xrow.(q) in
      t.xrow.(q) <- t.zrow.(q);
      t.zrow.(q) <- x;
      flip t x
    end
    else if near c (-.Float.pi /. 2.) then begin
      (* c† X c = −Z and c† Z c = X *)
      let z = t.zrow.(q) in
      t.zrow.(q) <- t.xrow.(q);
      t.xrow.(q) <- z;
      flip t z
    end
    else if near (abs_float c) Float.pi then begin
      (* ≐ Y up to phase *)
      flip t t.xrow.(q);
      flip t t.zrow.(q)
    end
    else non_clifford g
  | Gate.Rz _ | Gate.Rxx _ -> non_clifford g

(* An Rxx is a Clifford at ±π/2 and π; any other angle is a native
   rotation whose effective Pauli is D(X_a X_b). *)
let apply_rxx t rotation theta a b =
  let c = canonical theta in
  if near c (Float.pi /. 2.) then rxx_quarter t ~extra:1 a b
  else if near c (-.Float.pi /. 2.) then rxx_quarter t ~extra:3 a b
  else if near (abs_float c) Float.pi then begin
    (* ≐ X_a X_b up to phase *)
    flip t t.zrow.(a);
    flip t t.zrow.(b)
  end
  else begin
    let s = t.scratch in
    mul_rows t ~extra:0 s t.xrow.(a) t.xrow.(b);
    if t.ph.(s) land 1 <> 0 then invalid_arg "Pauli_frame: non-Hermitian rotation";
    rotation s theta
  end

(* A string is allocated per extracted rotation and, once at the end,
   per residue row — never per gate. *)
let extract circuit =
  let t = create (Circuit.n_qubits circuit) in
  let rotations = ref [] in
  let rotation row theta =
    let sign = if t.ph.(row) land 3 = 0 then 1. else -1. in
    rotations := (row_string t row, sign *. theta) :: !rotations
  in
  Fun.protect
    ~finally:(fun () -> charge t)
    (fun () ->
      Array.iter
        (fun g ->
          match g with
          | Gate.Rz (theta, q) -> rotation t.zrow.(q) theta
          | Gate.Rxx (theta, a, b) -> apply_rxx t rotation theta a b
          | g -> apply_gate t g)
        (Circuit.gates circuit));
  let image row = row_string t row, t.ph.(row) in
  ( List.rev !rotations,
    { z_images = Array.map image t.zrow; x_images = Array.map image t.xrow } )

let single_support s =
  match Pauli_string.support s with [ q ] -> Some q | _ -> None

let residue_permutation r =
  let n = Array.length r.z_images in
  let perm = Array.make n (-1) in
  let ok = ref true in
  for q = 0 to n - 1 do
    let zs, zk = r.z_images.(q) in
    let xs, _xk = r.x_images.(q) in
    match single_support zs, single_support xs with
    | Some zq, Some xq
      when zq = xq && zk = 0
           && Pauli_string.get zs zq = Pauli.Z
           && Pauli_string.get xs xq = Pauli.X ->
      (* D(Z_q) = C† Z_q C = Z_zq means C moves data from position zq to
         position q: report the data-movement direction. *)
      perm.(zq) <- q
    | _ -> ok := false
  done;
  if not !ok then None
  else begin
    (* must be a bijection *)
    let seen = Array.make n false in
    Array.iter (fun p -> if p >= 0 && p < n then seen.(p) <- true) perm;
    if Array.for_all Fun.id seen then Some perm else None
  end

let same_rotation (s1, t1) (s2, t2) =
  Pauli_string.equal s1 s2 && abs_float (t1 -. t2) < 1e-9

(* Normal form of a rotation sequence: each rotation merges into the
   nearest earlier rotation with the same Pauli when everything in
   between commutes with it (the Pauli-level counterpart of the peephole
   optimizer's commutation-aware Rz merging); zero-angle rotations are
   dropped.  A ~zero-angle rotation is the identity, so it is skipped on
   input and treated as transparent during the merge scan — otherwise a
   claimed zero rotation (e.g. from a zero-weight term) would block a
   merge that the peephole optimizer performed on the circuit side after
   deleting the corresponding Rz(0) gate.  The transformation preserves
   the represented unitary, so comparing normal forms stays sound. *)
let zero_angle theta = abs_float theta <= 1e-12

module Seen = Hashtbl.Make (Pauli_string)

let normalize rotations =
  let out = ref [] in
  (* [out] is kept in reverse order; entries are mutable angle refs.
     [seen] holds every string in [out]: only an equal string can end
     the scan with a merge, so a string not yet seen is pushed without
     walking [out] (commuting layers would otherwise cost quadratic
     time). *)
  let seen = Seen.create 64 in
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
        match if Seen.mem seen p then merge !out else None with
        | Some angle -> angle := !angle +. theta
        | None ->
          Seen.replace seen p ();
          out := (p, ref theta) :: !out
      end)
    rotations;
  List.rev_map (fun (p, angle) -> p, !angle) !out
  |> List.filter (fun (_, theta) -> not (zero_angle theta))

(* The logical string's planes scattered through [initial] onto
   [n_phys] qubits, bit by bit of its support, ascending. *)
let embed ~n_phys initial logical =
  let open Ph_hardware in
  let phys_words = Bits.words_for n_phys in
  let x = Array.make phys_words 0 and z = Array.make phys_words 0 in
  for w = 0 to Bits.words_for (Pauli_string.n_qubits logical) - 1 do
    let lx = Pauli_string.x_word logical w and lz = Pauli_string.z_word logical w in
    let base = w * Bits.word_bits in
    Bits.iter_bits base (lx lor lz) (fun q ->
        let p = Layout.phys initial q in
        if p < 0 || p >= n_phys then
          invalid_arg (Printf.sprintf "Pauli_string.of_support: qubit %d" p);
        let b = q - base and pw = Bits.word_of p and pb = Bits.bit_of p in
        x.(pw) <- x.(pw) lor (((lx lsr b) land 1) lsl pb);
        z.(pw) <- z.(pw) lor (((lz lsr b) land 1) lsl pb))
  done;
  Pauli_string.of_planes n_phys x z 0

(* One check for every backend: logical qubit [q] moves from physical
   [initial q] to [final q], the identity without [layouts] (FT,
   ion-trap), where the trace needs no embedding. *)
let verify ?layouts ~trace circuit =
  let n_phys = Circuit.n_qubits circuit in
  let rotations, residue = extract circuit in
  let rotations = normalize rotations in
  let trace, n_logical, initial, final =
    match layouts with
    | None -> trace, n_phys, Fun.id, Fun.id
    | Some (initial, final) ->
      let open Ph_hardware in
      ( List.map (fun (logical, theta) -> embed ~n_phys initial logical, theta) trace,
        Layout.n_logical initial,
        Layout.phys initial,
        Layout.phys final )
  in
  let trace = normalize trace in
  List.length rotations = List.length trace
  && List.for_all2 same_rotation rotations trace
  &&
  match residue_permutation residue with
  | None -> false
  | Some perm ->
    let rec check q =
      q >= n_logical
      || (let p1 = final q in
          (* Row p1 is D(X_{p1}): a negative sign there means a stray Z
             lands on the data's final position.  Only |0⟩ ancillas may
             absorb a stray Z. *)
          let _, xk = residue.x_images.(p1) in
          perm.(initial q) = p1 && xk = 0 && check (q + 1))
    in
    check 0

let verify_ft circuit ~trace = verify ~trace circuit

let verify_sc ~circuit ~trace ~initial ~final =
  verify ~layouts:(initial, final) ~trace circuit
