(* Symplectic (two-bitplane) representation: qubit [i]'s operator is the
   pair of bit [i] of the X plane and bit [i] of the Z plane —
   I=(0,0), X=(1,0), Y=(1,1), Z=(0,1).  The pairwise queries the
   schedulers and the Pauli-frame verifier run in their inner loops
   (commutes / overlap / disjoint / mul / weight) become popcounts of
   word combinations, ~[Bits.word_bits] qubits per instruction instead
   of one, while the paper's largest workloads (80 qubits × 32k strings)
   still fit two words per plane.

   Invariant: plane bits at positions ≥ [n] are zero, so word-parallel
   operations never need to re-mask partial last words. *)

type t = { n : int; x : int array; z : int array }

let n_qubits p = p.n

(* Pauli code (I=0 X=1 Y=2 Z=3) from the plane-pair index [x + 2z]. *)
let code_of_xz = [| 0; 1; 3; 2 |]

let xz p i = ((p.x.(Bits.word_of i) lsr Bits.bit_of i) land 1)
             lor (((p.z.(Bits.word_of i) lsr Bits.bit_of i) land 1) lsl 1)

let check_qubit p i =
  if i < 0 || i >= p.n then
    invalid_arg (Printf.sprintf "Pauli_string: qubit %d out of range" i)

let get p i =
  check_qubit p i;
  Pauli.of_code code_of_xz.(xz p i)

let identity n =
  if n <= 0 then invalid_arg "Pauli_string.identity: n must be positive";
  let words = Bits.words_for n in
  { n; x = Array.make words 0; z = Array.make words 0 }

(* In-place operator store on a freshly-allocated string. *)
let set p i op =
  let w = Bits.word_of i and b = 1 lsl Bits.bit_of i in
  (match op with
  | Pauli.X | Pauli.Y -> p.x.(w) <- p.x.(w) lor b
  | Pauli.I | Pauli.Z -> p.x.(w) <- p.x.(w) land lnot b);
  match op with
  | Pauli.Z | Pauli.Y -> p.z.(w) <- p.z.(w) lor b
  | Pauli.I | Pauli.X -> p.z.(w) <- p.z.(w) land lnot b

let make n f =
  let p = identity n in
  for i = 0 to n - 1 do
    set p i (f i)
  done;
  p

let of_ops a = make (Array.length a) (Array.get a)

(* One pass straight into the plane words, from qubit 0 (the last
   character) up, so the first bad character reported is the one
   [Pauli.of_char] would meet first in [make]'s order. *)
let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Pauli_string.of_string: empty";
  let p = identity n in
  for i = 0 to n - 1 do
    let w = Bits.word_of i and b = 1 lsl Bits.bit_of i in
    match String.unsafe_get s (n - 1 - i) with
    | 'I' | 'i' -> ()
    | 'X' | 'x' -> p.x.(w) <- p.x.(w) lor b
    | 'Z' | 'z' -> p.z.(w) <- p.z.(w) lor b
    | 'Y' | 'y' ->
      p.x.(w) <- p.x.(w) lor b;
      p.z.(w) <- p.z.(w) lor b
    | c -> ignore (Pauli.of_char c : Pauli.t)
  done;
  p

let of_support n pairs =
  let p = identity n in
  List.iter
    (fun (q, op) ->
      if q < 0 || q >= n then
        invalid_arg (Printf.sprintf "Pauli_string.of_support: qubit %d" q);
      set p q op)
    pairs;
  p

let copy p = { p with x = Array.copy p.x; z = Array.copy p.z }

let with_ops p pairs =
  let r = copy p in
  List.iter
    (fun (q, op) ->
      if q < 0 || q >= p.n then
        invalid_arg (Printf.sprintf "Pauli_string.with_ops: qubit %d" q);
      set r q op)
    pairs;
  r

let to_ops p = Array.init p.n (get p)

let to_string p = String.init p.n (fun i -> Pauli.to_char (get p (p.n - 1 - i)))

let support p =
  let acc = ref [] in
  Array.iteri
    (fun w xw ->
      Bits.iter_bits (w * Bits.word_bits) (xw lor p.z.(w)) (fun q -> acc := q :: !acc))
    p.x;
  List.rev !acc

let support_set p =
  Qubit_set.of_words p.n (Array.init (Array.length p.x) (fun w -> p.x.(w) lor p.z.(w)))

let weight p =
  let w = ref 0 in
  for i = 0 to Array.length p.x - 1 do
    w := !w + Bits.popcount (p.x.(i) lor p.z.(i))
  done;
  !w

let is_identity p =
  let rec go w = w >= Array.length p.x || (p.x.(w) lor p.z.(w) = 0 && go (w + 1)) in
  go 0

let active p i =
  check_qubit p i;
  xz p i <> 0

let check_sizes fn p q =
  if p.n <> q.n then invalid_arg ("Pauli_string." ^ fn ^ ": size mismatch")

(* pq = qp iff the symplectic product Σ x_p·z_q + z_p·x_q is even. *)
let commutes p q =
  check_sizes "commutes" p q;
  let words = Array.length p.x in
  Ph_perf.Counter.kernel_op Ph_perf.Counter.pauli_commutes ~words
    ~pops:(2 * words);
  let anti = ref 0 in
  for w = 0 to words - 1 do
    anti := !anti lxor Bits.popcount (p.x.(w) land q.z.(w))
                 lxor Bits.popcount (p.z.(w) land q.x.(w))
  done;
  !anti land 1 = 0

(* Product phase: writing each operator as P(x,z) = i^{x·z}·X^x·Z^z,
   P(x₁,z₁)·P(x₂,z₂) = i^k·P(x₁⊕x₂, z₁⊕z₂) with
   k = x₁z₁ + x₂z₂ + 2·z₁x₂ − (x₁⊕x₂)(z₁⊕z₂)  (mod 4)
   summed over qubits — four popcounts per word. *)
let mul p q =
  check_sizes "mul" p q;
  let words = Array.length p.x in
  Ph_perf.Counter.kernel_op Ph_perf.Counter.pauli_mul ~words ~pops:(4 * words);
  let rx = Array.make words 0 and rz = Array.make words 0 in
  let phase = ref 0 in
  for w = 0 to words - 1 do
    let x1 = p.x.(w) and z1 = p.z.(w) and x2 = q.x.(w) and z2 = q.z.(w) in
    let x = x1 lxor x2 and z = z1 lxor z2 in
    phase :=
      !phase
      + Bits.popcount (x1 land z1)
      + Bits.popcount (x2 land z2)
      + (2 * Bits.popcount (z1 land x2))
      - Bits.popcount (x land z);
    rx.(w) <- x;
    rz.(w) <- z
  done;
  !phase land 3, { n = p.n; x = rx; z = rz }

let equal p q = p.n = q.n && p.x = q.x && p.z = q.z

(* Exactly the order of [Stdlib.compare (n, x, z)] — equal sizes have
   equal word counts, and words are non-negative ints — walked
   word by word: certificate digests sort every block's terms by it. *)
let compare p q =
  let c = Int.compare p.n q.n in
  if c <> 0 then c
  else
    let words = Array.length p.x in
    let rec go a b w =
      if w >= words then 0
      else
        let c = Int.compare a.(w) b.(w) in
        if c <> 0 then c else go a b (w + 1)
    in
    let c = go p.x q.x 0 in
    if c <> 0 then c else go p.z q.z 0

(* The record is laid out as the tuple (n, x, z), so this is that
   tuple's structural hash without building the tuple. *)
let hash (p : t) = Hashtbl.hash p

let compare_lex ?(rank = Pauli.paper_rank) p q =
  check_sizes "compare_lex" p q;
  let rank_of = Array.init 4 (fun c -> rank (Pauli.of_code code_of_xz.(c))) in
  (* Whole words that agree are skipped in one comparison; inside a
     differing word the scan stays qubit-by-qubit because a non-injective
     [rank] may equate distinct operators. *)
  let rec go_word w =
    if w < 0 then 0
    else if p.x.(w) = q.x.(w) && p.z.(w) = q.z.(w) then go_word (w - 1)
    else
      let lo = w * Bits.word_bits in
      let rec go i =
        if i < lo then go_word (w - 1)
        else
          let c = Int.compare rank_of.(xz p i) rank_of.(xz q i) in
          if c <> 0 then c else go (i - 1)
      in
      go (min (p.n - 1) (lo + Bits.word_bits - 1))
  in
  go_word (Array.length p.x - 1)

(* Same non-identity operator on qubit [i]: both planes agree and at
   least one bit is set. *)
let same_op_word p q w =
  let xe = lnot (p.x.(w) lxor q.x.(w)) and ze = lnot (p.z.(w) lxor q.z.(w)) in
  xe land ze land (p.x.(w) lor p.z.(w))

let overlap p q =
  check_sizes "overlap" p q;
  let words = Array.length p.x in
  Ph_perf.Counter.kernel_op Ph_perf.Counter.pauli_overlap ~words ~pops:words;
  let c = ref 0 in
  for w = 0 to words - 1 do
    c := !c + Bits.popcount (same_op_word p q w)
  done;
  !c

let shared_support p q =
  check_sizes "shared_support" p q;
  let acc = ref [] in
  for w = 0 to Array.length p.x - 1 do
    Bits.iter_bits (w * Bits.word_bits) (same_op_word p q w) (fun i -> acc := i :: !acc)
  done;
  List.rev !acc

let disjoint p q =
  check_sizes "disjoint" p q;
  let rec go w =
    w >= Array.length p.x
    || ((p.x.(w) lor p.z.(w)) land (q.x.(w) lor q.z.(w)) = 0 && go (w + 1))
  in
  go 0

let pp fmt p = Format.pp_print_string fmt (to_string p)

let blit_planes p dst_x dst_z pos =
  let words = Array.length p.x in
  Array.blit p.x 0 dst_x pos words;
  Array.blit p.z 0 dst_z pos words

let of_planes n x z pos =
  let words = Bits.words_for n in
  { n; x = Array.sub x pos words; z = Array.sub z pos words }

let x_word p w = p.x.(w)
let z_word p w = p.z.(w)

let or_support_words p dst pos =
  for w = 0 to Array.length p.x - 1 do
    dst.(pos + w) <- dst.(pos + w) lor (p.x.(w) lor p.z.(w))
  done
