(* Word-level helpers shared by the symplectic Pauli representation and
   Qubit_set.  Words carry [word_bits] payload bits each, one bit per
   qubit; keeping one bit of headroom below [Sys.int_size] means every
   word is a non-negative OCaml int, so the popcount table lookups and
   comparisons below never see a sign bit. *)

let word_bits = Sys.int_size - 1

let words_for n = (n + word_bits - 1) / word_bits

let word_of q = q / word_bits
let bit_of q = q mod word_bits

(* Mask selecting the valid bits of the last word of an [n]-qubit plane
   (all-ones when [n] is a multiple of [word_bits]). *)
let last_word_mask n =
  let r = n mod word_bits in
  if r = 0 then (1 lsl word_bits) - 1 else (1 lsl r) - 1

(* 16-bit-chunk popcount table: 4 lookups cover a word.  64 KiB of
   Bytes (one byte per 16-bit value), built once at module
   initialisation. *)
let pop16 =
  let t = Bytes.make 65536 '\000' in
  for i = 1 to 65535 do
    Bytes.unsafe_set t i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t (i lsr 1)) + (i land 1)))
  done;
  t

let popcount w =
  Char.code (Bytes.unsafe_get pop16 (w land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 16) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 32) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 48) land 0xffff))

(* Lowest set bit index of a non-zero word. *)
let rec lowest_bit_from w i = if w land 1 = 1 then i else lowest_bit_from (w lsr 1) (i + 1)
let lowest_bit w = lowest_bit_from w 0

(* Iterate the set bits of word [w] (ascending), calling [f] with the
   qubit index [base + bit]. *)
let iter_bits base w f =
  let w = ref w in
  while !w <> 0 do
    let b = lowest_bit !w in
    f (base + b);
    w := !w land (!w - 1)
  done
