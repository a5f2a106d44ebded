open Ph_pauli

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let qcheck = QCheck_alcotest.to_alcotest

(* Generators *)
let gen_op = QCheck.Gen.oneofl Pauli.all
let arb_op = QCheck.make ~print:(fun p -> String.make 1 (Pauli.to_char p)) gen_op

let gen_string n = QCheck.Gen.(array_size (return n) gen_op)

let arb_string n =
  QCheck.make
    ~print:(fun a -> Pauli_string.to_string (Pauli_string.of_ops a))
    (gen_string n)

(* --- Pauli operator algebra --- *)

let test_mul_table () =
  let open Pauli in
  Alcotest.(check (pair int bool)) "X*Y = iZ"
    (1, true)
    (let k, p = mul X Y in
     k, equal p Z);
  let k, p = mul Y X in
  check_int "Y*X phase" 3 k;
  check "Y*X = -iZ" true (equal p Z);
  let k, p = mul Z Z in
  check_int "Z*Z phase" 0 k;
  check "Z*Z = I" true (equal p I)

let test_involution () =
  List.iter
    (fun p ->
      let k, r = Pauli.mul p p in
      check_int "P*P phase" 0 k;
      check "P*P = I" true (Pauli.equal r Pauli.I))
    Pauli.all

let test_codes () =
  List.iter
    (fun p -> check "code roundtrip" true (Pauli.equal p (Pauli.of_code (Pauli.to_code p))))
    Pauli.all;
  List.iter
    (fun p -> check "char roundtrip" true (Pauli.equal p (Pauli.of_char (Pauli.to_char p))))
    Pauli.all

let test_commutes () =
  let open Pauli in
  check "X,Y anticommute" false (commutes X Y);
  check "X,I commute" true (commutes X I);
  check "Z,Z commute" true (commutes Z Z)

let prop_mul_assoc_projective =
  QCheck.Test.make ~name:"pauli mul associative (with phases)" ~count:200
    QCheck.(triple arb_op arb_op arb_op)
    (fun (a, b, c) ->
      let k1, ab = Pauli.mul a b in
      let k2, ab_c = Pauli.mul ab c in
      let k3, bc = Pauli.mul b c in
      let k4, a_bc = Pauli.mul a bc in
      Pauli.equal ab_c a_bc && (k1 + k2) land 3 = (k3 + k4) land 3)

let prop_commute_symmetric =
  QCheck.Test.make ~name:"commutes symmetric" ~count:100
    QCheck.(pair arb_op arb_op)
    (fun (a, b) -> Pauli.commutes a b = Pauli.commutes b a)

(* --- Pauli strings --- *)

let test_string_roundtrip () =
  let s = Pauli_string.of_string "YZIXZ" in
  check_str "to_string" "YZIXZ" (Pauli_string.to_string s);
  check "q4 is Y" true (Pauli.equal (Pauli_string.get s 4) Pauli.Y);
  check "q0 is Z" true (Pauli.equal (Pauli_string.get s 0) Pauli.Z);
  check "q2 is I" true (Pauli.equal (Pauli_string.get s 2) Pauli.I)

let test_support_weight () =
  let s = Pauli_string.of_string "YZIXZ" in
  Alcotest.(check (list int)) "support" [ 0; 1; 3; 4 ] (Pauli_string.support s);
  check_int "weight" 4 (Pauli_string.weight s);
  check "not identity" false (Pauli_string.is_identity s);
  check "identity" true (Pauli_string.is_identity (Pauli_string.identity 5))

let test_of_support () =
  let s = Pauli_string.of_support 4 [ 1, Pauli.X; 3, Pauli.Z ] in
  check_str "of_support" "ZIXI" (Pauli_string.to_string s)

let test_string_commutes () =
  let p = Pauli_string.of_string "XX" in
  let q = Pauli_string.of_string "ZZ" in
  check "XX,ZZ commute" true (Pauli_string.commutes p q);
  let r = Pauli_string.of_string "ZI" in
  check "XX,ZI anticommute" false (Pauli_string.commutes p r)

let test_string_mul () =
  let p = Pauli_string.of_string "XI" in
  let q = Pauli_string.of_string "YI" in
  let k, r = Pauli_string.mul p q in
  check_int "XI*YI phase" 1 k;
  check_str "XI*YI" "ZI" (Pauli_string.to_string r)

let test_lex_order () =
  (* Paper order: X < Y < Z < I, compared from the highest qubit down. *)
  let s a = Pauli_string.of_string a in
  check "XII < YII" true (Pauli_string.compare_lex (s "XII") (s "YII") < 0);
  check "ZII < III" true (Pauli_string.compare_lex (s "ZII") (s "III") < 0);
  check "XZI < XIZ" true (Pauli_string.compare_lex (s "XZI") (s "XIZ") < 0);
  check "equal" true (Pauli_string.compare_lex (s "XYZ") (s "XYZ") = 0)

let test_overlap () =
  let a = Pauli_string.of_string "ZZY" in
  let b = Pauli_string.of_string "ZZI" in
  check_int "overlap ZZY/ZZI" 2 (Pauli_string.overlap a b);
  Alcotest.(check (list int)) "shared support" [ 1; 2 ] (Pauli_string.shared_support a b);
  let c = Pauli_string.of_string "IIX" in
  check "ZZI,IIX disjoint" true (Pauli_string.disjoint b c);
  check "ZZY,IIX not disjoint" false (Pauli_string.disjoint a c)

let prop_string_mul_commutation =
  QCheck.Test.make ~name:"string commutation matches phase difference" ~count:300
    QCheck.(pair (arb_string 6) (arb_string 6))
    (fun (a, b) ->
      let p = Pauli_string.of_ops a and q = Pauli_string.of_ops b in
      let k1, r1 = Pauli_string.mul p q in
      let k2, r2 = Pauli_string.mul q p in
      Pauli_string.equal r1 r2
      && Pauli_string.commutes p q = (k1 = k2))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"of_string/to_string roundtrip" ~count:200 (arb_string 8)
    (fun a ->
      let p = Pauli_string.of_ops a in
      Pauli_string.equal p (Pauli_string.of_string (Pauli_string.to_string p)))

let prop_overlap_symmetric =
  QCheck.Test.make ~name:"overlap symmetric, bounded by weight" ~count:200
    QCheck.(pair (arb_string 7) (arb_string 7))
    (fun (a, b) ->
      let p = Pauli_string.of_ops a and q = Pauli_string.of_ops b in
      let ov = Pauli_string.overlap p q in
      ov = Pauli_string.overlap q p
      && ov <= min (Pauli_string.weight p) (Pauli_string.weight q))

let prop_lex_total_order =
  QCheck.Test.make ~name:"compare_lex is a total order" ~count:200
    QCheck.(triple (arb_string 5) (arb_string 5) (arb_string 5))
    (fun (a, b, c) ->
      let p = Pauli_string.of_ops a
      and q = Pauli_string.of_ops b
      and r = Pauli_string.of_ops c in
      let ( <= ) x y = Pauli_string.compare_lex x y <= 0 in
      (not (p <= q && q <= r)) || p <= r)

let prop_mul_weight_support =
  QCheck.Test.make ~name:"support of product within union of supports" ~count:200
    QCheck.(pair (arb_string 6) (arb_string 6))
    (fun (a, b) ->
      let p = Pauli_string.of_ops a and q = Pauli_string.of_ops b in
      let _, r = Pauli_string.mul p q in
      List.for_all
        (fun i -> Pauli_string.active p i || Pauli_string.active q i)
        (Pauli_string.support r))

let prop_with_ops =
  QCheck.Test.make ~name:"with_ops replaces exactly the listed positions" ~count:200
    QCheck.(triple (arb_string 6) (int_bound 5) arb_op)
    (fun (a, q, op) ->
      let p = Pauli_string.of_ops a in
      let p' = Pauli_string.with_ops p [ q, op ] in
      Pauli.equal (Pauli_string.get p' q) op
      && List.for_all
           (fun i -> i = q || Pauli.equal (Pauli_string.get p' i) (Pauli_string.get p i))
           (List.init 6 Fun.id)
      (* and the original is untouched *)
      && Pauli_string.equal p (Pauli_string.of_ops a))

(* --- Pauli terms --- *)

let test_term () =
  let t = Pauli_term.make (Pauli_string.of_string "XZ") 0.5 in
  check_int "term qubits" 2 (Pauli_term.n_qubits t);
  check "term equal" true (Pauli_term.equal t (Pauli_term.make (Pauli_string.of_string "XZ") 0.5));
  check "term differs by coeff" false
    (Pauli_term.equal t (Pauli_term.make (Pauli_string.of_string "XZ") 0.25))

(* --- Float_text --- *)

(* The unshortened search [Float_text.repr] replaced, kept verbatim as
   the oracle: every precision from 1, a parse after each. *)
let repr_oracle f =
  if Float.is_nan f then "nan"
  else if f = infinity then "inf"
  else if f = neg_infinity then "-inf"
  else begin
    (* Try increasing precision until the decimal form round-trips;
       %.17g always does for finite doubles, so the loop terminates. *)
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 1
  end

let test_repr_oracle () =
  let mismatches = ref [] in
  let check_one f =
    let got = Float_text.repr f and want = repr_oracle f in
    if got <> want && List.length !mismatches < 5 then
      mismatches :=
        Printf.sprintf "%Lx: repr %s, oracle %s" (Int64.bits_of_float f) got want
        :: !mismatches
  in
  let both_signs f =
    check_one f;
    check_one (Float.neg f)
  in
  List.iter both_signs
    [ 0.; Float.min_float; Float.max_float; Float.epsilon; 0.1; 1e5; 1e15;
      1e16; 1e17; 0.3; 1. /. 3.; Float.nan; Float.infinity ];
  (* every power of two, subnormal to the largest, and its neighbours *)
  for e = -1074 to 1023 do
    let f = Float.ldexp 1. e in
    both_signs f;
    both_signs (Float.pred f);
    both_signs (Float.succ f)
  done;
  let rng = Random.State.make [| 13 |] in
  let bits60 () = Random.State.bits rng lor (Random.State.bits rng lsl 30) in
  for _ = 1 to 100_000 do
    (* uniform bit patterns (both signs; NaNs and infinities included) *)
    check_one
      (Int64.float_of_bits
         (Int64.logor
            (Int64.shift_left (Int64.of_int (Random.State.bits rng)) 34)
            (Int64.of_int (bits60 ()))))
  done;
  for _ = 1 to 5_000 do
    (* subnormals: uniform mantissa, zero exponent *)
    both_signs (Int64.float_of_bits (Int64.of_int (bits60 () land 0xF_FFFF_FFFF_FFFF)));
    (* short decimals, which round-trip below 15 digits *)
    both_signs
      (float_of_string
         (Printf.sprintf "%de%d"
            (Random.State.int rng 1_000_000_000)
            (Random.State.int rng 600 - 300)))
  done;
  check_str "repr mismatches" "" (String.concat "; " (List.rev !mismatches))

let () =
  Alcotest.run "pauli"
    [
      ( "operator",
        [
          Alcotest.test_case "multiplication table" `Quick test_mul_table;
          Alcotest.test_case "involution" `Quick test_involution;
          Alcotest.test_case "code/char roundtrips" `Quick test_codes;
          Alcotest.test_case "commutation" `Quick test_commutes;
          qcheck prop_mul_assoc_projective;
          qcheck prop_commute_symmetric;
        ] );
      ( "string",
        [
          Alcotest.test_case "of_string/to_string" `Quick test_string_roundtrip;
          Alcotest.test_case "support and weight" `Quick test_support_weight;
          Alcotest.test_case "of_support" `Quick test_of_support;
          Alcotest.test_case "commutation" `Quick test_string_commutes;
          Alcotest.test_case "multiplication" `Quick test_string_mul;
          Alcotest.test_case "paper lexicographic order" `Quick test_lex_order;
          Alcotest.test_case "overlap metrics" `Quick test_overlap;
          qcheck prop_string_mul_commutation;
          qcheck prop_string_roundtrip;
          qcheck prop_overlap_symmetric;
          qcheck prop_lex_total_order;
          qcheck prop_mul_weight_support;
          qcheck prop_with_ops;
        ] );
      ("term", [ Alcotest.test_case "basics" `Quick test_term ]);
      ( "float_text",
        [ Alcotest.test_case "repr matches the full search" `Quick test_repr_oracle ] );
    ]
