(* Shortest decimal representation of a float that parses back to the
   exact same value (bit-for-bit).  Used by every textual printer whose
   output must round-trip through a parser — the Pauli-IR concrete
   syntax in particular, where fuzz reproducer artifacts rely on
   [parse (print p) = p] holding exactly.  See the interface for why
   the precision-15 shortcut returns the same string as the full
   search. *)

let round_trips s f = float_of_string s = f

let repr f =
  if Float.is_nan f then "nan"
  else if f = infinity then "inf"
  else if f = neg_infinity then "-inf"
  else begin
    (* Try increasing precision until the decimal form round-trips;
       %.17g always does for finite doubles, so the loop terminates. *)
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || round_trips s f then s else go (p + 1)
    in
    (* For a normal double no precision below 16 can round-trip when
       %.15g does not, so the search may start at 16. *)
    if Float.classify_float f = FP_normal
       && not (round_trips (Printf.sprintf "%.15g" f) f)
    then go 16
    else go 1
  end
