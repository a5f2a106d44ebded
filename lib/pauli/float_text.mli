(** Shortest round-trip decimal text for doubles.

    [repr f] is the [%.{p}g] rendering of [f] at the smallest precision
    [p] in [1..17] whose text parses back ([float_of_string]) to the
    same double bit for bit; [%.17g] always does, so [p <= 17].  NaN
    prints as ["nan"] and the infinities as ["inf"] / ["-inf"].  Every
    printer whose output is parsed again (Pauli-IR text, certificate
    digests, cache keys) goes through here, so the string for a given
    double must never change.

    {b Precision-15 shortcut.}  Most coefficients need 16 or 17 digits,
    and the search tries every precision from 1 with a parse after
    each.  For a finite normal double [f] it is exact to skip
    precisions 1..15 whenever [%.15g] does not round-trip:

    - the values that parse to [f] form an interval of width at most
      one ulp of [f], i.e. at most [2^-52 * |f| ~ 2.2e-16 * |f|];
    - a [%.{p}g] text with [p <= 15] is also a 15-significant-digit
      decimal, and consecutive 15-digit decimals between [10^k] and
      [10^(k+1)] are [10^(k-14)] apart, so near [f] they lie more than
      [5e-16 * |f|] apart — wider than the interval;
    - so at most one 15-digit decimal parses to [f].  If a shorter
      precision round-trips, that decimal lies within half an ulp of
      [f] and is therefore the 15-digit decimal nearest [f], which is
      exactly what [%.15g] prints; [%.15g] then round-trips too.

    Subnormals have an absolute, not relative, ulp, so the width bound
    fails there and they always run the full search from precision 1,
    as do zeros.  [test/test_pauli.ml] checks [repr] against the
    unshortened search on random bit patterns, every power of two and
    its neighbours, and the special values. *)

val repr : float -> string
