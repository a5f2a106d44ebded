(* Split re/im float arrays in row-major order: cheap unboxed access in the
   O(n^3) multiply that dominates verification time. *)
type t = { rows : int; cols : int; re : float array; im : float array }

let rows m = m.rows
let cols m = m.cols

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create";
  { rows; cols; re = Array.make (rows * cols) 0.; im = Array.make (rows * cols) 0. }

let idx m i j = (i * m.cols) + j

let get m i j : Cplx.t =
  let k = idx m i j in
  { re = m.re.(k); im = m.im.(k) }

let set m i j (c : Cplx.t) =
  let k = idx m i j in
  m.re.(k) <- c.re;
  m.im.(k) <- c.im

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.re.(idx m i i) <- 1.
  done;
  m

let copy m =
  { m with re = Array.copy m.re; im = Array.copy m.im }

let lift2 name f a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg name;
  let r = create a.rows a.cols in
  for k = 0 to Array.length r.re - 1 do
    let re, im = f a.re.(k) a.im.(k) b.re.(k) b.im.(k) in
    r.re.(k) <- re;
    r.im.(k) <- im
  done;
  r

let add = lift2 "Matrix.add" (fun ar ai br bi -> ar +. br, ai +. bi)
let sub = lift2 "Matrix.sub" (fun ar ai br bi -> ar -. br, ai -. bi)

let scale (c : Cplx.t) m =
  let r = create m.rows m.cols in
  for k = 0 to Array.length r.re - 1 do
    r.re.(k) <- (c.re *. m.re.(k)) -. (c.im *. m.im.(k));
    r.im.(k) <- (c.re *. m.im.(k)) +. (c.im *. m.re.(k))
  done;
  r

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: shape mismatch";
  let r = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let ar = a.re.((i * a.cols) + k) and ai = a.im.((i * a.cols) + k) in
      if ar <> 0. || ai <> 0. then
        for j = 0 to b.cols - 1 do
          let br = b.re.((k * b.cols) + j) and bi = b.im.((k * b.cols) + j) in
          let o = (i * r.cols) + j in
          r.re.(o) <- r.re.(o) +. (ar *. br) -. (ai *. bi);
          r.im.(o) <- r.im.(o) +. (ar *. bi) +. (ai *. br)
        done
    done
  done;
  r

let kron a b =
  let r = create (a.rows * b.rows) (a.cols * b.cols) in
  for ia = 0 to a.rows - 1 do
    for ja = 0 to a.cols - 1 do
      let ar = a.re.((ia * a.cols) + ja) and ai = a.im.((ia * a.cols) + ja) in
      if ar <> 0. || ai <> 0. then
        for ib = 0 to b.rows - 1 do
          for jb = 0 to b.cols - 1 do
            let br = b.re.((ib * b.cols) + jb) and bi = b.im.((ib * b.cols) + jb) in
            let o = (((ia * b.rows) + ib) * r.cols) + (ja * b.cols) + jb in
            r.re.(o) <- (ar *. br) -. (ai *. bi);
            r.im.(o) <- (ar *. bi) +. (ai *. br)
          done
        done
    done
  done;
  r

let dagger m =
  init m.cols m.rows (fun i j -> Cplx.conj (get m j i))

let trace m =
  if m.rows <> m.cols then invalid_arg "Matrix.trace";
  let acc = ref Cplx.zero in
  for i = 0 to m.rows - 1 do
    acc := Cplx.add !acc (get m i i)
  done;
  !acc

let dist a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Matrix.dist";
  let acc = ref 0. in
  for k = 0 to Array.length a.re - 1 do
    let dr = a.re.(k) -. b.re.(k) and di = a.im.(k) -. b.im.(k) in
    acc := !acc +. (dr *. dr) +. (di *. di)
  done;
  sqrt !acc

let equal ?(eps = 1e-8) a b =
  a.rows = b.rows && a.cols = b.cols && dist a b <= eps *. float_of_int a.rows

let largest_entry m =
  let best = ref 0 and best_mag = ref neg_infinity in
  for k = 0 to Array.length m.re - 1 do
    let mag = (m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k)) in
    if mag > !best_mag then begin
      best_mag := mag;
      best := k
    end
  done;
  !best

let equal_up_to_phase ?(eps = 1e-8) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let k = largest_entry b in
  let bk : Cplx.t = { re = b.re.(k); im = b.im.(k) } in
  let ak : Cplx.t = { re = a.re.(k); im = a.im.(k) } in
  if Cplx.norm bk < 1e-12 then equal ~eps a b
  else
    let phase = Cplx.mul ak { re = bk.re /. Cplx.norm2 bk; im = -.bk.im /. Cplx.norm2 bk } in
    (* The phase is estimated from a single entry whose magnitude shrinks
       like 1/√dim for generic unitaries, so its relative error — and
       hence |phase| − 1 — grows with dimension; scale the unit-modulus
       check accordingly (the dist comparison already scales with rows). *)
    if abs_float (Cplx.norm phase -. 1.) > 1e-6 *. sqrt (float_of_int a.rows) then false
    else dist a (scale phase b) <= eps *. float_of_int a.rows

let is_unitary ?(eps = 1e-8) u =
  u.rows = u.cols && equal ~eps (mul u (dagger u)) (identity u.rows)

let apply_vec m v =
  if Array.length v <> m.cols then invalid_arg "Matrix.apply_vec";
  Array.init m.rows (fun i ->
      let acc = ref Cplx.zero in
      for j = 0 to m.cols - 1 do
        acc := Cplx.add !acc (Cplx.mul (get m i j) v.(j))
      done;
      !acc)

let pp fmt m =
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      Format.fprintf fmt "%a " Cplx.pp (get m i j)
    done;
    Format.pp_print_newline fmt ()
  done
