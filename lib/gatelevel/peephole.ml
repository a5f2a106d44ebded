let zero_rotation = function
  | Gate.Rz (t, _) | Gate.Rx (t, _) | Gate.Ry (t, _) | Gate.Rxx (t, _, _) ->
    abs_float t < 1e-12
  | _ -> false

let merge a b =
  match a, b with
  | Gate.Rz (t, p), Gate.Rz (u, q) when p = q -> Some (Gate.Rz (t +. u, p))
  | Gate.Rx (t, p), Gate.Rx (u, q) when p = q -> Some (Gate.Rx (t +. u, p))
  | Gate.Ry (t, p), Gate.Ry (u, q) when p = q -> Some (Gate.Ry (t +. u, p))
  | Gate.Rxx (t, a1, b1), Gate.Rxx (u, a2, b2)
    when (a1 = a2 && b1 = b2) || (a1 = b2 && b1 = a2) ->
    Some (Gate.Rxx (t +. u, a1, b1))
  | _ -> None

(* Scratch cells are 32-bit ints in [Bytes], native endianness (they are
   never serialized): half the footprint of an [int array]. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let get b k = Int32.to_int (get32 b (4 * k))
let set b k v = set32 b (4 * k) (Int32.of_int v)

(* Per-pass state, sized by the first round's circuit and reused by every
   later round (a round never grows the circuit).

   - [gates.(j)]: the gate in slot [j] (a merge overwrites its slot).
   - [live]: one bit per slot.
   - [link]: cell [2j + k] is the next older live slot on operand [k]'s
     qubit of slot [j] (-1: none), so each qubit's live slots form a
     singly linked chain in descending slot order, headed by [head.(q)].
   - [fen]: Fenwick tree over the live bits (cell [j + 1] for slot [j]). *)
type scratch = {
  gates : Gate.t array;
  live : Bytes.t;
  link : Bytes.t;
  fen : Bytes.t;
  head : int array;
}

let scratch c =
  let gs = Circuit.gates c in
  let m = Array.length gs in
  let n = ref (Circuit.n_qubits c) in
  Array.iter (Gate.iter_qubits (fun q -> if q >= !n then n := q + 1)) gs;
  {
    gates = Array.make m (Gate.H 0);
    live = Bytes.create ((m + 7) / 8);
    link = Bytes.create (8 * m);
    fen = Bytes.create (4 * (m + 1));
    head = Array.make !n (-1);
  }

let set_live s j v =
  let b = Char.code (Bytes.unsafe_get s.live (j lsr 3)) in
  let bit = 1 lsl (j land 7) in
  Bytes.unsafe_set s.live (j lsr 3)
    (Char.unsafe_chr (if v then b lor bit else b land lnot bit))

let is_live s j =
  Char.code (Bytes.unsafe_get s.live (j lsr 3)) land (1 lsl (j land 7)) <> 0

let fen_add s m j d =
  let k = ref (j + 1) in
  while !k <= m do
    set s.fen !k (get s.fen !k + d);
    k := !k + (!k land - !k)
  done

(* Live slots in [0, j). *)
let fen_prefix s j =
  let k = ref j and acc = ref 0 in
  while !k > 0 do
    acc := !acc + get s.fen !k;
    k := !k land (!k - 1)
  done;
  !acc

(* The gate's first and last qubit (equal on single-qubit gates). *)
let first = function
  | Gate.H q | Gate.X q | Gate.Y q | Gate.Z q | Gate.S q | Gate.Sdg q
  | Gate.Rz (_, q) | Gate.Rx (_, q) | Gate.Ry (_, q)
  | Gate.Cnot (q, _) | Gate.Swap (q, _) | Gate.Rxx (_, q, _) ->
    q

let last = function
  | Gate.H q | Gate.X q | Gate.Y q | Gate.Z q | Gate.S q | Gate.Sdg q
  | Gate.Rz (_, q) | Gate.Rx (_, q) | Gate.Ry (_, q)
  | Gate.Cnot (_, q) | Gate.Swap (_, q) | Gate.Rxx (_, _, q) ->
    q

(* The link cell of slot [j] on qubit [q], which slot [j]'s gate [h]
   touches. *)
let cell j h q = if first h = q then 2 * j else (2 * j) + 1

let place s m i g =
  let q0 = first g and q1 = last g in
  set_live s i true;
  fen_add s m i 1;
  set s.link (2 * i) s.head.(q0);
  s.head.(q0) <- i;
  if q1 <> q0 then begin
    set s.link ((2 * i) + 1) s.head.(q1);
    s.head.(q1) <- i
  end

(* Splice the chain cell [c] out of qubit [q]'s chain; [pred] is the
   cell that points at it (-1 when it is the chain head). *)
let unlink s q ~pred c =
  let next = get s.link c in
  if pred < 0 then s.head.(q) <- next else set s.link pred next

type walk = Walking | Merged | Dropped | Stays

(* One pass.  For the incoming gate [g] we walk backwards over the live
   gates sharing a qubit with it — merging the chains of its (at most
   two) qubits in descending slot order — skipping gates that commute
   with [g], until we hit a cancellation/merge partner or a blocking
   gate.  A gate on qubits disjoint from [g]'s can neither cancel, merge
   nor block, so leaving it out changes nothing except the window: the
   walk still visits a candidate [j] only when at most [window] live
   slots lie in [j, i), counted with the Fenwick tree when [i - j]
   alone does not settle it.  A partner has exactly [g]'s qubits, so it
   sits under both chain cursors and is spliced out through the cells
   the walk just came from. *)
let run s ~window circuit =
  Ph_perf.Counter.bump Ph_perf.Counter.peephole_scan_rounds;
  let src = Circuit.gates circuit in
  let m = Array.length src in
  let gates = s.gates in
  Array.blit src 0 gates 0 m;
  Bytes.fill s.live 0 ((m + 7) / 8) '\000';
  Bytes.fill s.fen 0 (4 * (m + 1)) '\000';
  Array.fill s.head 0 (Array.length s.head) (-1);
  let n_live = ref 0 in
  let removed = ref 0 in
  let probes = ref 0 in
  for i = 0 to m - 1 do
    let g = gates.(i) in
    if zero_rotation g then incr removed
    else begin
      let q0 = first g and q1 = last g in
      (* chain cursors, and the cells that point at them *)
      let j0 = ref s.head.(q0) and p0 = ref (-1) in
      let j1 = ref (if q1 = q0 then -1 else s.head.(q1)) and p1 = ref (-1) in
      let state = ref Walking in
      while !state = Walking do
        let j = if !j0 > !j1 then !j0 else !j1 in
        if j < 0 || (i - j > window && !n_live - fen_prefix s j > window) then
          state := Stays
        else begin
          incr probes;
          let h = gates.(j) in
          let c0 = if !j0 = j then cell j h q0 else -1 in
          let c1 = if !j1 = j then cell j h q1 else -1 in
          if Gate.cancels h g then state := Dropped
          else begin
            match merge h g with
            | Some merged when zero_rotation merged -> state := Dropped
            | Some merged ->
              gates.(j) <- merged;
              incr removed;
              state := Merged
            | None -> if not (Gate.commutes h g) then state := Stays
          end;
          if !state = Dropped then begin
            unlink s q0 ~pred:!p0 c0;
            if q1 <> q0 then unlink s q1 ~pred:!p1 c1;
            set_live s j false;
            fen_add s m j (-1);
            decr n_live;
            removed := !removed + 2
          end;
          if c0 >= 0 then begin
            p0 := c0;
            j0 := get s.link c0
          end;
          if c1 >= 0 then begin
            p1 := c1;
            j1 := get s.link c1
          end
        end
      done;
      if !state = Stays then begin
        place s m i g;
        incr n_live
      end
    end
  done;
  Ph_perf.Counter.add Ph_perf.Counter.peephole_probes !probes;
  let b = Circuit.Builder.create (Circuit.n_qubits circuit) in
  for j = 0 to m - 1 do
    if is_live s j then Circuit.Builder.add b gates.(j)
  done;
  Circuit.Builder.to_circuit b, !removed

let default_window = 400

let cancel_once ?(window = default_window) circuit =
  run (scratch circuit) ~window circuit

type stats = { removed : int; rounds : int }

let optimize_stats ?(window = default_window) ?(max_rounds = 20) circuit =
  let s = scratch circuit in
  let rec go c total round =
    if round >= max_rounds then c, { removed = total; rounds = round }
    else
      let c', removed = run s ~window c in
      if removed = 0 then c', { removed = total; rounds = round + 1 }
      else go c' (total + removed) (round + 1)
  in
  go circuit 0 0

let optimize ?window ?max_rounds circuit =
  fst (optimize_stats ?window ?max_rounds circuit)
