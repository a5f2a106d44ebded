(* Scratch cells live in [Bytes], native endianness (they are never
   serialized): 64-bit slot codes, 32-bit links, stops and counts. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let get b k = Int32.to_int (get32 b (4 * k))
let set b k v = set32 b (4 * k) (Int32.of_int v)

(* A slot code packs a gate without its angle: the kind in bits 0-3, the
   first qubit in bits 4-29 and the last qubit (equal to the first on
   single-qubit gates) from bit 30.  A removed slot's code is -1. *)
let qmask = (1 lsl 26) - 1

let kind c = c land 15
let q_first c = (c lsr 4) land qmask
let q_last c = c lsr 30

(* Kinds in [Gate.t] declaration order: H X Y Z S Sdg Rz Rx Ry Cnot
   Swap Rxx. *)
let n_kinds = 12

let pack k q0 q1 =
  if q0 < 0 || q0 > qmask || q1 < 0 || q1 > qmask then
    invalid_arg "Peephole: qubit index out of range";
  k lor (q0 lsl 4) lor (q1 lsl 30)

let encode = function
  | Gate.H q -> pack 0 q q
  | Gate.X q -> pack 1 q q
  | Gate.Y q -> pack 2 q q
  | Gate.Z q -> pack 3 q q
  | Gate.S q -> pack 4 q q
  | Gate.Sdg q -> pack 5 q q
  | Gate.Rz (_, q) -> pack 6 q q
  | Gate.Rx (_, q) -> pack 7 q q
  | Gate.Ry (_, q) -> pack 8 q q
  | Gate.Cnot (a, b) -> pack 9 a b
  | Gate.Swap (a, b) -> pack 10 a b
  | Gate.Rxx (_, a, b) -> pack 11 a b

(* The gate a code stands for, with angle [t] on rotations. *)
let decode c t =
  let a = q_first c and b = q_last c in
  match kind c with
  | 0 -> Gate.H a
  | 1 -> Gate.X a
  | 2 -> Gate.Y a
  | 3 -> Gate.Z a
  | 4 -> Gate.S a
  | 5 -> Gate.Sdg a
  | 6 -> Gate.Rz (t, a)
  | 7 -> Gate.Rx (t, a)
  | 8 -> Gate.Ry (t, a)
  | 9 -> Gate.Cnot (a, b)
  | 10 -> Gate.Swap (a, b)
  | _ -> Gate.Rxx (t, a, b)

let[@inline] angle_of = function
  | Gate.Rz (t, _) | Gate.Rx (t, _) | Gate.Ry (t, _) | Gate.Rxx (t, _, _) -> t
  | Gate.H _ | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.S _ | Gate.Sdg _
  | Gate.Cnot _ | Gate.Swap _ ->
    0.

(* Two rotations of one kind on the same qubits (either order for
   [Rxx]), which cancel or merge depending on their angles. *)
let rotation_pair a b =
  match a, b with
  | Gate.Rz (_, p), Gate.Rz (_, q) | Gate.Rx (_, p), Gate.Rx (_, q)
  | Gate.Ry (_, p), Gate.Ry (_, q) ->
    p = q
  | Gate.Rxx (_, a1, b1), Gate.Rxx (_, a2, b2) ->
    (a1 = a2 && b1 = b2) || (a1 = b2 && b1 = a2)
  | _ -> false

external int_of_bool : bool -> int = "%identity"

(* Which operands of two codes coincide: bit 0 first/first, 1
   first/last, 2 last/first, 3 last/last.  0 means disjoint. *)
let[@inline] overlap a b =
  let a0 = q_first a and a1 = q_last a and b0 = q_first b and b1 = q_last b in
  int_of_bool (a0 = b0)
  lor (int_of_bool (a0 = b1) lsl 1)
  lor (int_of_bool (a1 = b0) lsl 2)
  lor (int_of_bool (a1 = b1) lsl 3)

(* How an earlier gate relates to an incoming one that shares a qubit
   with it: [cancel] when [Gate.cancels] holds, [partner] for a rotation
   pair (the caller cancels it when [t = -.u] and merges it otherwise),
   else [commute] or [block] by [Gate.commutes].  Every one of these
   depends only on the two kinds and on which operands coincide, so the
   table is filled once from representatives of each (kinds, overlap)
   class, and the walk's [relate] is one lookup. *)
let block = 0
let commute = 1
let cancel = 2
let partner = 3

let relation =
  let t = Bytes.make (n_kinds * n_kinds * 16) '\255' in
  (* every kind on every operand pair from {0, 1, 2, 3}: all overlap
     patterns occur among these *)
  let reps angle =
    Array.init (n_kinds * 16) (fun r ->
        let k = r / 16 in
        let x = r land 3 and y = if k >= 9 then (r lsr 2) land 3 else r land 3 in
        decode (pack k x y) angle)
  in
  let rep_a = reps 0.1 and rep_b = reps 0.2 in
  Array.iter
    (fun g ->
      Array.iter
        (fun h ->
          let a = encode g and b = encode h in
          if overlap a b <> 0 then begin
            let r =
              if Gate.cancels g h then cancel
              else if rotation_pair g h then partner
              else if Gate.commutes g h then commute
              else block
            in
            let cell = (((kind a * n_kinds) + kind b) lsl 4) lor overlap a b in
            (* a class whose representatives disagree would need more
               than the overlap pattern *)
            assert (Bytes.get t cell = '\255' || Bytes.get t cell = Char.chr r);
            Bytes.set t cell (Char.chr r)
          end)
        rep_b)
    rep_a;
  (* disjoint operands commute; the remaining cells are patterns no
     pair of gates has *)
  Bytes.iteri (fun k c -> if c = '\255' then Bytes.set t k (Char.chr commute)) t;
  t

let[@inline] relate a b =
  Char.code
    (Bytes.unsafe_get relation
       ((((kind a * n_kinds) + kind b) lsl 4) lor overlap a b))

(* Per-pass state, built once per [optimize_stats] from the input
   circuit.  Slot [j] holds input gate [j] for the whole fixpoint:
   survivors keep their slots from round to round and removed slots are
   skipped by their code, so slot numbers never change.

   - [slots]: 16 bytes per slot — the code (64-bit), then the links on
     the first and the last qubit (32-bit each).  The link of slot [j]
     on one of its qubits is the next older live slot on that qubit
     (-1: none), so each qubit's live slots form a singly linked chain
     in descending slot order, headed by [head.(q)] and rebuilt by every
     round.  A probe reads the code and the link it follows from the
     same record.
   - [stop]: how the slot's last walk ended (see [round]).
   - [fen]: Fenwick tree over the removed slots (cell [j + 1] for slot
     [j]).
   - [merged]: -1, or the cell of [angles] holding the slot's angle once
     a later gate merged into it; unmerged angles are read from the
     input gate. *)
type scratch = {
  gates : Gate.t array;
  slots : Bytes.t;
  stop : Bytes.t;
  fen : Bytes.t;
  merged : Bytes.t;
  mutable angles : Float.Array.t;
  mutable n_merged : int;
  head : int array;
}

let code s j = Int64.to_int (get64 s.slots (16 * j))
let set_code s j c = set64 s.slots (16 * j) (Int64.of_int c)

(* The byte offset of slot [j]'s link on qubit [q], which its code [h]
   touches. *)
let cell j h q = if q_first h = q then (16 * j) + 8 else (16 * j) + 12
let link s c = Int32.to_int (get32 s.slots c)
let set_link s c v = set32 s.slots c (Int32.of_int v)

let[@inline] angle s j =
  let k = get s.merged j in
  if k >= 0 then Float.Array.unsafe_get s.angles k
  else angle_of (Array.unsafe_get s.gates j)

let set_angle s j t =
  let k = get s.merged j in
  if k >= 0 then Float.Array.unsafe_set s.angles k t
  else begin
    let k = s.n_merged in
    if k = Float.Array.length s.angles then begin
      let a = Float.Array.create (max 8 (2 * k)) in
      Float.Array.blit s.angles 0 a 0 k;
      s.angles <- a
    end;
    Float.Array.unsafe_set s.angles k t;
    set s.merged j k;
    s.n_merged <- k + 1
  end

(* Zero rotations enter as removed slots: the first round would drop
   them before any walk, so they are counted removed up front. *)
let scratch c =
  let gates = Circuit.gates c in
  let m = Array.length gates in
  let slots = Bytes.create (16 * m) in
  let stop = Bytes.make (4 * m) '\255' in
  let fen = Bytes.make (4 * (m + 1)) '\000' in
  let n = ref (Circuit.n_qubits c) and zeros = ref 0 in
  Array.iteri
    (fun j g ->
      let code = encode g in
      let q = if q_first code > q_last code then q_first code else q_last code in
      if q >= !n then n := q + 1;
      match g with
      | (Gate.Rz (t, _) | Gate.Rx (t, _) | Gate.Ry (t, _) | Gate.Rxx (t, _, _))
        when abs_float t < 1e-12 ->
        set64 slots (16 * j) (-1L);
        set fen (j + 1) 1;
        incr zeros
      | _ ->
        set64 slots (16 * j) (Int64.of_int code);
        set stop j (-2))
    gates;
  (* the Fenwick tree over the removed flags, in linear time *)
  for k = 1 to m do
    let p = k + (k land -k) in
    if p <= m then set fen p (get fen p + get fen k)
  done;
  let s =
    {
      gates;
      slots;
      stop;
      fen;
      merged = Bytes.make (4 * m) '\255';
      angles = Float.Array.create 0;
      n_merged = 0;
      head = Array.make !n (-1);
    }
  in
  s, !zeros

let fen_add s j =
  let m = Array.length s.gates in
  let k = ref (j + 1) in
  while !k <= m do
    set s.fen !k (get s.fen !k + 1);
    k := !k + (!k land - !k)
  done

(* Removed slots in [0, j). *)
let fen_prefix s j =
  let k = ref j and acc = ref 0 in
  while !k > 0 do
    acc := !acc + get s.fen !k;
    k := !k land (!k - 1)
  done;
  !acc

(* Splice the chain cell [c] out of qubit [q]'s chain; [pred] is the
   cell that points at it (-1 when it is the chain head). *)
let unlink s q ~pred c =
  let next = link s c in
  if pred < 0 then s.head.(q) <- next else set_link s pred next

type walk = Walking | Removed | Stays

(* One pass over the live slots; returns the gates removed.

   For the incoming gate [g] at slot [i] we walk backwards over the live
   gates sharing a qubit with it — merging the chains of its (at most
   two) qubits in descending slot order — skipping gates that commute
   with [g], until we hit a cancellation/merge partner or a blocking
   gate.  The walk visits a candidate [j] only when at most [window]
   live slots lie in [j, i): [i - j] less the removed slots in [j, i),
   counted with the Fenwick tree when neither [i - j] nor the removed
   slots below [i] settle it.  A partner has exactly [g]'s qubits, so it
   sits under both chain cursors and is spliced out through the cells
   the walk just came from.

   A gate that stays records in [stop] how its walk ended: -1 at the end
   of its chains, the blocker's slot, or -2 at the window (-2 is also
   the state of a gate never walked).  A later round walks it again
   only at -2, or when its blocker has been removed since: the gates it
   walked past can only lose members, each of which commuted with it,
   so the walk would visit a subset of them under a window that only
   grew and end at the same blocker (DESIGN §16).  At -1 it never walks
   again. *)
let round s ~window =
  Ph_perf.Counter.bump Ph_perf.Counter.peephole_scan_rounds;
  Array.fill s.head 0 (Array.length s.head) (-1);
  let head = s.head in
  (* removed slots in [0, i) *)
  let dead = ref 0 in
  let removed = ref 0 in
  let probes = ref 0 in
  for i = 0 to Array.length s.gates - 1 do
    let g = code s i in
    if g < 0 then incr dead
    else begin
      let q0 = q_first g and q1 = q_last g in
      let stop = ref (get s.stop i) in
      let state = ref Stays in
      if !stop = -2 || (!stop >= 0 && code s !stop < 0) then begin
        state := Walking;
        (* chain cursors, and the cells that point at them *)
        let j0 = ref head.(q0) and p0 = ref (-1) in
        let j1 = ref (if q1 = q0 then -1 else head.(q1)) and p1 = ref (-1) in
        while !state = Walking do
          let j = if !j0 > !j1 then !j0 else !j1 in
          if j < 0 then begin
            stop := -1;
            state := Stays
          end
          else if
            i - j > window
            && (i - j - !dead > window || i - j - !dead + fen_prefix s j > window)
          then begin
            stop := -2;
            state := Stays
          end
          else begin
            incr probes;
            let h = code s j in
            let c0 = if !j0 = j then cell j h q0 else -1 in
            let c1 = if !j1 = j then cell j h q1 else -1 in
            let r = relate h g in
            if r = block then begin
              stop := j;
              state := Stays
            end
            else if r = commute then begin
              if c0 >= 0 then begin
                p0 := c0;
                j0 := link s c0
              end;
              if c1 >= 0 then begin
                p1 := c1;
                j1 := link s c1
              end
            end
            else begin
              let t = angle s j and u = angle s i in
              let sum = t +. u in
              if r = partner && t <> -.u && not (abs_float sum < 1e-12) then begin
                set_angle s j sum;
                incr removed;
                state := Removed
              end
              else begin
                unlink s q0 ~pred:!p0 c0;
                if q1 <> q0 then unlink s q1 ~pred:!p1 c1;
                set_code s j (-1);
                fen_add s j;
                incr dead;
                removed := !removed + 2;
                state := Removed
              end
            end
          end
        done
      end;
      if !state = Stays then begin
        set s.stop i !stop;
        set_link s ((16 * i) + 8) head.(q0);
        head.(q0) <- i;
        if q1 <> q0 then begin
          set_link s ((16 * i) + 12) head.(q1);
          head.(q1) <- i
        end
      end
      else begin
        set_code s i (-1);
        fen_add s i;
        incr dead
      end
    end
  done;
  Ph_perf.Counter.add Ph_perf.Counter.peephole_probes !probes;
  !removed

(* The [live] survivors into one exact-size array; unmerged slots reuse
   the input's gate values.  Charges [circuit_gates_built] as the
   builder it replaces did. *)
let unpack s circuit ~live =
  Ph_perf.Counter.add Ph_perf.Counter.circuit_gates_built live;
  let out = Array.make live (Gate.H 0) in
  let i = ref 0 in
  Array.iteri
    (fun j g ->
      let c = code s j in
      if c >= 0 then begin
        let k = get s.merged j in
        out.(!i) <- (if k < 0 then g else decode c (Float.Array.unsafe_get s.angles k));
        incr i
      end)
    s.gates;
  assert (!i = live);
  Circuit.of_array (Circuit.n_qubits circuit) out

let default_window = 400

let cancel_once ?(window = default_window) circuit =
  let s, zeros = scratch circuit in
  let removed = zeros + round s ~window in
  unpack s circuit ~live:(Circuit.length circuit - removed), removed

type stats = { removed : int; rounds : int }

(* Every round but the last is followed by what used to be a rebuild of
   its survivors through [Circuit.Builder]; [circuit_gates_built] still
   counts those gates. *)
let optimize_stats ?(window = default_window) ?(max_rounds = 20) circuit =
  if max_rounds <= 0 then circuit, { removed = 0; rounds = 0 }
  else
    let s, zeros = scratch circuit in
    let m = Circuit.length circuit in
    let rec go total rounds r =
      let total = total + r and rounds = rounds + 1 in
      if r = 0 || rounds >= max_rounds then
        unpack s circuit ~live:(m - total), { removed = total; rounds }
      else begin
        Ph_perf.Counter.add Ph_perf.Counter.circuit_gates_built (m - total);
        go total rounds (round s ~window)
      end
    in
    go 0 0 (zeros + round s ~window)

let optimize ?window ?max_rounds circuit =
  fst (optimize_stats ?window ?max_rounds circuit)
