open Ph_linalg

type kind = H | X | Y | Z | S | Sdg | Rz | Rx | Ry | Cnot | Swap | Rxx

let kinds = [| H; X; Y; Z; S; Sdg; Rz; Rx; Ry; Cnot; Swap; Rxx |]

let kind_index = function
  | H -> 0
  | X -> 1
  | Y -> 2
  | Z -> 3
  | S -> 4
  | Sdg -> 5
  | Rz -> 6
  | Rx -> 7
  | Ry -> 8
  | Cnot -> 9
  | Swap -> 10
  | Rxx -> 11

(* The layout documented in circuit.mli; the peephole repeats these
   three reads as inlinable local functions (peephole.ml). *)
let max_qubit = (1 lsl 26) - 1
let kind c = kinds.(c land 15)
let first c = (c lsr 4) land max_qubit
let last c = c lsr 30

(* Kinds from [Cnot] on act on two qubits. *)
let two_qubit_kind k = k >= 9

let out_of_range q = invalid_arg (Printf.sprintf "Circuit.code: qubit %d out of range" q)

let pack k a b =
  if a < 0 || a > max_qubit then out_of_range a;
  let b = if two_qubit_kind k then b else a in
  if b < 0 || b > max_qubit then out_of_range b;
  k lor (a lsl 4) lor (b lsl 30)

let code k a b = pack (kind_index k) a b

let encode = function
  | Gate.H q -> code H q q
  | Gate.X q -> code X q q
  | Gate.Y q -> code Y q q
  | Gate.Z q -> code Z q q
  | Gate.S q -> code S q q
  | Gate.Sdg q -> code Sdg q q
  | Gate.Rz (_, q) -> code Rz q q
  | Gate.Rx (_, q) -> code Rx q q
  | Gate.Ry (_, q) -> code Ry q q
  | Gate.Cnot (a, b) -> code Cnot a b
  | Gate.Swap (a, b) -> code Swap a b
  | Gate.Rxx (_, a, b) -> code Rxx a b

let angle_of = function
  | Gate.Rz (t, _) | Gate.Rx (t, _) | Gate.Ry (t, _) | Gate.Rxx (t, _, _) -> t
  | Gate.H _ | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.S _ | Gate.Sdg _
  | Gate.Cnot _ | Gate.Swap _ ->
    0.

(* The gate a code stands for, with angle [t] on rotations. *)
let decode c t =
  let a = first c and b = last c in
  match kind c with
  | H -> Gate.H a
  | X -> Gate.X a
  | Y -> Gate.Y a
  | Z -> Gate.Z a
  | S -> Gate.S a
  | Sdg -> Gate.Sdg a
  | Rz -> Gate.Rz (t, a)
  | Rx -> Gate.Rx (t, a)
  | Ry -> Gate.Ry (t, a)
  | Cnot -> Gate.Cnot (a, b)
  | Swap -> Gate.Swap (a, b)
  | Rxx -> Gate.Rxx (t, a, b)

type t = { n_qubits : int; codes : int array; angles : Float.Array.t }

module Builder = struct
  type circuit = t

  (* Gates go into the current chunk, [codes]/[angles], [len] of them.
     A small first chunk doubles up to [chunk] gates; from there full
     chunks are kept in [full] (newest first, [n_full] gates) and a new
     one starts, so growing never copies a large buffer or leaves one
     behind as garbage. *)
  type t = {
    n : int;
    mutable codes : int array;
    mutable angles : Float.Array.t;
    mutable len : int;
    mutable full : (int array * Float.Array.t) list;
    mutable n_full : int;
  }

  let chunk = 4096

  let create ?(capacity = 64) n =
    let capacity = max 0 capacity in
    {
      n;
      codes = Array.make capacity 0;
      angles = Float.Array.create capacity;
      len = 0;
      full = [];
      n_full = 0;
    }

  let n_qubits b = b.n

  (* Room for one more gate in the current chunk. *)
  let next_chunk b =
    let cap = Array.length b.codes in
    if b.full = [] && cap < chunk then begin
      let codes = Array.make (max 16 (min chunk (2 * cap))) 0 in
      let angles = Float.Array.create (Array.length codes) in
      Array.blit b.codes 0 codes 0 b.len;
      Float.Array.blit b.angles 0 angles 0 b.len;
      b.codes <- codes;
      b.angles <- angles
    end
    else begin
      b.full <- (b.codes, b.angles) :: b.full;
      b.n_full <- b.n_full + b.len;
      b.codes <- Array.make chunk 0;
      b.angles <- Float.Array.create chunk;
      b.len <- 0
    end

  (* Inlined into every adder, so that no float is boxed on the way. *)
  let[@inline] push b c t =
    if b.len = Array.length b.codes then next_chunk b;
    Array.unsafe_set b.codes b.len c;
    Float.Array.unsafe_set b.angles b.len t;
    b.len <- b.len + 1

  let add_rotation b c t = push b c t
  let add_code b c = push b c 0.
  let add b g = push b (encode g) (angle_of g)
  let add_list b gs = List.iter (add b) gs
  let add_from b (c : circuit) i = push b c.codes.(i) (Float.Array.get c.angles i)

  let append b (c : circuit) =
    let m = Array.length c.codes in
    let i = ref 0 in
    while !i < m do
      if b.len = Array.length b.codes then next_chunk b;
      let k = min (m - !i) (Array.length b.codes - b.len) in
      Array.blit c.codes !i b.codes b.len k;
      Float.Array.blit c.angles !i b.angles b.len k;
      b.len <- b.len + k;
      i := !i + k
    done

  let length b = b.n_full + b.len

  (* [circuit_gates_built] is charged here, once per builder, rather
     than per add: each charge is a domain-local lookup.  A single full
     chunk is handed over as it is (the next add starts another);
     otherwise the chunks are copied into exact-size arrays. *)
  let to_circuit b : circuit =
    let m = length b in
    Ph_perf.Counter.add Ph_perf.Counter.circuit_gates_built m;
    if b.full = [] && b.len = Array.length b.codes then
      { n_qubits = b.n; codes = b.codes; angles = b.angles }
    else begin
      let codes = Array.make m 0 and angles = Float.Array.create m in
      let pos = ref m in
      let copy (cs, fs) k =
        pos := !pos - k;
        Array.blit cs 0 codes !pos k;
        Float.Array.blit fs 0 angles !pos k
      in
      copy (b.codes, b.angles) b.len;
      List.iter (fun ((cs, _) as c) -> copy c (Array.length cs)) b.full;
      { n_qubits = b.n; codes; angles }
    end
end

let of_gates n gates =
  let m = List.length gates in
  let codes = Array.make m 0 and angles = Float.Array.create m in
  List.iteri
    (fun i g ->
      codes.(i) <- encode g;
      Float.Array.set angles i (angle_of g))
    gates;
  { n_qubits = n; codes; angles }

let empty n = { n_qubits = n; codes = [||]; angles = Float.Array.create 0 }

let n_qubits c = c.n_qubits
let length c = Array.length c.codes
let codes c = c.codes
let angles c = c.angles
let gates c = Array.mapi (fun i code -> decode code (Float.Array.get c.angles i)) c.codes
let to_list c = Array.to_list (gates c)

let gate_to_string c i = Gate.to_string (decode c.codes.(i) (Float.Array.get c.angles i))

let concat a b =
  if a.n_qubits <> b.n_qubits then invalid_arg "Circuit.concat";
  {
    a with
    codes = Array.append a.codes b.codes;
    angles = Float.Array.append a.angles b.angles;
  }

(* One frontier walk over the codes: a [Swap] counts as 3 CNOTs and
   depth 3, an [Rxx] as one CNOT, and the depth is the highest level
   any gate reaches. *)
let counts c =
  let frontier = Array.make (max 1 c.n_qubits) 0 in
  let cnot = ref 0 and single = ref 0 and depth = ref 0 in
  for i = 0 to Array.length c.codes - 1 do
    let code = Array.unsafe_get c.codes i in
    let k = code land 15 and a = first code and b = last code in
    let level = if frontier.(a) > frontier.(b) then frontier.(a) else frontier.(b) in
    let level =
      if k = 10 (* Swap *) then begin
        cnot := !cnot + 3;
        level + 3
      end
      else begin
        if two_qubit_kind k then incr cnot else incr single;
        level + 1
      end
    in
    frontier.(a) <- level;
    frontier.(b) <- level;
    if level > !depth then depth := level
  done;
  !cnot, !single, !depth

let cnot_count c =
  let cnot, _, _ = counts c in
  cnot

let single_qubit_count c =
  let _, single, _ = counts c in
  single

let depth c =
  let _, _, depth = counts c in
  depth

let total_count c =
  let cnot, single, _ = counts c in
  cnot + single

let swap_count c =
  Array.fold_left (fun acc code -> if kind code = Swap then acc + 1 else acc) 0 c.codes

(* One exact-size output: every SWAP becomes three CNOTs, every other
   gate is copied as is. *)
let decompose_swaps c =
  let m = Array.length c.codes + (2 * swap_count c) in
  Ph_perf.Counter.add Ph_perf.Counter.circuit_gates_built m;
  let codes = Array.make m 0 and angles = Float.Array.make m 0. in
  let j = ref 0 in
  Array.iteri
    (fun i g ->
      if kind g = Swap then begin
        let x = first g and y = last g in
        codes.(!j) <- code Cnot x y;
        codes.(!j + 1) <- code Cnot y x;
        codes.(!j + 2) <- code Cnot x y;
        j := !j + 3
      end
      else begin
        codes.(!j) <- g;
        Float.Array.unsafe_set angles !j (Float.Array.unsafe_get c.angles i);
        incr j
      end)
    c.codes;
  { c with codes; angles }

let remap f c =
  let rename code =
    let k = code land 15 in
    let a = f (first code) in
    pack k a (if two_qubit_kind k then f (last code) else a)
  in
  { c with codes = Array.map rename c.codes }

(* Involutions keep their code; S and S† trade kinds; rotations negate
   their angle. *)
let dagger c =
  let m = Array.length c.codes in
  let codes = Array.make m 0 and angles = Float.Array.create m in
  for i = 0 to m - 1 do
    let code = c.codes.(m - 1 - i) and t = Float.Array.get c.angles (m - 1 - i) in
    let code, t =
      match kind code with
      | S | Sdg -> code lxor 1, t (* kinds 4 and 5 *)
      | Rz | Rx | Ry | Rxx -> code, -.t
      | H | X | Y | Z | Cnot | Swap -> code, t
    in
    codes.(i) <- code;
    Float.Array.set angles i t
  done;
  { c with codes; angles }

let used_qubits c =
  let used = Array.make (max 1 c.n_qubits) false in
  Array.iter
    (fun code ->
      used.(first code) <- true;
      used.(last code) <- true)
    c.codes;
  List.filter (fun q -> used.(q)) (List.init c.n_qubits Fun.id)

let compact c =
  let used = used_qubits c in
  let table = Hashtbl.create 16 in
  List.iteri (fun i q -> Hashtbl.replace table q i) used;
  let f q =
    match Hashtbl.find_opt table q with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Circuit.compact: unused qubit %d" q)
  in
  { (remap f c) with n_qubits = max 1 (List.length used) }, f

let apply_gates gates sv =
  Array.iter
    (fun g ->
      match g with
      | Gate.Cnot (a, b) -> Statevector.apply_cnot sv ~control:a ~target:b
      | Gate.Swap (a, b) -> Statevector.apply_swap sv a b
      | Gate.Rxx (t, a, b) ->
        (* exp(-iθ/2 XX) = (H⊗H)·exp(-iθ/2 ZZ)·(H⊗H) *)
        let h = Gate.matrix1 (Gate.H 0) in
        Statevector.apply1 sv a h;
        Statevector.apply1 sv b h;
        Statevector.apply_rzz sv t a b;
        Statevector.apply1 sv a h;
        Statevector.apply1 sv b h
      | g -> Statevector.apply1 sv (List.hd (Gate.qubits g)) (Gate.matrix1 g))
    gates

let apply c sv =
  if Statevector.n_qubits sv <> c.n_qubits then invalid_arg "Circuit.apply";
  apply_gates (gates c) sv

let unitary c =
  if c.n_qubits > 12 then invalid_arg "Circuit.unitary: too many qubits";
  let d = 1 lsl c.n_qubits in
  let m = Matrix.create d d in
  let gates = gates c in
  for k = 0 to d - 1 do
    let sv = Statevector.basis c.n_qubits k in
    apply_gates gates sv;
    for i = 0 to d - 1 do
      Matrix.set m i k (Statevector.amplitude sv i)
    done
  done;
  m

(* Two allocation-light passes: first the frontier walk records each
   gate's level in a flat array, then a backwards fill builds each
   level's bucket list front-to-back, preserving within-level gate
   order. *)
let layers c =
  let gates = gates c in
  let n = Array.length gates in
  let frontier = Array.make (max 1 c.n_qubits) 0 in
  let level_of = Array.make (max 1 n) 0 in
  let max_level = ref 0 in
  Array.iteri
    (fun i code ->
      let a = first code and b = last code in
      let level = 1 + max frontier.(a) frontier.(b) in
      frontier.(a) <- level;
      frontier.(b) <- level;
      level_of.(i) <- level;
      if level > !max_level then max_level := level)
    c.codes;
  let buckets = Array.make (!max_level + 1) [] in
  for i = n - 1 downto 0 do
    let l = level_of.(i) in
    buckets.(l) <- gates.(i) :: buckets.(l)
  done;
  List.init !max_level (fun i -> buckets.(i + 1))

let pp fmt c =
  Format.fprintf fmt "// %d qubits, %d gates@." c.n_qubits (length c);
  Array.iter (fun g -> Format.fprintf fmt "%a@." Gate.pp g) (gates c)
