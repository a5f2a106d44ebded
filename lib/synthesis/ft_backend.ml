open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_schedule

(* Remove exactly the first physically-equal occurrence: terms may be
   aliased (the same object appearing twice in a block), and a filter on
   [!=] would drop every alias at once, silently losing rotations. *)
let rec remove_first t = function
  | [] -> []
  | u :: rest -> if u == t then rest else u :: remove_first t rest

(* Greedy most-overlap ordering of a block's terms, seeded by the string
   emitted just before the block (Algorithm 2 lines 10-13). *)
let most_overlap_sort ~prev terms =
  let remaining = ref terms in
  let pick f =
    match !remaining with
    | [] -> None
    | _ ->
      let best =
        List.fold_left
          (fun acc t -> match acc with
            | None -> Some t
            | Some u -> if f t > f u then Some t else acc)
          None !remaining
      in
      (match best with
      | Some t ->
        remaining := remove_first t !remaining;
        best
      | None -> None)
  in
  let score_vs str (t : Pauli_term.t) = Pauli_string.overlap str t.str in
  let first =
    match prev with
    | Some str -> pick (score_vs str)
    | None -> pick (fun _ -> 0)
  in
  match first with
  | None -> []
  | Some first ->
    let out = ref [ first ] in
    let last = ref first in
    let continue_ = ref true in
    while !continue_ do
      match pick (score_vs (!last : Pauli_term.t).str) with
      | None -> continue_ := false
      | Some t ->
        out := t :: !out;
        last := t
    done;
    List.rev !out

(* Flatten scheduled layers into the final string sequence. *)
let flatten layers =
  let events = ref [] in
  let prev = ref None in
  List.iter
    (fun layer ->
      List.iter
        (fun blk ->
          let terms = most_overlap_sort ~prev:!prev (Block.terms blk) in
          List.iter
            (fun (t : Pauli_term.t) ->
              if not (Pauli_string.is_identity t.str) then begin
                events := (t.str, Emit.angle (Block.param blk) t.coeff) :: !events;
                prev := Some t.str
              end)
            terms)
        layer.Layer.blocks)
    layers;
  Array.of_list (List.rev !events)

(* Chain order with [prefix] at the leaf end (cancellation side) and the
   remaining support ascending, root last. *)
let order_with_prefix str prefix =
  let support = Pauli_string.support str in
  let rest = List.filter (fun q -> not (List.mem q prefix)) support in
  Array.of_list (prefix @ rest)

(* Chain mode: each string reuses the longest prefix of its left
   neighbour's order on which the two strings carry identical operators
   (those CNOTs and basis changes cancel at the junction), then places
   the qubits shared with the right neighbour, so the next string can
   extend the chain. *)
let partner_window = 50

let chain_orders events =
  let m = Array.length events in
  let orders = Array.make m [||] in
  (* Every string's planes, blitted once into flat [m × words] rows
     ([sup] is x ∨ z): the partner scans, the prefix match and the
     qubit classes below are word operations on these rows. *)
  let words =
    Array.fold_left
      (fun acc (s, _) -> max acc (Bits.words_for (Pauli_string.n_qubits s)))
      1 events
  in
  let px = Array.make (m * words) 0 and pz = Array.make (m * words) 0 in
  let sup = Array.make (m * words) 0 in
  Array.iteri
    (fun i (s, _) ->
      let o = i * words in
      Pauli_string.blit_planes s px pz o;
      for w = o to o + words - 1 do
        sup.(w) <- px.(w) lor pz.(w)
      done)
    events;
  (* Cancellation partners need not be adjacent: gates of events on
     disjoint qubits commute out of the way (DO's padding blocks sit
     between a layer's leaders, for instance), so each string's partner is
     its nearest non-disjoint neighbour. *)
  let overlaps i j =
    let oi = i * words and oj = j * words in
    let rec go w =
      w < words && (sup.(oi + w) land sup.(oj + w) <> 0 || go (w + 1))
    in
    go 0
  in
  let rec left_partner i j steps =
    if j < 0 || steps > partner_window then -1
    else if overlaps i j then j
    else left_partner i (j - 1) (steps + 1)
  in
  let rec right_partner i j steps =
    if j >= m || steps > partner_window then -1
    else if overlaps i j then j
    else right_partner i (j + 1) (steps + 1)
  in
  (* Per-string scratch: [taken] marks the qubits already placed, [buf]
     collects the order before it is copied out. *)
  let taken = Array.make words 0 in
  let buf = Array.make (words * Bits.word_bits) 0 in
  let len = ref 0 in
  let push q =
    buf.(!len) <- q;
    incr len;
    let w = Bits.word_of q in
    taken.(w) <- taken.(w) lor (1 lsl Bits.bit_of q)
  in
  let bit plane o q = (plane.(o + Bits.word_of q) lsr Bits.bit_of q) land 1 in
  (* Push the qubits of one word of a class mask, ascending. *)
  let push_bits w b =
    let b = ref b in
    while !b <> 0 do
      let low = !b land - !b in
      push ((w * Bits.word_bits) + Bits.popcount (low - 1));
      b := !b land (!b - 1)
    done
  in
  for i = 0 to m - 1 do
    let oi = i * words in
    Array.fill taken 0 words 0;
    len := 0;
    (* The longest prefix of the left partner's order on which both
       strings carry the same non-identity operator. *)
    let j = left_partner i (i - 1) 0 in
    if j >= 0 then begin
      let oj = j * words and prev = orders.(j) in
      let rec take t =
        if t < Array.length prev then begin
          let q = prev.(t) in
          if
            bit sup oi q = 1
            && bit px oi q = bit px oj q
            && bit pz oi q = bit pz oj q
          then begin
            push q;
            take (t + 1)
          end
        end
      in
      take 0
    end;
    (* Then the operators shared with the right partner, stable ones
       first: Z positions (chains shared by whole string families)
       outlast the X/Y corners that vary between neighbours, so putting
       them at the leaf end keeps prefixes matching across many
       consecutive junctions.  Z-only, then X-only, then Y (x ∧ z)
       bits, each class ascending. *)
    let k = right_partner i (i + 1) 0 in
    if k >= 0 then begin
      let ok = k * words in
      (* One class at a time: [shared ∧ ¬taken ∧ class].  The classes
         are disjoint, so pushing one never changes another's bits. *)
      let push_class ~x ~z =
        for w = 0 to words - 1 do
          let x1 = px.(oi + w) and z1 = pz.(oi + w) in
          let shared =
            lnot (x1 lxor px.(ok + w))
            land lnot (z1 lxor pz.(ok + w))
            land (x1 lor z1) land lnot taken.(w)
          in
          push_bits w
            (shared
            land (if x then x1 else lnot x1)
            land if z then z1 else lnot z1)
        done
      in
      push_class ~x:false ~z:true;
      push_class ~x:true ~z:false;
      push_class ~x:true ~z:true
    end;
    (* The rest of the support, ascending. *)
    for w = 0 to words - 1 do
      push_bits w (sup.(oi + w) land lnot taken.(w))
    done;
    orders.(i) <- Array.sub buf 0 !len
  done;
  orders

let synthesize ?(mode = `Chain) ~n_qubits layers =
  let events = flatten layers in
  let m = Array.length events in
  let orders =
    match mode with
    | `Chain -> chain_orders events
    | `Pair | `Independent -> Array.make m [||]
  in
  let fixed = Array.make m false in
  (match mode with
  | `Chain -> Array.iteri (fun i _ -> fixed.(i) <- true) fixed
  | `Independent ->
    Array.iteri
      (fun i (s, _) ->
        orders.(i) <- Array.of_list (Pauli_string.support s);
        fixed.(i) <- true)
      events
  | `Pair -> ());
  if mode = `Pair && m > 1 then begin
    (* Greedy matching of adjacent strings by descending shared-operator
       count: the junctions with the largest cancellation potential are
       synthesized as pairs first (Algorithm 2 lines 1-9 at string
       granularity). *)
    let junctions =
      List.init (m - 1) (fun i ->
          let a, _ = events.(i) and b, _ = events.(i + 1) in
          Pauli_string.overlap a b, i)
      |> List.filter (fun (ov, _) -> ov > 0)
      |> List.sort (fun a b -> Stdlib.compare (fst b) (fst a))
    in
    List.iter
      (fun (_, i) ->
        if (not fixed.(i)) && not fixed.(i + 1) then begin
          let a, _ = events.(i) and b, _ = events.(i + 1) in
          let shared = Pauli_string.shared_support a b in
          orders.(i) <- order_with_prefix a shared;
          orders.(i + 1) <- order_with_prefix b shared;
          fixed.(i) <- true;
          fixed.(i + 1) <- true
        end)
      junctions
  end;
  (* Leftover strings follow whichever neighbour overlaps more, matching
     the prefix of that neighbour's (already fixed) chain when possible. *)
  for i = 0 to m - 1 do
    if not fixed.(i) then begin
      let s, _ = events.(i) in
      let ov_left = if i > 0 then Pauli_string.overlap (fst events.(i - 1)) s else 0 in
      let ov_right = if i < m - 1 then Pauli_string.overlap s (fst events.(i + 1)) else 0 in
      let neighbour =
        if ov_left = 0 && ov_right = 0 then None
        else if ov_left >= ov_right then Some (i - 1)
        else Some (i + 1)
      in
      match neighbour with
      | None -> orders.(i) <- Array.of_list (Pauli_string.support s)
      | Some j ->
        let shared = Pauli_string.shared_support (fst events.(j)) s in
        let prefix =
          if fixed.(j) && Array.length orders.(j) > 0 then
            (* Order the shared qubits as they appear in the neighbour's
               chain so the common prefix actually matches. *)
            List.filter (fun q -> List.mem q shared) (Array.to_list orders.(j))
          else shared
        in
        orders.(i) <- order_with_prefix s prefix
    end
  done;
  (* Sized exactly, so the buffers never grow and become the circuit. *)
  let capacity = Array.fold_left (fun acc (s, _) -> acc + Emit.chain_length s) 0 events in
  let b = Circuit.Builder.create ~capacity n_qubits in
  let rotations = ref [] in
  for i = 0 to m - 1 do
    let s, theta = events.(i) in
    Emit.emit_chain b s ~order:orders.(i) ~theta;
    rotations := (s, theta) :: !rotations
  done;
  { Emit.circuit = Circuit.Builder.to_circuit b; rotations = List.rev !rotations }
