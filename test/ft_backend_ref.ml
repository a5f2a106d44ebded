(* Reference implementation for the synthesis tests: the FT backend as
   it was before chain ordering moved to bitplanes, kept verbatim as the
   oracle the rewritten [Ft_backend.synthesize] must match gate for gate
   in every mode. *)

open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Ph_schedule
open Ph_synthesis

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
  prefix @ rest

(* Chain mode: each string reuses the longest prefix of its left
   neighbour's order on which the two strings carry identical operators
   (those CNOTs and basis changes cancel at the junction), then places
   the qubits shared with the right neighbour, so the next string can
   extend the chain. *)
let partner_window = 50

let chain_orders events =
  let m = Array.length events in
  let orders = Array.make m [] in
  (* Cancellation partners need not be adjacent: gates of events on
     disjoint qubits commute out of the way (DO's padding blocks sit
     between a layer's leaders, for instance), so each string's partner is
     its nearest non-disjoint neighbour. *)
  let left_partner i s =
    let rec scan j steps =
      if j < 0 || steps > partner_window then None
      else if Pauli_string.disjoint (fst events.(j)) s then scan (j - 1) (steps + 1)
      else Some j
    in
    scan (i - 1) 0
  in
  let right_partner i s =
    let rec scan j steps =
      if j >= m || steps > partner_window then None
      else if Pauli_string.disjoint (fst events.(j)) s then scan (j + 1) (steps + 1)
      else Some j
    in
    scan (i + 1) 0
  in
  for i = 0 to m - 1 do
    let s, _ = events.(i) in
    let matching_prefix () =
      match left_partner i s with
      | None -> []
      | Some j ->
        let prev, _ = events.(j) in
        let rec take = function
          | q :: rest
            when Pauli_string.active s q
                 && Pauli.equal (Pauli_string.get s q) (Pauli_string.get prev q) ->
            q :: take rest
          | _ -> []
        in
        take orders.(j)
    in
    let p = matching_prefix () in
    (* Stable operators first: Z positions (chains shared by whole string
       families) outlast the X/Y corners that vary between neighbours, so
       putting them at the leaf end keeps prefixes matching across many
       consecutive junctions. *)
    let stability_sort qs =
      List.stable_sort
        (fun a b ->
          let r q =
            match Pauli_string.get s q with
            | Pauli.Z -> 0
            | Pauli.X -> 1
            | Pauli.Y | Pauli.I -> 2
          in
          let c = Stdlib.compare (r a) (r b) in
          if c <> 0 then c else Stdlib.compare a b)
        qs
    in
    let right_shared =
      match right_partner i s with
      | None -> []
      | Some k ->
        stability_sort
          (List.filter
             (fun q -> not (List.mem q p))
             (Pauli_string.shared_support s (fst events.(k))))
    in
    let rest =
      List.filter
        (fun q -> not (List.mem q p || List.mem q right_shared))
        (Pauli_string.support s)
    in
    orders.(i) <- p @ right_shared @ rest
  done;
  orders

let synthesize ?(mode = `Chain) ~n_qubits layers =
  let events = flatten layers in
  let m = Array.length events in
  let orders =
    match mode with
    | `Chain -> chain_orders events
    | `Pair | `Independent -> Array.make m []
  in
  let fixed = Array.make m false in
  (match mode with
  | `Chain -> Array.iteri (fun i _ -> fixed.(i) <- true) fixed
  | `Independent ->
    Array.iteri
      (fun i (s, _) ->
        orders.(i) <- Pauli_string.support s;
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
      | None -> orders.(i) <- Pauli_string.support s
      | Some j ->
        let shared = Pauli_string.shared_support (fst events.(j)) s in
        let prefix =
          if fixed.(j) && orders.(j) <> [] then
            (* Order the shared qubits as they appear in the neighbour's
               chain so the common prefix actually matches. *)
            List.filter (fun q -> List.mem q shared) orders.(j)
          else shared
        in
        orders.(i) <- order_with_prefix s prefix
    end
  done;
  let b = Circuit.Builder.create n_qubits in
  let rotations = ref [] in
  for i = 0 to m - 1 do
    let s, theta = events.(i) in
    Emit.emit_chain b s ~order:orders.(i) ~theta;
    rotations := (s, theta) :: !rotations
  done;
  { Emit.circuit = Circuit.Builder.to_circuit b; rotations = List.rev !rotations }
