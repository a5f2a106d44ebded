(* Oracle and metamorphic properties driven by the fuzzer.

   Oracles: every pipeline's output must pass the scalable Pauli-frame
   verifier, and on small instances also the dense unitary checker.
   Metamorphic: printing and reparsing is the identity on programs, and
   block- / term-permuted inputs must still verify — with exact unitary
   equivalence whenever all terms of the program mutually commute (then
   any ordering implements the same rotation product). *)

open Ph_pauli
open Ph_pauli_ir
open Ph_gatelevel
open Paulihedral

type pipeline = { name : string; compile : Program.t -> Pipelines.run }

(* Default SC device for a program: the tightest line, the layout with
   the worst routing pressure (every non-neighbor interaction swaps). *)
let line_for prog = Ph_hardware.Devices.line (max 2 (Program.n_qubits prog))

let ft_pipelines () =
  [
    { name = "ph_ft"; compile = Pipelines.ph (Config.ft ()) };
    {
      name = "ph_phx";
      compile = Pipelines.ph (Config.ft ~schedule:Config.Phoenix_like ());
    };
    { name = "ph_it"; compile = Pipelines.ph (Config.ion_trap ()) };
    { name = "tk_ft"; compile = (fun p -> Pipelines.tk_ft p) };
    { name = "naive_ft"; compile = (fun p -> Pipelines.naive_ft p) };
  ]

let sc_pipelines ?coupling () =
  let dev p = match coupling with Some c -> c | None -> line_for p in
  [
    { name = "ph_sc"; compile = (fun p -> Pipelines.ph (Config.sc (dev p)) p) };
    {
      name = "ph_phx_sc";
      compile =
        (fun p -> Pipelines.ph (Config.sc ~schedule:Config.Phoenix_like (dev p)) p);
    };
    { name = "tk_sc"; compile = (fun p -> Pipelines.tk_sc (dev p) p) };
    { name = "naive_sc"; compile = (fun p -> Pipelines.naive_sc (dev p) p) };
  ]

let default_pipelines ?coupling () = ft_pipelines () @ sc_pipelines ?coupling ()

type failure = {
  pipeline : string; (* pipeline name, or "parser" / "metamorphic" *)
  check : string;
  detail : string;
}

(* ---------- oracle checks per pipeline ---------- *)

let dense_ok ~dense_limit (run : Pipelines.run) prog =
  if Program.n_qubits prog > dense_limit then true
  else
    match run.Pipelines.initial_layout, run.Pipelines.final_layout with
    | Some initial, Some final ->
      Circuit.n_qubits run.Pipelines.circuit > 12
      || Ph_verify.Unitary_check.sc_circuit_implements
           ~circuit:run.Pipelines.circuit ~rotations:run.Pipelines.rotations
           ~initial ~final
    | _ ->
      Ph_verify.Unitary_check.circuit_implements run.Pipelines.circuit
        run.Pipelines.rotations

let check_pipeline ~dense_limit pl prog =
  match pl.compile prog with
  | exception e ->
    [ { pipeline = pl.name; check = "exception"; detail = Printexc.to_string e } ]
  | run ->
    let frame =
      match Pipelines.verified run with
      | true -> []
      | false ->
        [
          {
            pipeline = pl.name;
            check = "pauli_frame";
            detail = "circuit does not implement its claimed rotation trace";
          };
        ]
      | exception e ->
        [
          {
            pipeline = pl.name;
            check = "pauli_frame";
            detail = "verifier raised " ^ Printexc.to_string e;
          };
        ]
    in
    let dense =
      match dense_ok ~dense_limit run prog with
      | true -> []
      | false ->
        [
          {
            pipeline = pl.name;
            check = "dense";
            detail = "dense unitary differs from the rotation product";
          };
        ]
      | exception e ->
        [
          {
            pipeline = pl.name;
            check = "dense";
            detail = "dense check raised " ^ Printexc.to_string e;
          };
        ]
    in
    frame @ dense

(* ---------- per-stage linter ---------- *)

(* Every generated program must compile lint-clean at error severity on
   both backends: warnings (identity strings, zero weights, duplicate
   terms) are expected from the adversarial generator families, but an
   error-severity diagnostic means some pass broke a stage invariant —
   and, unlike the end-to-end oracles, names the stage that did. *)
let lint ?coupling prog =
  let dev = match coupling with Some c -> c | None -> line_for prog in
  let configs =
    [
      "ft", Config.ft ~lint:Ph_lint.Diag.Error_level ();
      ( "ft_phx",
        Config.ft ~schedule:Config.Phoenix_like ~lint:Ph_lint.Diag.Error_level () );
      "sc", Config.sc ~lint:Ph_lint.Diag.Error_level dev;
      "it", Config.ion_trap ~lint:Ph_lint.Diag.Error_level ();
    ]
  in
  List.concat_map
    (fun (name, config) ->
      match Compiler.compile config prog with
      | exception e ->
        [
          {
            pipeline = "lint";
            check = name ^ "_exception";
            detail = "lint compile raised " ^ Printexc.to_string e;
          };
        ]
      | out ->
        List.map
          (fun (d : Ph_lint.Diag.t) ->
            {
              pipeline = "lint";
              check = Printf.sprintf "%s_%s" name d.Ph_lint.Diag.code;
              detail = Ph_lint.Diag.to_string d;
            })
          (Compiler.lint_errors out))
    configs

(* ---------- parse ∘ print = identity ---------- *)

let program_equal a b =
  let term_equal (s : Pauli_term.t) (t : Pauli_term.t) =
    Pauli_string.equal s.Pauli_term.str t.Pauli_term.str
    && s.Pauli_term.coeff = t.Pauli_term.coeff
  in
  let block_equal (x : Block.t) (y : Block.t) =
    x.Block.param.Block.label = y.Block.param.Block.label
    && x.Block.param.Block.value = y.Block.param.Block.value
    && List.compare_lengths x.Block.terms y.Block.terms = 0
    && List.for_all2 term_equal x.Block.terms y.Block.terms
  in
  Program.n_qubits a = Program.n_qubits b
  && List.compare_lengths (Program.blocks a) (Program.blocks b) = 0
  && List.for_all2 block_equal (Program.blocks a) (Program.blocks b)

let roundtrip ~params prog =
  let text = Parser.to_text prog in
  match Parser.parse ~params text with
  | exception Parser.Parse_error m ->
    [ { pipeline = "parser"; check = "roundtrip"; detail = "reparse failed: " ^ m } ]
  | reparsed ->
    if program_equal prog reparsed then []
    else
      [
        {
          pipeline = "parser";
          check = "roundtrip";
          detail = "parse (print p) differs from p";
        };
      ]

(* ---------- bit-packed Pauli kernel vs byte-per-qubit oracle ---------- *)

(* Every word-parallel [Pauli_string] operation must agree with the
   naive byte-per-qubit reference ([Pauli_ref]) on the generated
   program's own strings plus a few random ones of the same width; a
   divergence here localizes a representation bug that the end-to-end
   oracles would only see as a wrong circuit. *)
let pauli_ops rng prog =
  let n = Program.n_qubits prog in
  let program_strings =
    List.concat_map
      (fun b -> List.map (fun (t : Pauli_term.t) -> t.Pauli_term.str) (Block.terms b))
      (Program.blocks prog)
  in
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  let random_string () = Pauli_string.make n (fun _ -> Rng.choose rng Pauli.all) in
  let strings =
    Array.of_list (take 8 program_strings @ List.init 4 (fun _ -> random_string ()))
  in
  let fails = ref [] in
  let expect check p q ok =
    if not ok then
      fails :=
        {
          pipeline = "pauli_ops";
          check;
          detail =
            Printf.sprintf "bit-packed %s disagrees with byte oracle on %s / %s"
              check (Pauli_string.to_string p) (Pauli_string.to_string q);
        }
        :: !fails
  in
  let sign c = Stdlib.compare c 0 in
  Array.iter
    (fun p ->
      let rp = Pauli_ref.of_string p in
      expect "weight" p p (Pauli_string.weight p = Pauli_ref.weight rp);
      expect "support" p p (Pauli_string.support p = Pauli_ref.support rp);
      expect "support_set" p p
        (Qubit_set.to_list (Pauli_string.support_set p) = Pauli_ref.support rp);
      expect "to_string" p p
        (Pauli_string.equal p (Pauli_string.of_string (Pauli_string.to_string p))))
    strings;
  Array.iter
    (fun p ->
      let rp = Pauli_ref.of_string p in
      Array.iter
        (fun q ->
          let rq = Pauli_ref.of_string q in
          expect "commutes" p q
            (Pauli_string.commutes p q = Pauli_ref.commutes rp rq);
          expect "overlap" p q (Pauli_string.overlap p q = Pauli_ref.overlap rp rq);
          expect "disjoint" p q
            (Pauli_string.disjoint p q = Pauli_ref.disjoint rp rq);
          expect "shared_support" p q
            (Pauli_string.shared_support p q = Pauli_ref.shared_support rp rq);
          expect "compare_lex" p q
            (sign (Pauli_string.compare_lex p q) = sign (Pauli_ref.compare_lex rp rq));
          let k, r = Pauli_string.mul p q in
          let k', r' = Pauli_ref.mul rp rq in
          expect "mul" p q (k = k' && Pauli_ref.equal (Pauli_string.to_ops r) r'))
        strings)
    strings;
  List.rev !fails

(* ---------- metamorphic permutation checks ---------- *)

(* Every pair of terms across the whole program commutes: any execution
   order yields the same unitary, so permuted compiles must agree. *)
let fully_commuting prog =
  let strings =
    List.concat_map
      (fun b -> List.map (fun (t : Pauli_term.t) -> t.Pauli_term.str) (Block.terms b))
      (Program.blocks prog)
  in
  let rec go = function
    | [] -> true
    | s :: rest ->
      List.for_all (fun t -> Pauli_string.commutes s t) rest && go rest
  in
  go strings

let block_permuted rng prog =
  Program.with_blocks prog (Rng.shuffle_list rng (Program.blocks prog))

let term_permuted rng prog =
  Program.with_blocks prog
    (List.map
       (fun b -> Block.with_terms b (Rng.shuffle_list rng (Block.terms b)))
       (Program.blocks prog))

let metamorphic ~dense_limit rng prog =
  let commuting = fully_commuting prog in
  let small = Program.n_qubits prog <= dense_limit in
  let check_variant name variant =
    match Pipelines.ph (Config.ft ()) variant with
    | exception e ->
      [
        {
          pipeline = "metamorphic";
          check = name;
          detail = "permuted compile raised " ^ Printexc.to_string e;
        };
      ]
    | run ->
      (if Pipelines.verified run then []
       else
         [
           {
             pipeline = "metamorphic";
             check = name;
             detail = "permuted input fails Pauli-frame verification";
           };
         ])
      @
      if not (commuting && small) then []
      else
        let base = Pipelines.ph (Config.ft ()) prog in
        if
          Ph_linalg.Matrix.equal_up_to_phase
            (Circuit.unitary run.Pipelines.circuit)
            (Circuit.unitary base.Pipelines.circuit)
        then []
        else
          [
            {
              pipeline = "metamorphic";
              check = name ^ "_unitary";
              detail = "commuting permuted input compiles to a different unitary";
            };
          ]
  in
  (if Program.block_count prog < 2 then []
   else check_variant "block_perm" (block_permuted rng prog))
  @ check_variant "term_perm" (term_permuted rng prog)

(* ---------- Phoenix optimizer preserves semantics ---------- *)

(* The [Ph_opt.Pass] rewrite must be exact on every generator family:
   structurally, every rewritten block is Z/I-only and the stats
   accounting explains the post-opt block count; semantically, the
   phoenix compile passes frame verification, and on small fully
   commuting programs (where execution order is irrelevant) its circuit
   is unitarily equal to the unoptimized compile of the same program. *)
let opt_preserves ~dense_limit prog =
  let fail check detail = { pipeline = "opt"; check; detail } in
  match Ph_opt.Pass.run prog with
  | exception e -> [ fail "exception" (Printexc.to_string e) ]
  | pass ->
    let post = pass.Ph_opt.Pass.program in
    let structural =
      (if Program.n_qubits post = Program.n_qubits prog then []
       else [ fail "n_qubits" "optimizer changed the qubit count" ])
      @ (if
           List.for_all
             (fun (g : Ph_opt.Pass.group) ->
               List.for_all
                 (fun b ->
                   List.for_all
                     (fun (t : Pauli_term.t) ->
                       Ph_baselines.Symplectic.is_diagonal t.Pauli_term.str)
                     (Block.terms b))
                 g.Ph_opt.Pass.blocks)
             pass.Ph_opt.Pass.groups
         then []
         else [ fail "diagonal" "a rewritten block contains a non-Z/I string" ])
      @ (let s = pass.Ph_opt.Pass.stats in
         let blocks = Program.block_count post in
         if
           s.Ph_opt.Pass.groups - s.Ph_opt.Pass.fused_blocks = blocks
           || (s.Ph_opt.Pass.groups = s.Ph_opt.Pass.fused_blocks && blocks = 1)
         then []
         else
           [
             fail "accounting"
               (Printf.sprintf "%d groups - %d fused does not explain %d blocks"
                  s.Ph_opt.Pass.groups s.Ph_opt.Pass.fused_blocks blocks);
           ])
      @
      match Ph_lint.Diag.errors (Ph_lint.Check_ir.program post) with
      | [] -> []
      | d :: _ ->
        [ fail "post_ir" ("post-opt IR lint error: " ^ Ph_lint.Diag.to_string d) ]
    in
    let semantic =
      match Pipelines.ph (Config.ft ~schedule:Config.Phoenix_like ()) prog with
      | exception e ->
        [ fail "compile" ("phoenix compile raised " ^ Printexc.to_string e) ]
      | run ->
        (if Pipelines.verified run then []
         else [ fail "pauli_frame" "phoenix circuit fails frame verification" ])
        @
        if not (fully_commuting prog && Program.n_qubits prog <= dense_limit) then
          []
        else
          let base = Pipelines.ph (Config.ft ()) prog in
          if
            Ph_linalg.Matrix.equal_up_to_phase
              (Circuit.unitary run.Pipelines.circuit)
              (Circuit.unitary base.Pipelines.circuit)
          then []
          else
            [
              fail "unitary"
                "phoenix compiles a commuting program to a different unitary";
            ]
    in
    structural @ semantic
