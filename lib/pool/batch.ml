(* Batch coordinator.  All nondeterminism (which worker runs which job,
   completion order, wall clocks) is confined to the pool dispatch in
   the middle: parsing, cache lookups, coalescing, result assembly and
   cache stores all happen on the coordinator in submission order, so
   every counter and every result slot is a pure function of
   (sources, config, prior cache state). *)

open Paulihedral
module Parser = Ph_pauli_ir.Parser
module Program = Ph_pauli_ir.Program

type job = {
  id : int;
  name : string;
  source : string;
  params : (string * float) list;
}

let job ~id ~name ?(params = []) source = { id; name; source; params }

type job_result =
  | Ok of Report.record
  | Failed of { job_id : int; stage : string; message : string }

type origin = Compiled | From_cache | Coalesced

type outcome = { job : job; result : job_result; origin : origin }

type t = {
  outcomes : outcome list;
  stats : Report.batch;
  cache_counters : Cache.counters option;
}

let ok_count t =
  List.length
    (List.filter (fun o -> match o.result with Ok _ -> true | Failed _ -> false)
       t.outcomes)

let failed t =
  List.filter (fun o -> match o.result with Failed _ -> true | Ok _ -> false)
    t.outcomes

(* ---------- source to cached record ---------- *)

let parse ~params source =
  match Parser.parse ~params source with
  | exception Parser.Parse_error m -> Stdlib.Error m
  | exception e -> Stdlib.Error (Printexc.to_string e)
  | program -> Stdlib.Ok program

let record ~name ~config_name prog metrics trace =
  {
    Report.bench = name;
    config = config_name;
    qubits = Program.n_qubits prog;
    paulis = Program.term_count prog;
    metrics;
    trace;
  }

let compile_record ~config ~config_name ~verify ~name prog =
  match Compiler.compile config prog with
  | exception e -> Stdlib.Error ("compile", Printexc.to_string e)
  | out ->
    let lint_errors = Compiler.lint_errors out in
    if config.Config.lint = Lint.Diag.Error_level && lint_errors <> [] then
      Stdlib.Error ("lint", Lint.Diag.to_string (List.hd lint_errors))
    else if verify && not (Compiler.verified out) then
      Stdlib.Error ("verify", "Pauli-frame verification failed")
    else
      Stdlib.Ok
        (record ~name ~config_name prog out.Compiler.metrics out.Compiler.trace)

(* Canonical key text: the concrete syntax with every parameter printed
   as its resolved numeric value.  [Parser.to_text] keeps symbolic
   labels (it must round-trip), which would make the key depend on
   label spelling and miss the [--param] bindings entirely. *)
let canonical_text prog =
  let buf = Buffer.create 256 in
  List.iter
    (fun (b : Ph_pauli_ir.Block.t) ->
      Buffer.add_char buf '{';
      List.iter
        (fun (t : Ph_pauli.Pauli_term.t) ->
          Buffer.add_string buf
            (Printf.sprintf "(%s, %s), "
               (Ph_pauli.Pauli_string.to_string t.Ph_pauli.Pauli_term.str)
               (Ph_pauli.Float_text.repr t.Ph_pauli.Pauli_term.coeff)))
        (Ph_pauli_ir.Block.terms b);
      Buffer.add_string buf
        (Ph_pauli.Float_text.repr (Ph_pauli_ir.Block.param b).Ph_pauli_ir.Block.value);
      Buffer.add_string buf "};\n")
    (Program.blocks prog);
  Buffer.contents buf

let key ~config_fp prog = Cache.key ~config_fp ~text:(canonical_text prog)

(* The [verified] field says explicitly that the record passed the
   Pauli-frame verifier, so a payload can never be mistaken for an
   unchecked result. *)
let payload_of_record record =
  Json.Obj [ "verified", Json.Bool true; "record", Report.record_to_json record ]

let record_of_payload payload =
  match Json.member "verified" payload, Json.member "record" payload with
  | Some (Json.Bool true), Some r -> (
    try Some (Report.record_of_json r) with Json.Parse_error _ -> None)
  | _ -> None

(* The stored record may carry another writer's row identity (a bench
   table label, another file name): answer with the caller's. *)
let lookup cache key ~bench ~config =
  Option.map
    (fun r -> { r with Report.bench; config })
    (Option.bind (Cache.find cache key) record_of_payload)

let publish cache key ~verified record =
  if verified then Cache.store cache key (payload_of_record record)

let compile_one ~config ~config_name ~verify (j : job) prog =
  match compile_record ~config ~config_name ~verify ~name:j.name prog with
  | Stdlib.Ok record -> Ok record
  | Stdlib.Error (stage, message) -> Failed { job_id = j.id; stage; message }

(* ---------- the batch ---------- *)

type prep =
  | P_failed of job_result
  | P_hit of Report.record
  | P_compile of { key : string option; program : Program.t }
  | P_coalesce of int (* array index of the job compiling the same key *)

let run ?cache ?(jobs = 1) ?(verify = true) ~config ~config_name job_list =
  let t0 = Unix.gettimeofday () in
  let cacheable = Config.cacheable config in
  let cache = if cacheable then cache else None in
  let config_fp = Config.fingerprint config in
  let js = Array.of_list job_list in
  let n = Array.length js in
  (* Phase 1 (coordinator, submission order): parse, look up, coalesce. *)
  let seen : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let prep =
    Array.mapi
      (fun i (j : job) ->
        match parse ~params:j.params j.source with
        | Stdlib.Error message ->
          P_failed (Failed { job_id = j.id; stage = "parse"; message })
        | Stdlib.Ok program -> (
          let key = if cacheable then Some (key ~config_fp program) else None in
          let hit =
            match key, cache with
            | Some k, Some c -> lookup c k ~bench:j.name ~config:config_name
            | _ -> None
          in
          match hit with
          | Some record -> P_hit record
          | None -> (
            match key with
            | Some k -> (
              match Hashtbl.find_opt seen k with
              | Some i0 -> P_coalesce i0
              | None ->
                Hashtbl.add seen k i;
                P_compile { key; program })
            | None -> P_compile { key; program })))
      js
  in
  (* Phase 2 (pool): compile the unique misses. *)
  let to_compile = ref [] in
  Array.iteri
    (fun i p ->
      match p with
      | P_compile { program; _ } -> to_compile := (i, program) :: !to_compile
      | _ -> ())
    prep;
  let to_compile = List.rev !to_compile in
  let compiled =
    Pool.map_timed ~jobs
      (fun (i, program) -> compile_one ~config ~config_name ~verify js.(i) program)
      to_compile
  in
  (* Phase 3 (coordinator, submission order): assemble and store. *)
  let results : job_result option array = Array.make n None in
  let timings = Array.make n { Pool.queue_s = 0.; run_s = 0. } in
  List.iter2
    (fun (i, _) (result, timing) ->
      let result =
        match result with
        | Stdlib.Ok r -> r
        | Stdlib.Error e ->
          Failed
            {
              job_id = js.(i).id;
              stage = "compile";
              message = Printexc.to_string e;
            }
      in
      results.(i) <- Some result;
      timings.(i) <- timing)
    to_compile compiled;
  let outcomes =
    Array.to_list
      (Array.mapi
         (fun i (j : job) ->
           match prep.(i) with
           | P_failed r -> { job = j; result = r; origin = Compiled }
           | P_hit record -> { job = j; result = Ok record; origin = From_cache }
           | P_compile _ ->
             { job = j; result = Option.get results.(i); origin = Compiled }
           | P_coalesce i0 ->
             let result =
               match Option.get results.(i0) with
               | Ok record -> Ok { record with Report.bench = j.name }
               | Failed f ->
                 Failed { job_id = j.id; stage = f.stage; message = f.message }
             in
             { job = j; result; origin = Coalesced })
         js)
  in
  (match cache with
  | None -> ()
  | Some c ->
    Array.iteri
      (fun i p ->
        match p, results.(i) with
        | P_compile { key = Some k; _ }, Some (Ok record) ->
          publish c k ~verified:verify record
        | _ -> ())
      prep);
  let served, compiled_n =
    List.fold_left
      (fun (h, m) o ->
        match o.origin, o.result with
        | (From_cache | Coalesced), _ -> h + 1, m
        | Compiled, Ok _ -> h, m + 1
        | Compiled, Failed f ->
          (* parse failures never reached the cache; compile-stage
             failures were genuine misses *)
          if f.stage = "parse" then h, m else h, m + 1)
      (0, 0) outcomes
  in
  {
    outcomes;
    stats =
      {
        Report.batch_jobs = n;
        batch_workers = (if n = 0 then 0 else max 1 (min jobs n));
        batch_wall_s = Unix.gettimeofday () -. t0;
        job_wall_s =
          Array.to_list (Array.map (fun t -> t.Pool.run_s) timings);
        job_queue_s =
          Array.to_list (Array.map (fun t -> t.Pool.queue_s) timings);
        cache_hits = served;
        cache_misses = compiled_n;
      };
    cache_counters = Option.map Cache.counters cache;
  }

(* ---------- JSON report ---------- *)

let origin_name = function
  | Compiled -> "compiled"
  | From_cache -> "cache"
  | Coalesced -> "coalesced"

let outcome_to_json ~timings (o : outcome) =
  let base = [ "job", Json.Int o.job.id; "name", Json.String o.job.name ] in
  match o.result with
  | Ok record ->
    let record = if timings then record else Report.normalize_record record in
    Json.Obj
      (base
      @ [
          "status", Json.String "ok";
          "origin", Json.String (origin_name o.origin);
          "record", Report.record_to_json record;
        ])
  | Failed f ->
    Json.Obj
      (base
      @ [
          "status", Json.String "failed";
          "stage", Json.String f.stage;
          "message", Json.String f.message;
        ])

let report_json ?(timings = false) t =
  Json.Obj
    [
      "schema", Json.String "phc-batch/1";
      "results", Json.List (List.map (outcome_to_json ~timings) t.outcomes);
      ( "cache",
        match t.cache_counters with
        | Some c -> Cache.counters_to_json c
        | None -> Json.Null );
      "batch", Report.batch_to_json ~timings t.stats;
    ]
