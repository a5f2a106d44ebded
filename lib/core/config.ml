open Ph_hardware

type schedule =
  | Program_order
  | Gco
  | Depth_oriented
  | Max_overlap
  | Phoenix_like

type backend =
  | Ft
  | Sc of { coupling : Coupling.t; noise : Noise_model.t option }
  | Ion_trap

type t = {
  schedule : schedule;
  backend : backend;
  peephole : bool;
  lint : Ph_lint.Diag.level;
  window : int;
  analyze : bool;
  gap_threshold : float;
  sched_jobs : int;
}

let default_window = Ph_schedule.Depth_oriented.default_window
let default_gap_threshold = 8.

let ft ?(schedule = Gco) ?(lint = Ph_lint.Diag.Off) ?(window = default_window)
    ?(analyze = false) ?(gap_threshold = default_gap_threshold)
    ?(sched_jobs = 1) () =
  {
    schedule;
    backend = Ft;
    peephole = true;
    lint;
    window;
    analyze;
    gap_threshold;
    sched_jobs;
  }

let sc ?(schedule = Depth_oriented) ?noise ?(lint = Ph_lint.Diag.Off)
    ?(window = default_window) ?(analyze = false)
    ?(gap_threshold = default_gap_threshold) ?(sched_jobs = 1) coupling =
  {
    schedule;
    backend = Sc { coupling; noise };
    peephole = true;
    lint;
    window;
    analyze;
    gap_threshold;
    sched_jobs;
  }

(* The ion-trap backend's native lowering interleaves its own cleanup,
   and [Compiler.compile] does not run the generic peephole stage for
   it; the default must say so (the linter's CFG001 flags a config that
   claims otherwise). *)
let ion_trap ?(schedule = Gco) ?(lint = Ph_lint.Diag.Off) ?(window = default_window)
    ?(analyze = false) ?(gap_threshold = default_gap_threshold)
    ?(sched_jobs = 1) () =
  {
    schedule;
    backend = Ion_trap;
    peephole = false;
    lint;
    window;
    analyze;
    gap_threshold;
    sched_jobs;
  }

(* ---------- stable fingerprints (compile-cache keys) ---------- *)

(* Bump whenever any pass can change its output for an unchanged
   (program, config) pair — the tag is part of every cache key, so a
   bump invalidates all previously cached compiles. *)
let version_tag = "paulihedral/13"

let schedule_name = function
  | Program_order -> "none"
  | Gco -> "gco"
  | Depth_oriented -> "do"
  | Max_overlap -> "maxov"
  | Phoenix_like -> "phoenix"

let backend_fingerprint = function
  | Ft -> "ft"
  | Ion_trap -> "it"
  | Sc { coupling; noise } ->
    let edge (a, b) = if a <= b then a, b else b, a in
    let edges = List.sort compare (List.map edge (Coupling.edges coupling)) in
    Printf.sprintf "sc{n=%d;edges=%s;noise=%s}"
      (Coupling.n_qubits coupling)
      (String.concat ","
         (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) edges))
      (match noise with None -> "none" | Some _ -> "opaque")

(* [sched_jobs] is deliberately absent from the fingerprint: the arena's
   parallel argmax is bit-identical to the sequential scan at any job
   count (see [Ph_schedule.Arena]), so compiles at different
   [--sched-jobs] share cache entries. *)
let fingerprint t =
  Printf.sprintf
    "v=%s;schedule=%s;backend=%s;peephole=%b;lint=%s;window=%d;analyze=%b;gap=%s"
    version_tag (schedule_name t.schedule)
    (backend_fingerprint t.backend)
    t.peephole
    (Ph_lint.Diag.level_to_string t.lint)
    t.window t.analyze
    (Ph_pauli.Float_text.repr t.gap_threshold)

(* A noise model has no stable textual identity, so a noisy SC config
   must never be served from (or stored into) the compile cache. *)
let cacheable t =
  match t.backend with Sc { noise = Some _; _ } -> false | _ -> true
