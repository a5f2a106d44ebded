(* The serve-mix workload: an in-process daemon with one worker domain,
   fed through [Ph_serve.Client] over [conns] connections.

   The request stream is seeded: each request names a program of the
   pool, and about half of them repeat a program sent earlier, so cache
   hits (reads) sit beside misses that compile and store (writes).  A run
   sends consecutive stretches of one stream in windows, each a
   closed-loop slice followed by open-loop Poisson traffic at the two
   fixed rates [r1] and [r2]. *)

open Paulihedral
module Server = Ph_serve.Server
module Protocol = Ph_serve.Protocol

(* Requests/s of the two open-loop phases.  The closed-loop capacity
   with two connections was 330-830 requests/s on a 2-CPU x86-64
   container when the benchmark was written, swinging with the load of
   other tenants; [r1] is about a third of the low end, so it stays a
   light load when the machine is slow, and [r2] about two-thirds of it.
   Fixed, so later commits are measured at the same offered load. *)
let r1 = 120.
let r2 = 300.
let conns = 2

(* Jobs of the pool that the untraced run also times on the in-process
   compile path. *)
let compile_jobs = 360

(* A run is [windows] windows, each one closed-loop slice of [slice]
   requests, then [n1] requests at [r1], then [n2] at [r2].  Interleaving
   the phases spreads each over the whole run, so a burst of load from
   elsewhere on the machine hits all of them alike. *)
type plan = { windows : int; slice : int; n1 : int; n2 : int }

let plan ~seconds =
  let windows = max 3 (truncate (seconds /. 2.)) in
  let w = seconds /. float_of_int windows in
  { windows; slice = 100; n1 = truncate (r1 *. 0.55 *. w); n2 = truncate (r2 *. 0.2 *. w) }

let per_window p = p.slice + p.n1 + p.n2
let total p = p.windows * per_window p

(* Request [k] names pool program [seq.(k)]: a repeat of a uniformly
   chosen earlier program with probability one half, else the next new
   one. *)
let stream ~seed n =
  let st = Random.State.make [| seed; 6 |] in
  let fresh = ref 0 in
  Array.init n (fun _ ->
      if !fresh > 0 && Random.State.bool st then Random.State.int st !fresh
      else begin
        incr fresh;
        !fresh - 1
      end)

let request (item : Inputs.item) =
  Protocol.compile_request ~name:item.Inputs.name ~backend:item.Inputs.backend
    ~device:item.Inputs.device ~schedule:item.Inputs.schedule
    ~analyze:item.Inputs.analyze ~params:item.Inputs.params item.Inputs.text

type env = {
  pool : Inputs.item array;
  seq : int array;
  server : Server.t;
  cache : Ph_pool.Cache.t;
}

(* Input generation, rendering, daemon start and warm-up (a few programs
   outside the pool, so the pool's cache state is untouched). *)
let setup ?(runs = 1) ~seed plan =
  let seq = stream ~seed (runs * total plan) in
  let pool = Inputs.serve_pool seed (max compile_jobs (1 + Array.fold_left max 0 seq)) in
  let cache = Ph_pool.Cache.create () in
  let server =
    Server.start
      (Server.config ~jobs:1 ~cache (Protocol.Tcp ("127.0.0.1", 0)))
  in
  let warm = Inputs.serve_pool ~salt:7 seed 8 in
  let c = Ph_serve.Client.connect (Server.address server) in
  Array.iteri
    (fun i it -> ignore (Ph_serve.Client.request c ~id:(Json.Int i) (request it)))
    warm;
  Ph_serve.Client.close c;
  { pool; seq; server; cache }

let stop env = Server.drain env.server

(* ---------- checking responses ---------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable hits : int;
  first : (int, string) Hashtbl.t;  (** pool index -> its first answer's record *)
}

let tally () = { attempted = 0; failed = 0; hits = 0; first = Hashtbl.create 1024 }

let fail t why =
  t.failed <- t.failed + 1;
  if t.failed <= 5 then Util.log "serve-mix: FAILED %s" why

(* Every answer must be ok (the daemon Pauli-frame verifies each compile
   before answering) and byte-identical to the first answer for the same
   program. *)
let check t env ~offset (samples : Load.sample array) =
  Array.iteri
    (fun k (s : Load.sample) ->
      t.attempted <- t.attempted + 1;
      let idx = env.seq.(offset + k) in
      match s.Load.response with
      | Error m -> fail t ("transport: " ^ m)
      | Ok j -> (
        match Json.member "ok" j, Json.member "record" j with
        | Some (Json.Bool true), Some record -> (
          if Json.member "origin" j = Some (Json.String "cache") then t.hits <- t.hits + 1;
          let text = Json.to_string record in
          match Hashtbl.find_opt t.first idx with
          | None -> Hashtbl.replace t.first idx text
          | Some text0 ->
            if text <> text0 then fail t (env.pool.(idx).Inputs.name ^ ": answer changed"))
        | _ -> fail t ("daemon error: " ^ Json.to_string j)))
    samples

(* Independent reference for every fourth distinct program answered:
   the in-process compile path must verify, its certificate must replay,
   and its normalized record must equal the daemon's byte for byte. *)
let check_references t env =
  Hashtbl.iter
    (fun idx text ->
      if idx mod 4 = 0 then
        let item = env.pool.(idx) in
        match Compile_path.run item with
        | exception e -> fail t (item.Inputs.name ^ ": " ^ Printexc.to_string e)
        | r ->
          if not (r.Compile_path.verified && Compile_path.certificate_ok r) then
            fail t (item.Inputs.name ^ ": reference compile failed its checks")
          else if r.Compile_path.json <> text then
            fail t (item.Inputs.name ^ ": daemon record differs from phc compile"))
    t.first

(* ---------- phases ---------- *)

let send ?after_reply env ~offset ~offsets =
  Load.run ?after_reply ~address:(Server.address env.server) ~conns ~offsets
    (fun k -> request env.pool.(env.seq.(offset + k)))

type phases = {
  slices : float list;  (** closed-loop slice times *)
  miss_rtts : float list;  (** closed-loop round trips of cache misses *)
  at_r1 : Load.sample array;
  at_r2 : Load.sample array;
}

let compiled (s : Load.sample) =
  match s.Load.response with
  | Ok j -> Json.member "origin" j = Some (Json.String "compiled")
  | Error _ -> false

(* Run every window of [plan], from stream position [base];
   [after_reply] runs after each reply (the traced run samples the
   daemon's queue there). *)
let run ?after_reply ?(base = 0) env t ~seed plan =
  let slices = ref [] and rtts = ref [] and a1 = ref [] and a2 = ref [] in
  let open_loop ~rate ~offset n =
    let samples =
      send ?after_reply env ~offset ~offsets:(Load.poisson ~seed:(seed + offset) ~rate n)
    in
    check t env ~offset samples;
    samples
  in
  for w = 0 to plan.windows - 1 do
    let offset = base + (w * per_window plan) in
    let samples = send ?after_reply env ~offset ~offsets:(Array.make plan.slice 0.) in
    check t env ~offset samples;
    slices := Load.elapsed samples :: !slices;
    Array.iter (fun s -> if compiled s then rtts := Load.roundtrip s :: !rtts) samples;
    a1 := open_loop ~rate:r1 ~offset:(offset + plan.slice) plan.n1 :: !a1;
    a2 := open_loop ~rate:r2 ~offset:(offset + plan.slice + plan.n1) plan.n2 :: !a2
  done;
  {
    slices = List.rev !slices;
    miss_rtts = !rtts;
    at_r1 = Array.concat (List.rev !a1);
    at_r2 = Array.concat (List.rev !a2);
  }

let latencies_ms samples =
  Util.sorted (Array.to_list (Array.map (fun s -> 1000. *. Load.latency s) samples))
