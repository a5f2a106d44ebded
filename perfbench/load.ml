(* Open-loop request generator for the serve-mix workload.

   Request [i] is due at [start + offsets.(i)].  Each of [conns]
   threads owns one blocking connection and takes the next request
   index in due order: a free connection sleeps until the due time, a
   busy one sends as soon as its previous reply arrives.  Latency is
   always measured from the due time, never from the send, so a stalled
   server is charged to every request that queued behind the stall
   ([Ph_serve.Bomb] times from the send and would hide that wait). *)

module Json = Paulihedral.Json
module Client = Ph_serve.Client

type sample = {
  due : float;  (** absolute due time *)
  send : float;
  reply : float;
  idle : bool;  (** the connection was free before [due], so [send - due]
                    is the generator's own lateness *)
  response : (Json.t, string) result;
}

let latency s = s.reply -. s.due
let wait s = s.send -. s.due
let roundtrip s = s.reply -. s.send

let sleep_until t =
  let rec go () =
    let dt = t -. Util.now () in
    if dt > 0. then begin
      Thread.delay dt;
      go ()
    end
  in
  go ()

(* [run ~address ~conns ~offsets request] sends [Array.length offsets]
   requests; [request i] builds the i-th.  [after_reply] runs on the
   sending thread after each reply (the traced run samples daemon stats
   there).  Returns the samples in request order. *)
let run ?(after_reply = ignore) ~address ~conns ~offsets request =
  let n = Array.length offsets in
  let samples = Array.make n None in
  let next = Atomic.make 0 in
  (* connections are opened before the clock starts, and the first
     request is due only after a lead time that covers thread start-up,
     so connection set-up is never charged to a request *)
  let clients = List.init conns (fun _ -> Client.connect address) in
  let start = Util.now () +. 0.02 in
  let worker c =
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            let due = start +. offsets.(i) in
            let idle = Util.now () < due in
            if idle then sleep_until due;
            let send = Util.now () in
            let response =
              try Client.request c ~id:(Json.Int i) (request i)
              with e -> Error (Printexc.to_string e)
            in
            let reply = Util.now () in
            samples.(i) <- Some { due; send; reply; idle; response };
            after_reply ();
            loop ()
          end
        in
        loop ())
  in
  (* The sending threads live in a domain of their own, so they never
     queue for the runtime lock of the domain whose threads run the
     daemon's connection readers — as separate client processes would. *)
  Domain.join
    (Domain.spawn (fun () ->
         List.iter Thread.join (List.map (fun c -> Thread.create worker c) clients)));
  Array.map Option.get samples

(* Wall time from the first due time to the last reply. *)
let elapsed samples =
  Array.fold_left (fun acc s -> Float.max acc s.reply) neg_infinity samples
  -. Array.fold_left (fun acc s -> Float.min acc s.due) infinity samples

(* Seeded Poisson arrival offsets at [rate] requests/s. *)
let poisson ~seed ~rate n =
  let st = Random.State.make [| seed; 5 |] in
  let t = ref 0. in
  Array.init n (fun _ ->
      let u = Random.State.float st 1. in
      t := !t -. log (1. -. u) /. rate;
      !t)

(* ---------- self-test: a stalled server ---------- *)

(* A stand-in daemon on an ephemeral localhost port that answers every
   line with {"ok":true}, except that nothing is answered before
   [stall_until].  Requests due every [gap] seconds during the stall must
   each show at least the remaining stall as latency, even though their
   round trips after the stall are short. *)
let self_test () =
  let gap = 0.01 and stall = 0.2 and n = 40 and conns = 2 in
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 8;
  let port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let stall_until = Util.now () +. stall in
  let serve_conn fd =
    let reader = Ph_serve.Protocol.reader fd in
    let rec loop () =
      match Ph_serve.Protocol.read_line reader with
      | `Line line ->
        sleep_until stall_until;
        let id = Json.get "id" (Json.parse line) in
        let reply = Json.to_string (Json.Obj [ "id", id; "ok", Json.Bool true ]) ^ "\n" in
        ignore (Unix.write_substring fd reply 0 (String.length reply));
        loop ()
      | `Eof | `Oversized -> Unix.close fd
    in
    loop ()
  in
  let acceptor =
    Thread.create
      (fun () ->
        for _ = 1 to conns do
          let fd, _ = Unix.accept ~cloexec:true sock in
          ignore (Thread.create serve_conn fd)
        done)
      ()
  in
  let offsets = Array.init n (fun i -> float_of_int i *. gap) in
  let samples =
    run ~address:(Ph_serve.Protocol.Tcp ("127.0.0.1", port)) ~conns ~offsets
      (fun _ -> Ph_serve.Protocol.Ping)
  in
  Thread.join acceptor;
  Unix.close sock;
  let tolerance = 0.002 in
  let bad =
    Array.to_list samples
    |> List.filter (fun s ->
           s.due < stall_until
           && (Result.is_error s.response
              || latency s < stall_until -. s.due -. tolerance))
  in
  let behind = Array.fold_left (fun k s -> if s.due < stall_until then k + 1 else k) 0 samples in
  let hidden =
    Array.fold_left
      (fun k s -> if s.due < stall_until && roundtrip s < 0.5 *. (stall_until -. s.due) then k + 1 else k)
      0 samples
  in
  Util.log "self-test: %d requests due during a %.0f ms stall, %d under-charged; %d of them would look fast if timed from the send"
    behind (stall *. 1000.) (List.length bad) hidden;
  bad = [] && behind >= 10 && hidden > 0
