(* Domain worker pool: a FIFO of thunks behind a mutex, a condition
   variable each for "queue non-empty" (workers) and "all jobs done"
   (waiters).  Results flow back through whatever the thunks capture;
   the mutex hand-off on [pending] gives the happens-before edge that
   makes those writes visible to the waiter. *)

type t = {
  n_workers : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  idle : Condition.t;
  mutable pending : int; (* submitted and not yet finished *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  mutable closed : bool;
  mutable unexpected : int; (* raw thunk exceptions that escaped a job *)
  mutable last_unexpected : string option;
  mutable dead_workers : int; (* workers killed by a fatal runtime exception *)
}

type worker_stats = {
  unexpected_exceptions : int;
  last_unexpected : string option;
  dead_workers : int;
}

let workers t = t.n_workers

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Runs with the lock held; returns with the lock held. *)
let next_job t =
  let rec go () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.stop then None
    else begin
      Condition.wait t.nonempty t.mutex;
      go ()
    end
  in
  go ()

let finish_one t =
  t.pending <- t.pending - 1;
  if t.pending = 0 then Condition.broadcast t.idle

(* Fatal runtime conditions: after these the worker's state (heap, C
   stack) cannot be trusted, so the worker must not keep serving jobs.
   Everything else is an ordinary bug in a raw [submit] thunk ([map]
   wraps its jobs in [Result], so nothing ever reaches this path from
   there) — counted, not swallowed silently, and the worker lives on. *)
let is_fatal = function
  | Out_of_memory | Stack_overflow -> true
  | _ -> false

(* Account for a job body that raised.  Runs the [finish_one] bookkeeping
   so [wait] never wedges on a raising job; returns whether the caller
   must stop running jobs (fatal case). *)
let note_unexpected t e =
  locked t (fun () ->
      t.unexpected <- t.unexpected + 1;
      t.last_unexpected <- Some (Printexc.to_string e);
      if is_fatal e then t.dead_workers <- t.dead_workers + 1;
      finish_one t);
  is_fatal e

let rec worker t () =
  let rec loop () =
    Mutex.lock t.mutex;
    match next_job t with
    | None -> Mutex.unlock t.mutex
    | Some job ->
      Mutex.unlock t.mutex;
      (match job () with
      | () ->
        locked t (fun () -> finish_one t);
        loop ()
      | exception e ->
        (* A raising thunk must not wedge [wait] — but it is a contract
           violation worth surfacing ({!worker_stats}), and a fatal
           runtime exception must not leave this worker serving jobs
           from a state it cannot trust: spawn a replacement (so queued
           jobs are not stranded) and die loudly. *)
        if note_unexpected t e then begin
          (try
             locked t (fun () ->
                 if not t.stop then
                   t.domains <- Domain.spawn (worker t) :: t.domains)
           with _ -> ());
          raise e
        end
        else loop ())
  in
  loop ()

let create ?(inline_single = true) n =
  if n < 1 then invalid_arg "Pool.create: need at least one worker";
  let t =
    {
      n_workers = n;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      pending = 0;
      stop = false;
      domains = [];
      closed = false;
      unexpected = 0;
      last_unexpected = None;
      dead_workers = 0;
    }
  in
  (* n = 1, inline mode (the batch default): jobs run at [wait] time on
     the submitting domain, in submission order.  No spawn, no
     scheduling jitter: `--jobs 1` is exactly the sequential program.
     A service ([inline_single = false]) always spawns, because its
     submitters block on individual results and never call [wait]. *)
  if n > 1 || not inline_single then
    t.domains <- List.init n (fun _ -> Domain.spawn (worker t));
  t

let submit t job =
  locked t (fun () ->
      if t.closed then invalid_arg "Pool.submit: pool is shut down";
      Queue.push job t.queue;
      t.pending <- t.pending + 1;
      Condition.signal t.nonempty)

(* Admission control: accept only while fewer than [max_pending] jobs
   are admitted-but-unfinished (queued or running).  The check and the
   enqueue are one critical section, so concurrent submitters can never
   overshoot the bound. *)
let try_submit t ~max_pending job =
  locked t (fun () ->
      if t.closed then invalid_arg "Pool.try_submit: pool is shut down";
      if t.pending >= max_pending then false
      else begin
        Queue.push job t.queue;
        t.pending <- t.pending + 1;
        Condition.signal t.nonempty;
        true
      end)

let pending t = locked t (fun () -> t.pending)

let worker_stats t =
  locked t (fun () ->
      {
        unexpected_exceptions = t.unexpected;
        last_unexpected = t.last_unexpected;
        dead_workers = t.dead_workers;
      })

let drain_inline t =
  let rec go () =
    let job = locked t (fun () -> Queue.take_opt t.queue) in
    match job with
    | None -> ()
    | Some job ->
      (match job () with
      | () -> locked t (fun () -> finish_one t)
      | exception e ->
        (* Inline mode runs on the submitter's own domain: account the
           failure, and let a fatal exception propagate to the caller
           (there is no worker to sacrifice). *)
        if note_unexpected t e then raise e);
      go ()
  in
  go ()

let wait t =
  if t.domains = [] then drain_inline t;
  locked t (fun () ->
      while t.pending > 0 do
        Condition.wait t.idle t.mutex
      done)

let shutdown t =
  wait t;
  let domains =
    locked t (fun () ->
        t.closed <- true;
        t.stop <- true;
        Condition.broadcast t.nonempty;
        let ds = t.domains in
        t.domains <- [];
        ds)
  in
  (* A worker that died of a fatal exception rethrows it at [join]; the
     failure was already surfaced through [worker_stats], so the joins
     must still release every remaining domain. *)
  List.iter (fun d -> try Domain.join d with _ -> ()) domains

type timing = { queue_s : float; run_s : float }

let map_timed ~jobs f xs =
  match xs with
  | [] -> []
  | _ ->
    let n = List.length xs in
    let jobs = max 1 (min jobs n) in
    let results = Array.make n None in
    let pool = create jobs in
    List.iteri
      (fun i x ->
        let submitted = Unix.gettimeofday () in
        submit pool (fun () ->
            let start = Unix.gettimeofday () in
            let r = try Ok (f x) with e -> Error e in
            let finish = Unix.gettimeofday () in
            results.(i) <-
              Some (r, { queue_s = start -. submitted; run_s = finish -. start })))
      xs;
    wait pool;
    shutdown pool;
    Array.to_list (Array.map Option.get results)

let map ~jobs f xs = List.map fst (map_timed ~jobs f xs)
