(* A process-wide team of worker domains for deterministic intra-compile
   parallelism (the scheduler's candidate scans).  Design constraints, in
   order:

   - **Determinism is the caller's job, cheapness is ours.**  [run]
     executes chunk bodies on whichever domain claims them first; the
     caller must make each chunk write only into its own result slot
     and reduce the slots afterwards in chunk order.  Nothing here
     depends on timing.

   - **One team per process, acquired with a try-lock.**  Worker
     domains are spawned lazily on first acquire, grown to the largest
     request seen, and parked on a condition variable between jobs —
     per-dispatch cost is a couple of mutex hand-offs, so a scheduler
     can dispatch every layer's scan without amortization tricks.
     [try_acquire] returns [None] when another holder is active (for
     example two pool workers compiling concurrently, each asking for
     scan parallelism): callers fall back to their sequential path,
     which by the determinism contract produces identical output.

   - **Workers never touch perf counters or shared mutable scratch.**
     Counters are per-domain ([Ph_perf.Counter]), and one compile's
     window snapshots exactly one domain, so all counter accounting for
     parallel work happens on the coordinating domain (see
     [Ph_schedule.Arena]).

   Memory model: the coordinator publishes the job under [lock], and
   every worker claims its chunk under the same lock, which gives the
   happens-before edge that makes the caller's input arrays visible;
   chunk results written before the final [unfinished] decrement are
   visible to the coordinator for the same reason. *)

type t = { jobs : int }

let jobs t = t.jobs

(* Spawning more domains than cores ever helps nothing; 64 also bounds
   the per-chunk reduction scratch callers preallocate. *)
let max_jobs = 64

let lock = Mutex.create ()
let work = Condition.create ()
let finished = Condition.create ()

(* All fields below are protected by [lock]. *)
let spawned = ref 0
let busy = ref false
let stopping = ref false
let no_job (_ : int) = ()
let job : (int -> unit) ref = ref no_job
let chunks = ref 0
let next_chunk = ref 0
let unfinished = ref 0
let failure : exn option ref = ref None
let domains : unit Domain.t list ref = ref []

(* With [lock] held: claim and run chunks of the current job until none
   are left to claim; returns with [lock] held.  Shared by workers and
   the coordinator, so the coordinator always participates instead of
   idling. *)
let drain f n =
  while !next_chunk < n do
    let k = !next_chunk in
    incr next_chunk;
    Mutex.unlock lock;
    (try f k
     with e ->
       Mutex.lock lock;
       if !failure = None then failure := Some e;
       Mutex.unlock lock);
    Mutex.lock lock;
    decr unfinished;
    if !unfinished = 0 then Condition.broadcast finished
  done

let worker () =
  Mutex.lock lock;
  let rec loop () =
    if !stopping then Mutex.unlock lock
    else if !next_chunk < !chunks then begin
      drain !job !chunks;
      loop ()
    end
    else begin
      Condition.wait work lock;
      loop ()
    end
  in
  loop ()

(* With [lock] held: grow the team to [jobs - 1] workers. *)
let grow jobs =
  while !spawned < jobs - 1 do
    domains := Domain.spawn worker :: !domains;
    incr spawned
  done

(* One preallocated handle per clamped job count, so an acquire
   allocates nothing once the workers exist: a scan dispatch must not
   move the caller's allocation counters. *)
let handles = Array.init (max_jobs + 1) (fun jobs -> Some { jobs })

let try_acquire jobs =
  let jobs = min jobs max_jobs in
  if jobs <= 1 then None
  else begin
    Mutex.lock lock;
    let r =
      if !busy || !stopping then None
      else begin
        busy := true;
        grow jobs;
        handles.(jobs)
      end
    in
    Mutex.unlock lock;
    r
  end

(* Spawning is the one allocating step of an acquire; doing it ahead of
   time keeps it out of the caller's measured window.  Growing while the
   team is held is safe: a new worker just joins the current job's
   chunk claiming. *)
let warm jobs =
  let jobs = min jobs max_jobs in
  if jobs > 1 then begin
    Mutex.lock lock;
    if not !stopping then grow jobs;
    Mutex.unlock lock
  end

let release (_ : t) =
  Mutex.lock lock;
  busy := false;
  Mutex.unlock lock

let run (t : t) ~chunks:n f =
  if n <= 0 then invalid_arg "Team.run: need at least one chunk";
  if n = 1 then f 0
  else begin
    ignore t.jobs;
    Mutex.lock lock;
    job := f;
    chunks := n;
    next_chunk := 0;
    unfinished := n;
    failure := None;
    Condition.broadcast work;
    drain f n;
    while !unfinished > 0 do
      Condition.wait finished lock
    done;
    job := no_job;
    let e = !failure in
    failure := None;
    Mutex.unlock lock;
    match e with Some e -> raise e | None -> ()
  end

(* Park-and-join on process exit so spawned domains never outlive the
   runtime shutdown. *)
let () =
  at_exit (fun () ->
      Mutex.lock lock;
      stopping := true;
      Condition.broadcast work;
      let ds = !domains in
      domains := [];
      Mutex.unlock lock;
      List.iter Domain.join ds)
