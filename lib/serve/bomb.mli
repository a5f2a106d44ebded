(** Load generator for the compile daemon ([phc bomb]).

    [clients] threads each hold one connection and fire the workload
    list round-robin, throttled to an aggregate [rps] (each client paces
    at [rps / clients]; [rps <= 0] means flat out), for [duration_s]
    seconds.  Every request is timed; the summary reports throughput and
    latency percentiles over the whole run. *)

type workload = {
  w_name : string;
  w_request : Protocol.request;
}

val workload : name:string -> Protocol.request -> workload

type summary = {
  sent : int;
  ok : int;  (** ["ok": true] responses *)
  failed : int;  (** daemon errors other than [overloaded] *)
  overloaded : int;  (** admission-control rejections *)
  transport_errors : int;  (** connection drops, unparseable lines *)
  mismatches : int;
      (** successful responses whose record differed from the first
          successful response of the same workload — nonzero means the
          daemon is not deterministic *)
  wall_s : float;
  latencies_s : float array;  (** one per request, sorted ascending *)
}

(** [percentile sorted p] with [p] in [[0, 100]]; [nan] when empty. *)
val percentile : float array -> float -> float

(** Run the load.  With [save_dir], the first successful response's
    normalized record for each workload is written to
    [save_dir/<name>.json] — the same bytes [phc compile --json
    --normalize] prints, so the files are directly diffable.
    @raise Unix.Unix_error when the daemon is unreachable. *)
val run :
  address:Protocol.address ->
  clients:int ->
  rps:float ->
  duration_s:float ->
  ?save_dir:string ->
  workload list ->
  summary

(** Human table: totals, throughput, p50/p95/p99 latency. *)
val print_summary : out_channel -> summary -> unit
