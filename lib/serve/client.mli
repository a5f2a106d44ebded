(** Blocking NDJSON client for the compile daemon.

    One connection, requests answered strictly in order (the daemon
    guarantees per-connection ordering), so a call is: send one line,
    read one line.  Used by [phc bomb] and the tests. *)

type t

(** Connect to a daemon.  @raise Unix.Unix_error when the daemon is not
    reachable. *)
val connect : Protocol.address -> t

(** [request t ~id req] sends [req] tagged with [id] and blocks for the
    matching response line.  [Error] covers transport-level failures
    only (daemon closed the connection, malformed response line);
    daemon-reported errors come back as [Ok json] with ["ok": false]. *)
val request : t -> id:Ph_json.t -> Protocol.request -> (Ph_json.t, string) result

(** Send a pre-built JSON line verbatim (for tests exercising malformed
    requests) and read one response line. *)
val raw_round_trip : t -> string -> (Ph_json.t, string) result

(** Send raw bytes without a trailing newline and close the sending
    half — for tests exercising mid-request disconnects. *)
val send_partial : t -> string -> unit

val close : t -> unit
