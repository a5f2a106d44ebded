(** Content-addressed compile cache.

    Keys are an MD5 digest of (cache format version, config fingerprint,
    canonical job text); the config fingerprint ({!Paulihedral.Config.fingerprint})
    embeds the compiler {!Paulihedral.Config.version_tag}, so bumping the
    version invalidates every cached compile.  Values are opaque JSON
    payloads (the batch service stores verified compile records).

    Two tiers: a bounded in-memory table (FIFO eviction) always, plus an
    optional on-disk tier ([dir]) where each entry is one
    [<key>.json] file written via atomic temp-file + [Sys.rename], so
    concurrent writers and crashed runs can never leave a torn entry.
    All operations are thread-safe (one mutex); counters record every
    outcome. *)

type t

(** Counter snapshot.  [hits_mem]/[hits_disk] partition {!find}
    successes; [misses] counts {!find} failures; [stores] and
    [evictions] track {!store} traffic on the memory tier. *)
type counters = {
  hits_mem : int;
  hits_disk : int;
  misses : int;
  stores : int;
  evictions : int;
}

(** [create ?dir ?max_memory_entries ()] — [dir] enables the disk tier
    (created on demand, safely even when several processes race the
    creation); [max_memory_entries] bounds the memory tier (default
    [4096], oldest-inserted evicted first).  Attaching to a disk tier
    sweeps stale [.tmp-*] files left by crashed writers (a temp is
    stale when its embedded writer pid no longer exists). *)
val create : ?dir:string -> ?max_memory_entries:int -> unit -> t

val dir : t -> string option

(** [key ~config_fp ~text] — hex digest addressing the compile of
    canonical job [text] under the config described by [config_fp]. *)
val key : config_fp:string -> text:string -> string

(** Memory tier first, then disk; a disk hit is promoted into memory.
    An unreadable or unparsable disk entry counts as a miss. *)
val find : t -> string -> Ph_json.t option

(** Insert into the memory tier (evicting the oldest entry when full)
    and, when the disk tier is enabled, persist atomically (temp file +
    rename; the temp is reclaimed on any failure path).  A disk write
    that fails is retried once — losing a race with another process
    sharing the directory must not drop the entry. *)
val store : t -> string -> Ph_json.t -> unit

val counters : t -> counters
val hits : counters -> int
val counters_to_json : counters -> Ph_json.t

(** [summary c] — the one-line
    [cache: hits=H (mem M, disk D) misses=N stores=S evictions=E]
    that [phc batch] and the bench harness print (CI greps it for
    [misses=0]). *)
val summary : counters -> string
