(* Two-tier content-addressed cache: a bounded hash table with FIFO
   eviction in front of an optional one-file-per-entry directory.  MD5
   (stdlib [Digest]) is the address function — collision resistance
   against adversaries is not a goal, stability and speed are. *)

module Json = Ph_json

type counters = {
  hits_mem : int;
  hits_disk : int;
  misses : int;
  stores : int;
  evictions : int;
}

type t = {
  dir : string option;
  max_memory_entries : int;
  mutex : Mutex.t;
  table : (string, Json.t) Hashtbl.t;
  order : string Queue.t; (* insertion order, for FIFO eviction *)
  mutable c : counters;
}

(* The cache format version: part of every key, so a change to the
   payload schema can never misread old entries. *)
let format_version = "phc-cache/1"

(* Writer temp files are [.tmp-<key>-<pid>].  A writer that crashed
   between [open_out] and [Sys.rename] leaves its temp behind forever;
   sweep them when a cache attaches to the directory.  Only temps whose
   owning pid is demonstrably gone are removed — a temp belonging to a
   live concurrent writer must survive the sweep (and if the pid test
   ever misfires, the writer's [store] retry rewrites the entry). *)
let temp_pid name =
  match String.rindex_opt name '-' with
  | None -> None
  | Some i ->
    int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1))

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> true (* EPERM: alive, not ours *)

let sweep_stale_temps dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun name ->
        if String.length name > 5 && String.sub name 0 5 = ".tmp-" then begin
          let stale =
            match temp_pid name with
            | Some pid -> pid <> Unix.getpid () && not (pid_alive pid)
            | None -> true (* unparseable: not one of ours, reclaim *)
          in
          if stale then
            try Sys.remove (Filename.concat dir name) with Sys_error _ -> ()
        end)
      entries

let create ?dir ?(max_memory_entries = 4096) () =
  if max_memory_entries < 1 then
    invalid_arg "Cache.create: max_memory_entries must be positive";
  Option.iter sweep_stale_temps dir;
  {
    dir;
    max_memory_entries;
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    order = Queue.create ();
    c = { hits_mem = 0; hits_disk = 0; misses = 0; stores = 0; evictions = 0 };
  }

let dir t = t.dir
let counters t = t.c
let hits c = c.hits_mem + c.hits_disk

let key ~config_fp ~text =
  Digest.to_hex
    (Digest.string (format_version ^ "\x00" ^ config_fp ^ "\x00" ^ text))

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let entry_path dir key = Filename.concat dir (key ^ ".json")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Attempt the mkdir unconditionally and tolerate losing the race: with
   two processes sharing one --cache DIR, "check then mkdir" let the
   loser's [Sys.mkdir] raise and the enclosing [store] silently drop
   the entry.  [Sys.mkdir] reports EEXIST as [Sys_error], so re-check
   existence to separate "someone else created it" from real failures
   (permissions, missing parent). *)
let ensure_dir dir =
  if not (Sys.file_exists dir) then
    match Sys.mkdir dir 0o755 with
    | () -> ()
    | exception Sys_error _ when Sys.file_exists dir -> ()

(* Unlocked: caller holds the mutex.  Insert + FIFO-evict. *)
let insert_mem t key payload =
  if not (Hashtbl.mem t.table key) then begin
    if Hashtbl.length t.table >= t.max_memory_entries then begin
      let victim = Queue.pop t.order in
      Hashtbl.remove t.table victim;
      t.c <- { t.c with evictions = t.c.evictions + 1 }
    end;
    Queue.push key t.order
  end;
  Hashtbl.replace t.table key payload

let disk_find t key =
  match t.dir with
  | None -> None
  | Some dir -> (
    let path = entry_path dir key in
    match read_file path with
    | exception Sys_error _ -> None
    | text -> ( try Some (Json.parse text) with Json.Parse_error _ -> None))

let find t key =
  Ph_perf.Counter.bump Ph_perf.Counter.cache_probes;
  match locked t (fun () -> Hashtbl.find_opt t.table key) with
  | Some payload ->
    Ph_perf.Counter.bump Ph_perf.Counter.cache_hits_mem;
    locked t (fun () -> t.c <- { t.c with hits_mem = t.c.hits_mem + 1 });
    Some payload
  | None -> (
    (* Disk read outside the lock: concurrent misses may both read, but
       both land on the same immutable file contents. *)
    match disk_find t key with
    | Some payload ->
      Ph_perf.Counter.bump Ph_perf.Counter.cache_hits_disk;
      locked t (fun () ->
          insert_mem t key payload;
          t.c <- { t.c with hits_disk = t.c.hits_disk + 1 });
      Some payload
    | None ->
      locked t (fun () -> t.c <- { t.c with misses = t.c.misses + 1 });
      None)

let disk_store dir key payload =
  ensure_dir dir;
  let path = entry_path dir key in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".tmp-%s-%d" key (Unix.getpid ()))
  in
  (* Any failure past [open_out] must reclaim the temp, or a crashed or
     interrupted store leaves [.tmp-*] litter that only the next
     process's sweep would collect. *)
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Json.to_string ~indent:true payload);
        output_char oc '\n');
    (* Atomic publish: readers see either no entry or a complete one. *)
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let store t key payload =
  Ph_perf.Counter.bump Ph_perf.Counter.cache_stores;
  locked t (fun () ->
      insert_mem t key payload;
      t.c <- { t.c with stores = t.c.stores + 1 });
  match t.dir with
  | None -> ()
  | Some dir -> (
    (* One retry: a first failure may be transient contention with a
       concurrent process attaching to the same directory (its sweep
       racing our temp, the mkdir race above).  A store that still
       fails is dropped — the cache is a cache — but never silently
       *because* another process also wanted the directory. *)
    try disk_store dir key payload
    with Sys_error _ -> (
      try disk_store dir key payload with Sys_error _ -> ()))

let counters_to_json (c : counters) =
  Json.Obj
    [
      "hits_mem", Json.Int c.hits_mem;
      "hits_disk", Json.Int c.hits_disk;
      "misses", Json.Int c.misses;
      "stores", Json.Int c.stores;
      "evictions", Json.Int c.evictions;
    ]

let summary c =
  Printf.sprintf "cache: hits=%d (mem %d, disk %d) misses=%d stores=%d evictions=%d"
    (hits c) c.hits_mem c.hits_disk c.misses c.stores c.evictions
