(* In-memory span recorder for the traced run.  A span is opened by the
   benchmark around one call into a library layer; it records wall time,
   minor-heap words allocated by the calling domain and the
   [Ph_perf.Counter] deltas of the call.  Spans are kept in memory and
   written out once, when the benchmark ends. *)

module Json = Paulihedral.Json

type t = {
  id : int;
  parent : int;  (** -1 for a root *)
  group : int;  (** spans of one program or request share a group id *)
  name : string;
  start : float;
  stop : float;
  alloc_words : float;
  counters : (string * int) list;  (** nonzero counter deltas *)
}

let spans : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_group = ref 0

let clear () =
  spans := [];
  next_id := 0;
  stack := []

let set_group g = current_group := g

(* Record one call.  Only the thread that owns the recorder may call this
   (the traced runs are single-threaded around their spans). *)
let record name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let c0 = Ph_perf.Counter.snapshot () in
  let w0 = Gc.minor_words () in
  let start = Util.now () in
  let finish () =
    let stop = Util.now () in
    let alloc_words = Gc.minor_words () -. w0 in
    let c1 = Ph_perf.Counter.snapshot () in
    stack := List.tl !stack;
    let counters =
      List.filter (fun (_, v) -> v <> 0) (Ph_perf.Counter.compile_assoc ~before:c0 ~after:c1)
    in
    spans :=
      { id; parent; group = !current_group; name; start; stop; alloc_words; counters }
      :: !spans
  in
  Fun.protect ~finally:finish f

let all () = List.rev !spans
let mark () = !next_id

(* Spans opened at or after [mark], oldest first. *)
let since mark =
  let rec take acc = function
    | s :: rest when s.id >= mark -> take (s :: acc) rest
    | _ -> acc
  in
  take [] !spans

let duration s = s.stop -. s.start
let counter s k = Option.value (List.assoc_opt k s.counters) ~default:0

(* Duration minus the part covered by direct children. *)
let self_time spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  fun s -> duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.

let to_json spans =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             "id", Json.Int s.id;
             "parent", Json.Int s.parent;
             "group", Json.Int s.group;
             "name", Json.String s.name;
             "start", Json.Float s.start;
             "end", Json.Float s.stop;
             "alloc_words", Json.Float s.alloc_words;
             "counters", Json.Obj (List.map (fun (k, v) -> k, Json.Int v) s.counters);
           ])
       spans)
