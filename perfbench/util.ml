(* Small numeric and process helpers shared by the benchmark modules. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  r, now () -. t0

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear-interpolated percentile of an ascending array, [p] in [0, 100]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = truncate r in
    let j = min (n - 1) (i + 1) in
    a.(i) +. (r -. float_of_int i) *. (a.(j) -. a.(i))

let median xs = percentile (sorted xs) 50.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean xs =
  match List.filter (fun x -> x > 0.) xs with
  | [] -> nan
  | ys -> exp (mean (List.map log ys))

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> nan
          | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
          | _ -> scan ()
        in
        scan ())

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
