type severity = Error | Warning | Info

type location =
  | Config_loc
  | Program_loc
  | Block_loc of int
  | Term_loc of int * int
  | Layer_loc of int
  | Gate_loc of int
  | Qubit_loc of int

type t = {
  severity : severity;
  code : string;
  location : location;
  message : string;
}

let error ~code location message = { severity = Error; code; location; message }
let warning ~code location message = { severity = Warning; code; location; message }
let info ~code location message = { severity = Info; code; location; message }

let is_error d = d.severity = Error
let errors ds = List.filter is_error ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds

type level = Off | Warn | Error_level

let level_of_string = function
  | "off" -> Ok Off
  | "warn" -> Ok Warn
  | "error" -> Ok Error_level
  | s -> Result.Error (Printf.sprintf "unknown lint level %S (off | warn | error)" s)

let level_to_string = function Off -> "off" | Warn -> "warn" | Error_level -> "error"

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let location_to_string = function
  | Config_loc -> "config"
  | Program_loc -> "program"
  | Block_loc b -> Printf.sprintf "block %d" b
  | Term_loc (b, t) -> Printf.sprintf "block %d, term %d" b t
  | Layer_loc l -> Printf.sprintf "layer %d" l
  | Gate_loc g -> Printf.sprintf "gate %d" g
  | Qubit_loc q -> Printf.sprintf "qubit %d" q

let to_string d =
  Printf.sprintf "%s[%s] at %s: %s"
    (severity_to_string d.severity)
    d.code
    (location_to_string d.location)
    d.message

let pp fmt d = Format.pp_print_string fmt (to_string d)

let location_to_json = function
  | Config_loc -> Ph_json.Obj [ "kind", Ph_json.String "config" ]
  | Program_loc -> Ph_json.Obj [ "kind", Ph_json.String "program" ]
  | Block_loc b ->
    Ph_json.Obj [ "kind", Ph_json.String "block"; "block", Ph_json.Int b ]
  | Term_loc (b, t) ->
    Ph_json.Obj
      [ "kind", Ph_json.String "term"; "block", Ph_json.Int b; "term", Ph_json.Int t ]
  | Layer_loc l ->
    Ph_json.Obj [ "kind", Ph_json.String "layer"; "layer", Ph_json.Int l ]
  | Gate_loc g -> Ph_json.Obj [ "kind", Ph_json.String "gate"; "gate", Ph_json.Int g ]
  | Qubit_loc q ->
    Ph_json.Obj [ "kind", Ph_json.String "qubit"; "qubit", Ph_json.Int q ]

let location_of_json j =
  let int k = Ph_json.to_int (Ph_json.get k j) in
  match Ph_json.to_str (Ph_json.get "kind" j) with
  | "config" -> Config_loc
  | "program" -> Program_loc
  | "block" -> Block_loc (int "block")
  | "term" -> Term_loc (int "block", int "term")
  | "layer" -> Layer_loc (int "layer")
  | "gate" -> Gate_loc (int "gate")
  | "qubit" -> Qubit_loc (int "qubit")
  | k -> raise (Ph_json.Parse_error ("unknown diagnostic location kind " ^ k))

let to_json d =
  Ph_json.Obj
    [
      "severity", Ph_json.String (severity_to_string d.severity);
      "code", Ph_json.String d.code;
      "location", location_to_json d.location;
      "message", Ph_json.String d.message;
    ]

let of_json j =
  let str k = Ph_json.to_str (Ph_json.get k j) in
  let severity =
    match str "severity" with
    | "error" -> Error
    | "warning" -> Warning
    | "info" -> Info
    | s -> raise (Ph_json.Parse_error ("unknown diagnostic severity " ^ s))
  in
  {
    severity;
    code = str "code";
    location = location_of_json (Ph_json.get "location" j);
    message = str "message";
  }

let known_codes =
  [
    "PIR001", Error, "non-finite term weight (nan or infinity)";
    "PIR002", Error, "non-finite block parameter value";
    "PIR003", Warning, "identity Pauli string (no-op rotation)";
    "PIR004", Warning, "zero-weight term (no-op rotation)";
    "PIR005", Warning, "duplicate Pauli string within one block";
    "PIR006", Error, "string width differs from the program's qubit count";
    "SCH001", Error, "schedule is not a term-multiset-preserving permutation";
    "SCH002", Error, "empty layer";
    "SCH003", Error, "padding block overlaps its layer's leader";
    "GATE001", Error, "gate qubit index out of range";
    "GATE002", Error, "two-qubit gate with identical operands";
    "GATE003", Error, "non-finite rotation angle";
    "GATE004", Warning, "exact zero-angle rotation survived cleanup";
    "HW001", Error, "two-qubit gate on an uncoupled physical pair";
    "HW002", Error, "replayed final layout differs from the reported one";
    "HW003", Error, "layout is not an injective logical-to-physical map";
    "HW004", Error, "replayed SWAP count differs from the sc_swaps counter";
    "VER001", Error, "Pauli-frame verification failed against the rotation trace";
    "CFG001", Warning, "configured pass is ignored by the chosen backend";
    "CFG002", Warning, "SC coupling graph is disconnected";
    "ANA001", Info, "static lower bounds for the program (depth/cnot/single)";
    "ANA002", Info, "achieved-vs-floor gap ratio for one metric";
    "ANA003", Warning, "optimality gap exceeds the configured threshold";
    "ANA004", Error, "achieved metric below its static floor (unsound bound or miscount)";
    "ANA010", Error, "certificate schema or qubit-count mismatch";
    "ANA011", Error, "certificate block multiset differs from the program";
    "ANA012", Error, "certificate layer record inconsistent (leader, digest, qubit set, or depth)";
    "ANA013", Error, "certificate padding block overlaps its layer leader";
    "ANA014", Error, "certificate cost accounting differs from the compiled metrics";
  ]
