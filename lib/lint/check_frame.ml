let check ~rotations verdict =
  match Lazy.force verdict with
  | true -> []
  | false ->
    [
      Diag.error ~code:"VER001" Diag.Program_loc
        (Printf.sprintf
           "circuit does not implement its claimed %d-rotation trace (Pauli-frame \
            mismatch)"
           (List.length rotations));
    ]
  | exception e ->
    [
      Diag.error ~code:"VER001" Diag.Program_loc
        ("Pauli-frame verifier raised " ^ Printexc.to_string e);
    ]
