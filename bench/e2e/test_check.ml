(* The delivery check must reject each way a broker can break a stream:
   an item delivered out of order, delivered twice, or never delivered. *)

let v stream seq = Spec.Durable_check.encode ~producer:stream ~seq

let admitted = [ v 1 1; v 1 2; v 1 3; v 2 1; v 2 2 ]
let good = [ v 1 1; v 2 1; v 1 2; v 2 2; v 1 3 ]

let cases =
  [
    ("in order", good, true);
    ("reordered", [ v 1 2; v 2 1; v 1 1; v 2 2; v 1 3 ], false);
    ("duplicated", good @ [ v 2 2 ], false);
    ("lost", [ v 1 1; v 2 1; v 1 2; v 1 3 ], false);
    ("never admitted", good @ [ v 3 1 ], false);
  ]

let () =
  let bad =
    List.filter
      (fun (name, delivered, expect_ok) ->
        let ok = Result.is_ok (E2e.Check.delivery ~admitted ~delivered) in
        if ok <> expect_ok then
          Printf.printf "FAIL %s: check %s\n" name
            (if ok then "passed" else "failed");
        ok <> expect_ok)
      cases
  in
  if bad <> [] then exit 1;
  print_endline "delivery check: all cases OK"
