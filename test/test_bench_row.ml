(* Tests for Harness.Bench_row: the reader over every committed
   bench/*_baseline.json, the writer reproducing them, each committed
   gate's verdicts on its own baseline, and DQ_GATE_FRAC parsing. *)

module B = Harness.Bench_row

(* The committed baselines, with the gates that read each one, the
   index of a gated row and its key as the gate names it. *)
let baselines =
  [
    ("heap", [ B.heap_ops ], 0, "op=read");
    ("set", [ B.set_ops ], 0, "map=LinkFreeMap phase=load");
    ( "shard",
      [ B.shard_scaling ],
      0,
      "profile=cpu frontend=per-op batch=1 shards=1" );
    ("durability", [ B.durability_lag ], 0, "level=all-synced batch=1");
    ( "recovery",
      [ B.recovery_time ],
      2,
      "algorithm=UnlinkedQ size=200000 checkpoint=off" );
    ("load", [ B.load_points; B.load_knee ], 0, "mode=smoke mult=0.40");
  ]

let path name = Printf.sprintf "../bench/%s_baseline.json" name
let at name (spec : B.spec) = { spec with B.baseline = path name }
let contents p = In_channel.with_open_text p In_channel.input_all

let with_metric (spec : B.spec) v row =
  List.map
    (fun (k, x) -> if k = spec.B.metric then (k, B.Num (v, 3)) else (k, x))
    row

let replace_nth i x l = List.mapi (fun j y -> if j = i then x else y) l
let keys failures = List.map (fun (f : B.failure) -> f.B.key) failures

let test_reader () =
  List.iter
    (fun (name, _, _, _) ->
      let text = contents (path name) in
      let objects =
        List.length
          (List.filter
             (fun l -> String.contains l '{')
             (String.split_on_char '\n' text))
      in
      let rows = B.read (path name) in
      Alcotest.(check int) (name ^ ": one row per object line") objects
        (List.length rows);
      (* The reader keeps each number's written decimals, so writing the
         rows back reproduces the committed file byte for byte. *)
      let out = Filename.temp_file "bench_row" ".json" in
      B.write ~lines:(name = "load") ~path:out rows;
      Alcotest.(check string) (name ^ ": write reproduces the file") text
        (contents out);
      Sys.remove out)
    baselines

let test_self_gate () =
  List.iter
    (fun (name, specs, _, _) ->
      let rows = B.read (path name) in
      List.iter
        (fun spec ->
          Alcotest.(check (list string)) (name ^ ": passes against itself") []
            (keys (B.gate ~frac:1.0 (at name spec) rows));
          (* At fraction 1e9 every gated row above the floor fails: each
             key appears once, so no baseline row shadows another. *)
          let all = keys (B.gate ~frac:1e9 (at name spec) rows) in
          Alcotest.(check bool) (name ^ ": gates some rows") true (all <> []);
          Alcotest.(check int) (name ^ ": each key once") (List.length all)
            (List.length (List.sort_uniq compare all)))
        specs)
    baselines

let test_moved_row () =
  List.iter
    (fun (name, specs, i, key) ->
      let spec = at name (List.hd specs) in
      let rows = B.read (path name) in
      let row = List.nth rows i in
      let base = Option.get (B.get_num row spec.B.metric) in
      let frac = 0.7 in
      let past =
        match spec.B.better with
        | B.Higher -> 0.9 *. frac *. base
        | B.Lower -> 1.1 *. base /. frac
      in
      let inside =
        match spec.B.better with
        | B.Higher -> 1.1 *. frac *. base
        | B.Lower -> 0.9 *. base /. frac
      in
      let gate v =
        keys (B.gate ~frac spec (replace_nth i (with_metric spec v row) rows))
      in
      Alcotest.(check (list string))
        (name ^ ": past the fraction fails")
        [ key ] (gate past);
      Alcotest.(check (list string))
        (name ^ ": inside the fraction passes")
        [] (gate inside))
    baselines

let test_recovery_floor () =
  let spec = at "recovery" B.recovery_time in
  let rows = B.read (path "recovery") in
  let row = List.hd rows in
  Alcotest.(check bool) "first recovery row is under the floor" true
    (Option.get (B.get_num row "recover_ms") < spec.B.floor);
  Alcotest.(check (list string)) "a row under the floor is not gated" []
    (keys
       (B.gate ~frac:0.7 spec (replace_nth 0 (with_metric spec 1e6 row) rows)))

let test_missing_baseline () =
  let rows = B.read (path "heap") in
  let spec = { B.heap_ops with B.baseline = "no-such-baseline.json" } in
  Alcotest.(check (list string)) "missing baseline compares nothing" []
    (keys (B.gate ~frac:1e9 spec rows));
  Alcotest.(check int) "the same rows fail against the committed one" 5
    (List.length (B.gate ~frac:1e9 (at "heap" B.heap_ops) rows))

(* dq census --csv and --json come from the same rows: the CSV keeps its
   two committed headers, and each CSV line is the JSON row's values. *)
let test_census () =
  let census =
    [ Harness.Runner.run_census (Dq.Registry.find "OptUnlinkedQ") ~ops:200 ]
  in
  let csv = Filename.temp_file "census" ".csv" in
  let json = Filename.temp_file "census" ".json" in
  Out_channel.with_open_text csv (fun oc -> Harness.Report.census_csv oc census);
  Out_channel.with_open_text json (fun oc ->
      Harness.Report.census_json oc census);
  let lines = String.split_on_char '\n' (contents csv) in
  let rows = B.read json in
  Sys.remove csv;
  Sys.remove json;
  let values row =
    String.concat ","
      (List.map
         (fun (_, v) ->
           match v with
           | B.Str s -> s
           | B.Num (x, d) -> Printf.sprintf "%.*f" d x)
         row)
  in
  Alcotest.(check (list string)) "csv sections"
    [
      "structure,op,flushes_per_op,fences_per_op,movnti_per_op,\
       postflush_per_op,max_flushes,max_fences,max_movnti,max_postflush";
      values (List.nth rows 0);
      values (List.nth rows 1);
      "";
      "structure,live_regions,regions_allocated,regions_retired,live_words,\
       words_reclaimed";
      values (List.remove_assoc "op" (List.nth rows 2));
      "";
    ]
    lines

let test_frac () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check (option (float 0.))) ("DQ_GATE_FRAC=" ^ s) want
        (Result.to_option (B.frac_of_string s)))
    [
      ("0", Some 0.);
      ("0.35", Some 0.35);
      ("1e9", Some 1e9);
      ("abc", None);
      ("-1", None);
      ("nan", None);
    ]

let () =
  Alcotest.run "bench_row"
    [
      ( "baselines",
        [
          Alcotest.test_case "reader and writer" `Quick test_reader;
          Alcotest.test_case "self gate passes" `Quick test_self_gate;
          Alcotest.test_case "moved row fails by key" `Quick test_moved_row;
          Alcotest.test_case "recovery noise floor" `Quick test_recovery_floor;
          Alcotest.test_case "missing baseline" `Quick test_missing_baseline;
        ] );
      ("census", [ Alcotest.test_case "csv and json rows" `Quick test_census ]);
      ("frac", [ Alcotest.test_case "DQ_GATE_FRAC parsing" `Quick test_frac ]);
    ]
