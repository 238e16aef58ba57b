(* End-to-end broker benchmark.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--trace-out FILE]
     main.exe --workload all ...     every workload, one process each
     main.exe --runs N ...           N seeds per workload: medians, quartiles
     main.exe --smoke                every workload for 2 s, checks only

   A single run prints its report and, as the last line of stdout, one
   JSON object: {"correct", "attempted", "failed", "metrics"} with the
   end-to-end metrics (--trace 0) or the per-layer metrics of a traced
   run (--trace 1).  It exits 1 when any correctness check fails. *)

open E2e

let usage =
  "main.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] \
   [--trace-out FILE] [--runs N] [--smoke]"

let workload = ref "all"
let seed = ref 42
let seconds = ref 25.
let trace = ref 0
let trace_out = ref ""
let runs = ref 0
let smoke = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME workload name, or all");
    ("--seed", Arg.Set_int seed, "N schedule seed (default 42)");
    ("--seconds", Arg.Set_float seconds, "S window length (default 25)");
    ("--trace", Arg.Set_int trace, "0|1 traced run: print per-layer metrics");
    ("--trace-out", Arg.Set_string trace_out, "FILE write a Chrome trace (implies --trace 1)");
    ("--runs", Arg.Set_int runs, "N runs per workload over seeds seed..seed+N-1");
    ("--smoke", Arg.Set smoke, " every workload for 2 s, checks only");
  ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* -- One run ------------------------------------------------------------- *)

let run_one (w : Workload.t) =
  let name = w.name in
  let traced = !trace = 1 in
  let r = Driver.run w ~seed:!seed ~seconds:!seconds ~trace:traced in
  let e2e = Report.end_to_end r in
  let ops = r.Driver.ops in
  let errors =
    r.Driver.errors
    @
    if traced then Trace.chain_violations ops ~drain:r.Driver.drain
    else []
  in
  let failed =
    Array.fold_left (fun c o -> if o = Ops.rejected then c + 1 else c) 0 ops.Ops.outcome
  in
  let title = Printf.sprintf "%s seed=%d seconds=%g" name !seed !seconds in
  let metrics =
    if traced then begin
      Report.pp_table stdout (title ^ " end-to-end (traced)") e2e;
      let layers = Report.per_layer r in
      Report.pp_table stdout (title ^ " per layer (traced)") layers;
      if !trace_out <> "" then begin
        let oc = open_out !trace_out in
        Trace.export oc ops ~t0:r.Driver.t0 r.Driver.bufs;
        close_out oc;
        Printf.printf "trace written to %s\n" !trace_out
      end;
      layers
    end
    else begin
      Report.pp_table stdout (title ^ " end-to-end") e2e;
      e2e
    end
  in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  print_endline
    (Report.result_line ~correct:(errors = []) ~attempted:ops.Ops.n ~failed metrics);
  exit (if errors = [] then 0 else 1)

(* -- Child processes ------------------------------------------------------- *)

let child_args ~name ~seed ~trace =
  [|
    Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
    "--seconds"; Printf.sprintf "%g" !seconds; "--trace"; string_of_int trace;
  |]

(* Run one child with its output passed through; true on exit 0. *)
let passthrough args =
  let pid = Unix.create_process args.(0) args Unix.stdin Unix.stdout Unix.stderr in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false

(* A line of a printed metrics table: name, value, unit. *)
let table_re = Str.regexp "^  \\([A-Za-z0-9_.-]+\\) +\\(-?[0-9.]+\\) \\([^ ]+\\)"

(* Run one child and read back every metric its tables printed (the
   end-to-end table, and a traced run's per-layer table). *)
let captured args =
  let ic = Unix.open_process_args_in args.(0) args in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       if Str.string_match table_re line 0 then
         rows :=
           ( Str.matched_group 1 line,
             float_of_string (Str.matched_group 2 line),
             Str.matched_group 3 line )
           :: !rows
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "run failed: %s" (String.concat " " (Array.to_list args)));
  List.rev !rows

let quartiles a =
  let a = Array.copy a in
  Array.sort compare a;
  let q p = Load.Metrics.percentile a p in
  (q 25., q 50., q 75.)

let summarize name rows =
  Printf.printf "== %s: %d runs\n" name (List.length rows);
  Printf.printf "  %-32s %12s %12s %12s %9s %9s\n" "metric" "q1" "median" "q3"
    "iqr/med" "range/med";
  match rows with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (metric, _, unit) ->
          let vs =
            Array.of_list
              (List.map (fun row -> let _, v, _ = List.find (fun (k, _, _) -> k = metric) row in v) rows)
          in
          let q1, med, q3 = quartiles vs in
          let lo = Array.fold_left Float.min infinity vs
          and hi = Array.fold_left Float.max neg_infinity vs in
          let rel x = if med = 0. then 0. else x /. Float.abs med in
          Printf.printf "  %-32s %12.4f %12.4f %12.4f %9.4f %9.4f  %s\n" metric q1 med
            q3 (rel (q3 -. q1)) (rel (hi -. lo)) unit;
          (metric, med))
        first

let multi names =
  if !runs > 0 then begin
    List.iter
      (fun name ->
        let plain = ref [] and traced = ref [] in
        for i = 0 to !runs - 1 do
          let seed = !seed + i in
          plain := captured (child_args ~name ~seed ~trace:0) :: !plain;
          if !trace = 1 then traced := captured (child_args ~name ~seed ~trace:1) :: !traced
        done;
        let p = summarize name (List.rev !plain) in
        if !trace = 1 then begin
          let t = summarize (name ^ " traced") (List.rev !traced) in
          let med k l = List.assoc k l in
          Printf.printf
            "  tracing overhead (traced - untraced median): ack_p50_ms %+.4f ms, \
             cpu_us_per_op %+.4f us\n"
            (med "ack_p50_ms" t -. med "ack_p50_ms" p)
            (med "cpu_us_per_op" t -. med "cpu_us_per_op" p)
        end)
      names;
    exit 0
  end
  else begin
    let ok =
      List.fold_left
        (fun ok name -> passthrough (child_args ~name ~seed:!seed ~trace:!trace) && ok)
        true names
    in
    exit (if ok then 0 else 1)
  end

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace_out <> "" then trace := 1;
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !seconds <= 0. then fail "--seconds must be positive";
  if !smoke then begin
    seconds := 2.;
    workload := "all"
  end;
  let all = !workload = "all" in
  let chosen =
    if all then Workload.all
    else
      match Workload.find !workload with
      | w -> [ w ]
      | exception Invalid_argument e -> fail "%s" e
  in
  if !trace_out <> "" && (all || !runs > 0) then
    fail "--trace-out needs a single --workload and no --runs";
  if all || !runs > 0 then multi (List.map (fun (w : Workload.t) -> w.name) chosen)
  else run_one (List.hd chosen)
