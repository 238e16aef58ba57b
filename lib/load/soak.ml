(* Soak driver: canned crash-storm configurations plus report output.

   Two presets:

   - [default]: the acceptance bar — at least 20 crash cycles under
     4 producer + 2 consumer domains over 4 shards, a quarantine drill
     every 5th cycle;
   - [smoke]: small enough for a per-push CI gate (a few seconds), same
     shape.

   The JSON fault report lands under [results/] so CI can upload it as
   an artifact; the replay log is printed so a failure in a log is
   reproducible from the seed alone. *)

let default_seed = 0xD4_7AB1E
let default_cycles = 20
let smoke_cycles = 6

let default_config = Storm.default_config

let smoke_config =
  {
    Storm.default_config with
    shards = 3;
    producers = 3;
    consumers = 1;
    ops_per_cycle = 40;
    drill_every = 3;
  }

(* The large-heap preset: ~100× the acceptance run's per-cycle volume,
   with consumers outnumbered so the windows run deep before they drain
   and every cycle leaves a pile of drained node regions behind.  With
   the default [checkpoint_every = 1] the scheduled pass retires them
   and per-cycle [recover_ms] stays flat; with [--checkpoint-every 0]
   recovery walks the whole accumulated heap — the linear curve the
   checkpoint exists to cut. *)
let big_cycles = 5

let big_config =
  {
    Storm.default_config with
    ops_per_cycle = 12_000;
    batch = 16;
    depth_bound = 1 lsl 20;
    drill_every = 0;
    checkpoint_every = 1;
  }

let run ?(out = Filename.concat "results" "fault_report.json") ~seed ~cycles
    (cfg : Storm.config) =
  let report = Storm.run ~seed ~cycles cfg in
  Fault.Report.write_json ~path:out report;
  Fault.Report.pp Format.std_formatter report;
  Printf.printf "fault report: %s\n%!" out;
  report
