(** Soak driver: canned crash-storm configurations ({!smoke_config} for
    the CI gate, {!default_config} for the acceptance run), JSON report
    output under [results/], and a printed summary. *)

val default_seed : int
val default_cycles : int
val smoke_cycles : int
val default_config : Storm.config
val smoke_config : Storm.config

val big_cycles : int

val big_config : Storm.config
(** The large-heap soak: ~100× the acceptance run's per-cycle volume
    with outnumbered consumers, checkpointing every cycle.  Per-cycle
    [recover_ms] stays flat; with [checkpoint_every = 0] it tracks the
    whole accumulated heap instead. *)

val run :
  ?out:string ->
  seed:int ->
  cycles:int ->
  Storm.config ->
  Fault.Report.t
(** Run the storm, write the JSON report to [out] (default
    [results/fault_report.json]), print the summary, and return the
    report (check {!Fault.Report.ok}). *)
