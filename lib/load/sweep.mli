(** Rate sweeps that locate the saturation knee, and the JSON /
    regression-gate plumbing behind [dq load].

    A sweep runs {!Gen} at multiples of the device-capacity estimate
    and reads off the {e knee}: the highest offered rate whose point
    still admits (essentially) everything and meets the strict-tier
    p99 enqueue→durable SLA.  Points above the knee must show the
    admission layer reacting — shed or rejected work — while the ops
    it does accept keep a bounded p99.  Results are
    {!Harness.Bench_row} rows, gated against a committed baseline by
    {!Harness.Bench_row.load_points} and {!Harness.Bench_row.load_knee}. *)

type point = {
  p_mult : float;  (** offered rate as a multiple of the estimate *)
  p_offered_hz : float;
  p_report : Gen.report;
}

type result = {
  sw_mode : string;  (** ["smoke"] / ["full"] — the baseline key space *)
  sw_capacity_hz : float;  (** the device-capacity estimate swept over *)
  sw_points : point list;  (** ascending by [p_mult] *)
  sw_knee_mult : float;  (** 0. when not located *)
  sw_knee_hz : float;  (** 0. when not located *)
}

val capacity_estimate : Gen.config -> float
(** Offered-rate scale for the sweep: per-shard drain bandwidth under
    a wall-clock drain profile (1e9 / fence_per_flush_ns), times
    shards, halved when consumers share the device. *)

val smoke_config : unit -> Gen.config
(** CI shape: 2 shards, 3 tenants (strict hot-key, leader, quota-capped
    strict), 0.6 s per point, 5 ms SLA. *)

val full_config : unit -> Gen.config
(** Report shape: 4 shards, same tenant mix, 2.5 s per point. *)

val run : ?mults:float list -> mode:string -> Gen.config -> result
(** Sweep the config's tenant mix — [t_rate_hz] values are treated as
    {e weights} and rescaled so each point's total offered rate is
    [mult * capacity_estimate].  Default multiples:
    [0.4; 0.8; 1.6; 3.0] (smoke) or [0.3; 0.6; 0.9; 1.2; 2.0; 4.0]. *)

val rows : result -> Harness.Bench_row.t list
(** A ["point"] row per sweep point and one ["knee"] row, keyed by
    (mode, mult) and mode for the gate. *)

val write_json : path:string -> result -> unit
(** {!rows} as JSON lines. *)

val gate : baseline:string -> frac:float -> result -> string list
(** Regression check; [[]] means pass.  Structural: every point's
    delivery check ({!Gen.report.rep_check}) must pass, the knee must be
    located, and every above-knee point must shed (or reject) work
    while keeping strict p99 within [2 * sla / frac].  Against the
    baseline file (silently skipped when absent): each point's
    admitted rate and the knee rate must stay within [frac] of the
    committed values, by {!Harness.Bench_row.gate}. *)

val pp : Format.formatter -> result -> unit
