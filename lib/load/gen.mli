(** The open-loop load driver: multi-tenant Poisson traffic against an
    admission-fronted broker service, with per-operation latency
    records.

    Arrivals are planned up front ({!Arrivals}) and mapped onto the
    wall clock, so a saturated service accumulates backlog instead of
    slowing the offered rate — the open-loop shape that closed-loop
    benchmarks hide.  Each tenant draws Zipf-skewed keys through the
    tree's one seed discipline ({!Harness.Zipf.create_worker}); a
    tenant's stream [key] is pinned to one shard, so per-stream FIFO
    and the shard-level saturation story both hold.  Run under
    {!Nvm.Latency.dimm_wall} the device drains elapse as sleeps, so a
    1-core host still expresses device saturation. *)

type tenant = {
  t_rate_hz : float;  (** offered arrival rate *)
  t_acks : Broker.Service.acks;  (** requested durability level *)
  t_keyspace : int;  (** streams per tenant (1..4096) *)
  t_theta : float;  (** Zipf skew over the keyspace *)
  t_quota_hz : float;  (** admission token rate; [infinity] = unlimited *)
  t_quota_burst : float;  (** token bucket depth *)
  t_deadline_s : float option;  (** shed ops older than this at admit *)
}

val tenant_default : tenant
(** 1000 Hz all-synced over 64 keys (theta 0.99), unlimited quota, no
    deadline. *)

type config = {
  tenants : tenant list;
  bursts : Arrivals.burst list;  (** shared burst phases *)
  duration_s : float;
  shards : int;
  producers : int;  (** producer domains (streams partitioned) *)
  consumers : int;  (** consumer domains; 0 = enqueue-only *)
  algorithm : string;
  latency : Nvm.Latency.config;
  depth_bound : int;
  watermarks : Broker.Admission.watermarks;
  admission : bool;
      (** [false] = raw service (no quota/shed/degrade); [true] demotes
          all-synced streams onto the buffered tier under Yellow
          pressure *)
  sla_s : float;  (** target p99 enqueue→durable *)
  seed : int;
}

val config_default : config
(** Two shards, two producers, one consumer, one default tenant, 1 s,
    {!Nvm.Latency.dimm_wall}, admission on with
    {!Broker.Admission.default_watermarks}, 5 ms SLA (strict ops share
    their producer with leader-tier commit joins, so the tail is tens
    of device slots). *)

type tenant_report = {
  r_tenant : int;
  r_row : Broker.Admission.row;  (** admit/shed/degrade counters *)
  r_durable : Metrics.summary;  (** arrival→durable, admitted ops *)
  r_dequeue : Metrics.summary;  (** arrival→dequeue, consumed ops *)
}

type report = {
  rep_duration_s : float;  (** configured offered window *)
  rep_elapsed_s : float;
      (** wall time from the schedule origin to the last producer's
          return *)
  rep_offered : int;
  rep_offered_hz : float;
  rep_admitted_hz : float;  (** admitted ops over elapsed time *)
  rep_totals : Broker.Admission.row;
  rep_tenants : tenant_report list;
  rep_shard_durable : Metrics.summary array;
  rep_durable : Metrics.summary;  (** arrival→durable, all admitted ops *)
  rep_strict_durable : Metrics.summary;
      (** admitted ops whose {e effective} level was all-synced — the
          population the SLA speaks for.  Buffered-tier ops (leader /
          none tenants, and degraded ops) lag by the group commit by
          design, so they are reported but not SLA-gated. *)
  rep_dequeue : Metrics.summary;
  rep_consumed : int;
  rep_demoted : int;  (** streams degraded to acks=leader *)
  rep_sla_s : float;
  rep_sla_ok : bool;  (** strict admitted-op p99 durable within the SLA *)
  rep_check : (unit, string) result;
      (** the delivery verdict ({!Drive.verify}) over every admitted op
          and warm-up sentinel, after the closing sync *)
}

val run : config -> report
(** One generation run against a fresh service: an open-loop
    configuration of {!Drive}.  Deterministic schedule for a given
    [seed]; timings are measured, not modeled. *)

val pp_report : Format.formatter -> report -> unit
