(** Admission control in front of {!Service}: per-tenant token-bucket
    quotas, queue-depth watermarks, deadline-aware
    shedding and graceful degradation — the overload path that keeps the
    broker's accepted work inside its SLA instead of letting the device
    queue melt under open-loop arrivals.

    Placement matters: everything here runs {e before} the shard sees
    the operation, so a shed costs no device bandwidth — under overload
    the excess is turned away at the door and the backlog drains at
    device speed.  Rejections are typed so clients can react correctly:
    a {!shed} ([Quota_exceeded] / [Overloaded] / [Deadline_exceeded])
    is the admission layer's own verdict and is {e not retryable by
    default} (retrying it is what turns overload into collapse), while
    [Rejected] wraps the service's own backpressure verdict —
    [Unavailable] (quarantine) stays distinct from overload, and the
    layer never charges quota for an operation the service could not
    have accepted anyway. *)

(** Watermark thresholds on the target shard's depth, evaluated at
    admission time.  The buffered tier's durability lag needs none: every
    journal line commits inside the append that fills it, so the lag
    stays below one line. *)
type watermarks = {
  yellow_depth : float;
      (** shard depth as a fraction of its bound at which degradation
          starts (demote acks=all-synced tenants to leader) *)
  red_depth : float;  (** depth fraction at which new work is shed *)
}

val default_watermarks : watermarks
(** yellow at 50% depth, red at 85%. *)

type level = Green | Yellow | Red

val level_name : level -> string

(** Per-tenant admission contract. *)
type tenant = {
  rate_hz : float;
      (** token-bucket refill rate; [infinity] disables the quota *)
  burst : float;  (** bucket capacity (tokens) *)
  acks : Service.acks;  (** the tenant's requested durability level *)
  deadline_s : float option;
      (** SLA deadline: an operation whose age at admission already
          exceeds this can no longer meet its latency target and is
          shed instead of queued *)
}

val unlimited : ?acks:Service.acks -> unit -> tenant
(** No quota, no deadline, default acks [Acks_all_synced]. *)

type shed =
  | Quota_exceeded  (** the tenant's token bucket is empty *)
  | Overloaded of string
      (** a red watermark on the target shard (the string names it) *)
  | Deadline_exceeded  (** the operation can no longer meet its SLA *)

type decision =
  | Admitted of Service.acks
      (** enqueued; the payload is the {e effective} level — lower than
          the tenant's requested level when a yellow watermark demoted
          the stream *)
  | Shed of shed
  | Rejected of Backpressure.verdict
      (** the service's own verdict (never [Accepted]); quota is
          refunded *)

val decision_name : decision -> string
val shed_name : shed -> string

type t

val create : ?watermarks:watermarks -> ?now:(unit -> float) -> Service.t -> t
(** A yellow watermark demotes acks=all-synced tenants onto the buffered
    leader tier when the service has that tier; without it yellow
    watermarks are reported but demote nothing.  [now] injects the clock
    (tests); default [Unix.gettimeofday]. *)

val service : t -> Service.t

val set_tenant : t -> tenant:int -> tenant -> unit
(** Register or replace a tenant's contract.  Unregistered tenants get
    {!unlimited}. *)

val tenant_config : t -> tenant:int -> tenant

val shard_level : t -> shard:int -> level
(** The shard's current watermark level, read from its depth. *)

val enqueue :
  t -> tenant:int -> stream:int -> ?arrival:float -> int -> decision
(** The admission pipeline, in order: quarantine passthrough
    ([Rejected Unavailable], no quota charged), deadline check against
    [arrival] (default: now), red-watermark shed, token-bucket charge,
    yellow-watermark demotion, then {!Service.enqueue}.  A service
    verdict other than [Accepted] refunds the token. *)

val enqueue_batch :
  t -> tenant:int -> stream:int -> ?arrival:float -> int list ->
  int * decision
(** Batched admission: (items enqueued, decision).  Quota is granted as
    a prefix — with [k] tokens left, the first [k] items are admitted
    and the remainder reports [Shed Quota_exceeded]; service-side
    partial acceptance refunds the unused tokens.  The items the quota
    turned away count as [a_shed_quota] whatever the service then does
    with the prefix; only prefix items it refuses count as
    [a_rejected]. *)

val demoted_streams : t -> int list
(** Streams currently demoted below their tenant's requested level,
    ascending. *)

val restore_demoted : t -> int list
(** Lift every demotion, restoring each stream's requested acks level,
    and return the restored streams.  A restored stream keeps its FIFO
    and stays on the buffered tier, its all-synced enqueues each
    appended and synced there (see {!Service.set_stream_acks}). *)

(** {1 Accounting} *)

type row = {
  a_tenant : int;
  a_sent : int;  (** admission attempts (batch items counted singly) *)
  a_admitted : int;  (** enqueued, at any level *)
  a_degraded : int;  (** admitted below the requested acks level *)
  a_shed_quota : int;
  a_shed_overload : int;
  a_shed_deadline : int;
  a_rejected : int;  (** service-side backpressure (incl. quarantine) *)
}

val rows : t -> row list
(** One row per tenant ever seen, ascending. *)

val totals : t -> row
(** All tenants summed ([a_tenant = -1]). *)

val pp_rows : Format.formatter -> t -> unit
