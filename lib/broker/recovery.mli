(** Crash-recovery orchestration: one full-system crash snapshots every
    shard's NVM image, then each shard runs its one recovery procedure
    (single-threaded, per the paper's complete-recovery model; in
    parallel across shards): both tiers ({!Shard.recover}), then the
    offset map and dedup index rebuilt from the recovered contents
    ({!Offsets.recover}), then validation with the
    {!Spec.Durable_check} conditions.  The procedure's verdict owns the
    shard's quarantine ({!Service.record_recovery}), set before the
    service resumes. *)

type shard_report = {
  shard : int;
  recovered_items : int;
  recover_ms : float;
  ckpt_epoch : int;
      (** committed checkpoint epoch the recovery consulted; 0 when no
          checkpoint was ever committed (or the algorithm has none) *)
  replayed_items : int;  (** items replayed from the checkpoint image *)
  scanned_regions : int;
      (** designated-area regions scanned for the post-checkpoint
          residue — the quantity checkpointing bounds *)
  check : (unit, string) result;
}

type report = {
  shards : shard_report array;
  domains_used : int;
  wall_ms : float;
  leakage : (unit, string) result;
      (** cross-shard uniqueness of the recovered items *)
}

val ok : report -> bool
val pp : Format.formatter -> report -> unit

val crash_and_recover :
  ?rng:Random.State.t ->
  ?policy:Nvm.Crash.policy ->
  ?domains:int ->
  ?producer_of:(int -> int) ->
  ?check_unique:bool ->
  Service.t ->
  report
(** Crash the whole broker image and orchestrate recovery.  All
    application threads must have been stopped; heaps must be in
    [Checked] mode (else {!Nvm.Crash.Error} [Fast_mode_heap]).
    [policy] defaults to [Random_evictions], which — like every
    randomized policy — requires [rng] (else {!Nvm.Crash.Error}
    [Missing_rng]); seed it explicitly and log the seed so the run can
    be replayed.  [domains] is the number of domains that recover
    shards in parallel; it defaults to
    [Domain.recommended_domain_count ()], and either value is clamped
    to between 1 and the shard count.
    [producer_of] (e.g. {!Spec.Durable_check.producer_of}) additionally
    enables per-stream FIFO-order and routing-consistency validation;
    [check_unique] (default true) assumes the workload enqueues distinct
    item encodings.  On return the service is serving again, each shard
    whose [check] failed is quarantined until a later recovery passes,
    each shard that passed is lifted from a failed recovery's quarantine
    (an operator's drill stays), and the calling thread holds a fresh
    {!Nvm.Tid} registration.  A refused crash ([Fast_mode_heap],
    [Missing_rng]) raises before any shard is touched and leaves the
    service serving. *)
