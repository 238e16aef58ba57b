(** The broker supervisor: a degraded-but-serving broker after a
    crash.  Each shard's recovery verdict owns its quarantine
    ({!Recovery}, {!Service.record_recovery}): a shard whose recovery
    failed answers [Unavailable] to its pinned streams, new
    [Round_robin] streams route around it, and it serves again only
    once a later recovery passes.  The supervisor also lifts a drill
    whose shard passed a crash-recovery cycle.  Pins are never moved —
    per-producer FIFO lives on one shard. *)

type heal = {
  recovery : Recovery.report;
  newly_quarantined : int list;
      (** shards serving before the cycle whose recovery failed *)
  readmitted : int list;
      (** previously quarantined shards whose recovery passed *)
}

val healthy : heal -> bool
(** Every shard's recovery passed and no item leaked across shards
    ({!Recovery.ok}): a shard whose recovery failed reads degraded,
    whether or not it was quarantined before the cycle. *)

val recover_and_heal :
  ?rng:Random.State.t ->
  ?policy:Nvm.Crash.policy ->
  ?domains:int ->
  ?producer_of:(int -> int) ->
  ?check_unique:bool ->
  Service.t ->
  heal
(** One {!Recovery.crash_and_recover} cycle, which quarantines every
    shard whose recovery failed and lifts a failed recovery's
    quarantine from every shard that passed; then a drilled shard that
    passed is lifted too ({!Service.clear_quarantine}).  Same
    preconditions and raises as {!Recovery.crash_and_recover}. *)

val pp : Format.formatter -> heal -> unit
(** The recovery report, then [shard N QUARANTINED: reason] for each
    failed shard, the readmitted shards and the supervisor's verdict. *)

(** {1 Checkpoint scheduler}

    The supervisor's other maintenance duty: bound recovery time by
    compacting shard heaps at quiescence ({!Dq.Checkpoint}).  Always
    quarantine-aware — a quarantined shard's contents are suspect, and
    checkpointing them would launder the corruption into the committed
    epoch. *)

type ckpt_decision =
  | Checkpointed of Dq.Checkpoint.report
  | Skipped of string  (** why the shard was left alone *)

val checkpoint_shard : Service.t -> shard:int -> ckpt_decision
(** Checkpoint one shard now (buffered journal synced first so the
    committed floor is consistent with the image), unless it is
    quarantined or its algorithm exposes no checkpoint handle.
    Quiescent use only. *)

type scheduler

val scheduler : ?min_live_regions:int -> Service.t -> scheduler
(** A per-shard trigger: checkpoint when the shard heap's live region
    count reaches [min_live_regions] (default 8). *)

val due : scheduler -> Service.t -> shard:int -> bool

val checkpoint_tick : scheduler -> Service.t -> ckpt_decision array
(** One scheduler pass: checkpoint every non-quarantined shard whose
    threshold tripped.  Quiescent use only. *)

val checkpoint_all : Service.t -> ckpt_decision array
(** Checkpoint every eligible shard regardless of thresholds. *)

val pp_ckpt_decisions : Format.formatter -> ckpt_decision array -> unit
