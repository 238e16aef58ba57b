(** The broker supervisor: turns per-shard recovery verdicts into a
    degraded-but-serving broker.  A shard whose {!Recovery} validation
    fails is quarantined ({!Service.quarantine}): its pinned streams
    observe [Unavailable], new [Round_robin] streams route around it,
    and it re-enters service only after a clean re-check.  Pins are
    never moved — per-producer FIFO lives on one shard. *)

type verdict = Healthy | Quarantined of string

val verdict_name : verdict -> string

type heal = {
  recovery : Recovery.report;
  verdicts : verdict array;  (** indexed by shard *)
  newly_quarantined : int list;
  readmitted : int list;
      (** previously quarantined shards whose verdict came back clean *)
}

val healthy : heal -> bool
(** No newly quarantined shard and no cross-shard leakage.  (Shards
    still quarantined from before are a known-degraded state, not a new
    failure.) *)

val recover_and_heal :
  ?rng:Random.State.t ->
  ?policy:Nvm.Crash.policy ->
  ?domains:int ->
  ?producer_of:(int -> int) ->
  ?check_unique:bool ->
  Service.t ->
  heal
(** One {!Recovery.crash_and_recover} cycle, then classify: failed
    verdicts are quarantined (reason = the verdict), clean verdicts on
    previously quarantined shards are auto-readmitted.  Same
    preconditions and raises as {!Recovery.crash_and_recover}. *)

val force_quarantine : Service.t -> shard:int -> reason:string -> unit
(** Operator/drill entry: fence a shard off without a failed verdict. *)

val readmit :
  ?producer_of:(int -> int) ->
  ?check_unique:bool ->
  Service.t ->
  shard:int ->
  (unit, string) result
(** Lift a quarantine after a clean in-place re-check
    ({!Recovery.recheck}); on [Error] the shard stays quarantined.
    Readmitting a shard that is not quarantined is an [Error] without a
    re-check — the guard that makes drill flapping and racing operators
    unable to double-readmit (a second re-check would re-seat the
    backpressure gauge under live traffic). *)

val pp : Format.formatter -> heal -> unit

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
