(** Systematic mid-operation crash exploration.

    {!run} is the one crash driver: bodies run as effect-based fibers
    yielding at every simulated-NVRAM access; a seeded scheduler drives
    arbitrary interleavings and can cut the run — a full-system crash —
    between any two persist-relevant instructions of the real algorithm
    code.  The queue explorer ({!explore_once}), the checkpoint-flip
    sweep ({!checkpoint_flip_once}) and the map explorer
    ({!Crashable_map.run_to_crash}) all crash through it.

    Lock-free queues only: algorithms that spin on volatile ownership
    words (the PTM queues, ONLL) have schedules on which the
    single-threaded scheduler would spin forever. *)

val run :
  heap:Nvm.Heap.t ->
  rng:Random.State.t ->
  crash_at:int option ->
  (unit -> unit) array ->
  bool
(** Run [bodies.(i)] as fiber [i] (thread id [i]), each yielding at the
    entry of every [heap] primitive; [rng] picks which live fiber takes
    the next step.  [crash_at = Some c] cuts the run after [c] steps: the
    unfinished fibers' continuations are dropped without running them —
    no unwinder, no closing fence.  A fiber's first step runs it up to
    its first primitive, so [c] steps execute [c - 1] primitives of a
    single fiber.  Returns [true] iff the cut left some fiber
    unfinished; the caller then crashes the heap. *)

val crash_and_recover :
  heap:Nvm.Heap.t ->
  rng:Random.State.t ->
  policy:Nvm.Crash.policy ->
  (unit -> unit) ->
  unit
(** Crash [heap] under [policy] (drawing from [rng]), model fresh
    post-crash threads, and run the recovery procedure. *)

val rounds : int -> (int -> (unit, string) result) -> (unit, string) result
(** [rounds n f] runs [f 0] ... [f (n - 1)], stopping at the first
    error: every campaign's loop. *)

type op = Enq of int | Deq | Sync

val explore_once :
  ?policy:Nvm.Crash.policy ->
  ?combining:bool ->
  ?buffered:bool ->
  Dq.Registry.entry ->
  seed:int ->
  plans:op list array ->
  crash_at:int option ->
  (unit, string) result
(** One exploration: [plans.(i)] is fiber [i]'s operation sequence;
    [crash_at = Some s] crashes after [s] scheduler steps under [policy]
    (default [Random_evictions]).  Operations cut by the crash are
    pending in the recorded {!History}.  After recovery the queue is
    drained and the whole history is checked for durable
    linearizability, then the run's span aggregates are audited
    ({!Fence_audit.check_aggregates}).  [~combining:true] routes
    enqueues through the flat-combining front-end ({!Dq.Combining_q})
    with its waiters yielding through the fiber scheduler, so the crash
    can land mid-combine: after announce but before the combined batch's
    fence, or between the fence issue and the waiters' release.
    [~buffered:true] wraps the queue in the group-commit tier
    ({!Dq.Buffered_q}, watermark 4, a 16-entry ring) with its append lock yielding
    through the scheduler; [Sync] plan operations hit the explicit
    persistence boundary, issued commits persist-stamp the operations
    they cover, and a crashed run is judged by
    {!Lin_check.check_crash_cut} — the post-recovery drain must be a
    linearizable prefix keeping everything stamped, with the unsynced
    suffix gone as a unit.  Keep total operations within
    {!Lin_check.max_ops}. *)

val campaign :
  ?policy:Nvm.Crash.policy ->
  ?combining:bool ->
  ?buffered:bool ->
  Dq.Registry.entry ->
  rounds:int ->
  (unit, string) result
(** A randomized campaign: [rounds] seeds, each with a random 2-3 fiber
    plan and (two rounds in three) a crash at a random step, every crash
    using [policy] (default [Random_evictions]; run a second campaign
    under [Only_persisted] to drill the adversarial corner).
    [~combining:true] runs every round through the combining front-end;
    [~buffered:true] through the buffered-durability tier, with explicit
    [Sync] operations mixed into the plans. *)

val buffered_sweep :
  policy:Nvm.Crash.policy ->
  Dq.Registry.entry ->
  seed:int ->
  plans:op list array ->
  (unit, string) result
(** Crash one buffered schedule ({!explore_once} [~buffered:true],
    [seed], [plans]) at every step, from before the first primitive
    through the point after the last operation returned, under
    [policy]; every crashed run is judged by the crash-cut checker and
    audited.  For plans long enough to fill journal lines and wrap the
    16-entry ring — which the campaign's plans never do.  Keep total
    operations within {!Lin_check.max_ops}. *)

val checkpoint_flip_once :
  ?policy:Nvm.Crash.policy ->
  Dq.Registry.entry ->
  seed:int ->
  crash_at:int ->
  (bool, string) result
(** One directed run at the checkpoint's epoch-flip boundary: seeded
    quiescent churn, a committed predecessor checkpoint, more churn,
    then {!Dq.Checkpoint.run} cut after [crash_at] steps, and a crash
    (under [policy], default [Only_persisted]) — also when the run
    finished first, so the point after retirement is crashed too.
    Recovery must reproduce the exact pre-checkpoint contents (a
    checkpoint is contents-neutral on every side of the flip) and the
    span aggregates must pass the audit, whose table bounds the flip at
    one fence and no flush.  [Ok true]: the run had finished before the
    crash — the sweep's termination.  [Error]: the entry has no
    checkpoint handle, or an invariant broke. *)

val checkpoint_flip_campaign :
  ?policy:Nvm.Crash.policy ->
  Dq.Registry.entry ->
  seeds:int ->
  (unit, string) result
(** Sweep {!checkpoint_flip_once} over every crash point — before the
    first primitive up to the point after the run returns — for [seeds]
    seeds: the whole flip boundary, before, across and after the
    committed-word write, and after retirement. *)
