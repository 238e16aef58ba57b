(** One shard: a durable queue instance on its own heap (its own
    simulated DIMM) plus its volatile counters — the depth gauge and the
    strict tier's occupancy bound.  The heap boundary is the unit of
    persist statistics, fence-drain bandwidth sharing, crash images and
    recovery.

    This module is the one place an item is admitted and placed on a
    tier: {!enqueue} takes room in the depth gauge for as much of a list
    as the bound allows and puts that prefix on the tier the acks level
    and the stream's placement pick, {!dequeue} and {!dequeue_batch}
    give the room back, and {!recover} re-seats both counters.

    The strict-tier bound is an upper bound on the strict queue's item
    count: every strict enqueue raises it first, and a dequeue lowers it
    only after the removal's persist is fenced.  Every enqueue onto the
    strict tier goes through {!enqueue}, so the bound is never below the
    tier's length; at quiescence the two are equal. *)

(** Per-stream durability level: what an accepted enqueue promises. *)
type acks =
  | Acks_none
      (** buffered tier, fire-and-forget: durable once the commit of its
          journal line (issued as the line fills) or an explicit sync
          drains *)
  | Acks_leader
      (** buffered tier, commit drains joined: the producer is paced to
          the device by the journal's watermark *)
  | Acks_all_synced
      (** durable before the call returns: the strict tier, or, for a
          stream already placed on the buffered tier, an append there
          and a sync *)

type t

val create_all :
  entry:Dq.Registry.entry ->
  n:int ->
  depth_bound:int ->
  mode:Nvm.Heap.mode ->
  latency:Nvm.Latency.config ->
  combining:bool ->
  buffered:bool ->
  t array
(** [combining] puts the flat-combining enqueue front-end
    ({!Dq.Combining_q}) in front of every shard's instrumented
    instance.  [buffered] adds the buffered-durability tier
    ({!Dq.Buffered_q}: a journal ring, uninstrumented, fire-and-forget
    commits) beside the strict queue on every shard's heap. *)

val id : t -> int
val heap : t -> Nvm.Heap.t

val strict_bound : t -> int
(** The strict tier's occupancy bound: never below the strict queue's
    item count, and equal to it at quiescence. *)

val combining_idle : t -> bool option
(** [Some idle] when created with [~combining:true]: whether every
    announce slot of the combining front-end is idle (a quiescent audit
    for leaked announcements).  [None] without the front-end. *)

val buffered : t -> Dq.Buffered_q.t option
(** The shard's buffered-durability tier, when created with
    [~buffered:true] (group-commit statistics and the durability lag
    live there). *)

val depth : t -> int
(** Items admitted and not yet dequeued, over both tiers: a volatile,
    advisory gauge, re-seated from the recovered contents by {!recover}. *)

val depth_bound : t -> int
(** The gauge's bound: {!enqueue} admits nothing past it. *)

val to_list : t -> int list
(** Front-to-rear contents, strict tier then buffered tier; quiescent
    use only.  A stream's strict items all precede its buffered ones
    (see {!enqueue}), so per-stream FIFO survives the concatenation. *)

val enqueue : t -> acks:acks -> on_buffered:bool -> int list -> int
(** Admit [items] and place them on the tier that [acks] and
    [on_buffered] pick; returns how many were enqueued, always a prefix
    of [items] (0 at the depth bound).  Room is taken for as long a
    prefix as the bound allows, and whatever of it goes unused is given
    back before the call returns.

    [on_buffered] says that the items' stream has already been placed on
    the buffered tier.  Such a stream's items go there at every level,
    because the strict tier drains first: a stream's placement only
    ever moves toward the tier that drains second, so its strict items
    all precede its buffered ones, across crashes too.

    - [Acks_all_synced], not [on_buffered]: the strict tier (through the
      combining front-end when there is one), durable on return.  A
      single item is a plain per-op enqueue; a longer prefix is one
      batch under one closing fence ({!Nvm.Heap.with_batched_fences},
      or the combiner's pass).  The strict bound is raised by the prefix
      length first.
    - [Acks_leader] / [Acks_none]: appended to the buffered tier one by
      one, [Acks_leader] joining the drain of any commit an append
      trips.  A full journal stops the list there.
    - [Acks_all_synced] and [on_buffered]: appended like [Acks_none],
      then one {!sync} covers the appended prefix, so it is durable on
      return.

    Raises [Invalid_argument] for a buffered placement (a weak level,
    or [on_buffered]) on a shard without the buffered tier, before any
    room is taken. *)

val dequeue : t -> int option
(** Consume: strict tier first, then the buffered tier (the [to_list]
    order), giving the item's room back to the depth gauge.  The strict
    queue is probed only while the strict bound is positive.  At 0 every
    dequeue that emptied the tier has returned having persisted its head
    index, so the skipped failing dequeue would persist nothing new: an
    empty strict tier costs no movnti and no fence.  A buffered dequeue
    costs no fence either. *)

val recover : t -> int list
(** Both tiers' recovery, single-threaded: the strict queue's own
    procedure, then the buffered tier's journal read — exactly the
    synced floor; the unsynced tail is dropped as a unit.  One walk of
    the rebuilt tiers then re-seats the depth gauge (both tiers) and the
    strict bound (the strict tier), and the contents are returned in
    [to_list] order.  Quiescent use only, after a crash.  If a tier's
    recovery raises, the counters are left as they were: the caller
    keeps the shard out of service until a recovery returns. *)

val sync : t -> unit
(** Group-commit the buffered tier and join its drain (no-op without
    one). *)

val durability_lag : t -> int
(** Buffered-tier operations executed but not yet covered by a commit
    (0 without a buffered tier). *)

val checkpoint : t -> Dq.Checkpoint.t option
(** The strict queue's incremental-checkpoint handle, when its algorithm
    exposes one — the handle [recover] consults and the supervisor's
    checkpoint scheduler drives.  The instrumentation wrappers inherit
    it from the raw instance. *)

val occupancy : t -> Nvm.Stats.occupancy
(** This shard heap's occupancy: regions and words live vs reclaimed by
    checkpoint compaction. *)

val dequeue_batch : t -> max:int -> int list
(** Dequeue up to [max] items under one closing fence, in FIFO order;
    stops early on empty, and returns [[]] without touching either tier
    when [max <= 0].  The strict dequeues' fences are absorbed, so the
    strict bound drops by the strict items taken only after the closing
    fence; the items' room goes back to the depth gauge. *)
