(** The sharded durable broker service: N independent durable queue
    shards (each on its own heap) behind one enqueue/dequeue API, with
    stream-pinned routing, fence-amortizing batched operations,
    bounded-depth backpressure and orchestrated crash recovery
    ({!Recovery}).

    The service owns routing, the one Serving/quarantine gate every
    per-stream operation passes, per-stream acks levels and the
    exactly-once offsets; past the gate each operation is one {!Shard}
    call.  {!Shard} owns the depth gauge and the choice of tier, so
    [enqueue], [enqueue_once] and [enqueue_batch] share one admission
    path ({!Shard.enqueue}).

    Contract: per-stream durably-linearizable FIFO, at the stream's
    {e acks level}: all-synced streams are durable at operation return
    (strict durable linearizability), none/leader streams are buffered
    durably linearizable — persistence may lag execution up to the next
    group commit or explicit {!sync_stream}/{!sync_all}, and a crash
    drops exactly the contiguous unsynced suffix.  Each stream's
    operations are confined to one shard, shards share no NVM state, so
    shard-level (buffered) durable linearizability composes.  A global
    FIFO over independent producers is deliberately not promised. *)

type state = Serving | Recovering

(** Per-stream durability level: what an accepted enqueue promises
    (see {!Shard.acks}). *)
type acks = Shard.acks = Acks_none | Acks_leader | Acks_all_synced

val acks_name : acks -> string
(** ["none"] / ["leader"] / ["all-synced"] (the CLI vocabulary). *)

val acks_of_name : string -> acks
(** Inverse of {!acks_name}; raises [Invalid_argument] otherwise. *)

type t

val default_depth_bound : int

val create :
  ?algorithm:string ->
  ?shards:int ->
  ?policy:Routing.policy ->
  ?depth_bound:int ->
  ?mode:Nvm.Heap.mode ->
  ?latency:Nvm.Latency.config ->
  ?offsets:bool ->
  ?combining:bool ->
  ?acks:acks ->
  ?buffered:bool ->
  unit ->
  t
(** Defaults: OptUnlinkedQ, 4 shards, [Round_robin],
    [default_depth_bound], [Checked] heaps, {!Nvm.Latency.off}.
    [~offsets:true] attaches the durable commit offsets and the dedup
    index ({!Offsets}) that back {!enqueue_once} and
    {!dequeue_committed}; every item of such a service must carry the
    {!Spec.Durable_check} encoding, since recovery reads each recovered
    item's producer and sequence ({!Offsets.recover}).
    [~combining:true] puts the flat-combining enqueue front-end
    ({!Dq.Combining_q}) on every shard: announced
    enqueues are applied by an elected combiner as single-fence batches
    with a pipelined drain, the per-op mode staying available by
    leaving the knob off.  [~acks] sets the service-wide default
    durability level (default [Acks_all_synced]; override per stream
    with {!set_stream_acks}).  [~buffered] provisions the buffered
    group-commit tier ({!Dq.Buffered_q}) on every shard — defaults to
    [acks <> Acks_all_synced], and must be [true] for any weak level to
    be usable. *)

val algorithm : t -> string

val combining : t -> bool
(** Whether the shards carry the combining enqueue front-end. *)

val buffered_tier : t -> bool
(** Whether the shards carry the buffered group-commit tier. *)

val offsets : t -> Offsets.t option
(** The durable offset tier, when created with [~offsets:true].*)

val shards : t -> Shard.t array
val routing : t -> Routing.t
val state : t -> state
val serving : t -> bool

val shard_of_stream : t -> stream:int -> int
(** The shard a stream routes to (pins it under [Round_robin]). *)

val quiesce : t -> unit
(** Enter [Recovering]: operations observe [Retry]/[Busy] until
    {!resume}.  The recovery orchestrator brackets itself with these. *)

val resume : t -> unit

(** {1 Quarantine}

    Degraded service instead of whole-broker failure: a quarantined
    shard answers [Unavailable] to its pinned streams, new
    [Round_robin] streams route around it, and its items stay put until
    re-admission (pins are never moved — a stream's FIFO lives on one
    shard).  There are two ways in, each with one way out: an
    operator's drill ({!quarantine}), lifted by {!clear_quarantine};
    and a failed recovery ({!record_recovery}), lifted only by a later
    passing one.  A drill never overwrites a failed recovery. *)

val quarantine : t -> shard:int -> reason:string -> unit
(** Drill the shard: fence it off without a failed recovery.  A no-op
    on a shard whose last recovery failed. *)

val clear_quarantine : t -> shard:int -> (unit, string) result
(** Lift a drill: the one operator lift.  Re-checks nothing, since the
    shard's last recovery passed.  [Error] for a shard whose last
    recovery failed (it stays quarantined until a recovery passes) and
    for a shard that is not quarantined. *)

val record_recovery : t -> shard:int -> (unit, string) result -> unit
(** The verdict of the shard's recovery procedure ({!Recovery}), which
    owns the shard's quarantine: [Error reason] quarantines it as a
    failed recovery, over a drill if there is one; [Ok ()] lifts a
    failed recovery's quarantine and leaves a drill in place. *)

val shard_quarantined : t -> shard:int -> bool

val quarantined_shards : t -> int list
(** Indices of currently quarantined shards, ascending. *)

(** {1 Durability levels}

    A stream's level and its placement pick the shard tier its enqueues
    land on ({!Shard.enqueue}).  The strict tier drains first, so a
    stream's items go to the strict tier only until one of them is sent
    to the buffered tier at a weak level.  From then on the stream is
    placed on the buffered tier for good: every later item goes there,
    an all-synced one appended and then synced, so it is still durable
    when the call returns.  A stream's strict items therefore all
    precede its buffered ones, and a level may change at any time, in
    either direction, keeping per-stream FIFO across crashes and while
    the stream's own operations are in flight.  The price falls on a
    stream set back to all-synced after it used the buffered tier: a
    group commit per enqueue instead of the strict tier's one fence. *)

val stream_acks : t -> stream:int -> acks
(** The stream's effective level (its override, else the default). *)

val set_stream_acks : t -> stream:int -> acks -> unit
(** Override one stream's level, from its next enqueue on; the stream
    keeps its FIFO whatever the change (see above).  Raises
    [Invalid_argument] for a weak level on a service without the
    buffered tier. *)

val sync_stream : t -> stream:int -> Backpressure.verdict
(** The explicit persistence boundary: on [Accepted], every operation
    the stream completed before the call survives any later crash; a
    dequeue counts as an operation of the stream whose item it took.
    Joins the commit's device drain.  A no-op for a stream never placed
    on the buffered tier, whose operations were durable at return.
    [Retry] mid-recovery, [Unavailable] if the stream's shard is
    quarantined. *)

val sync_all : t -> unit
(** {!sync_stream} for every live shard (quarantined shards are
    skipped). *)

val durability_lags : t -> int array
(** Per shard: buffered-tier operations executed but not yet covered by
    a commit (all zeros without the tier, or after {!sync_all}). *)

val total_durability_lag : t -> int

(** {1 Single operations} *)

val enqueue : t -> stream:int -> int -> Backpressure.verdict
(** Enqueue onto the tier the stream's level and placement pick (see
    {e Durability levels} above).  A full buffered journal reports
    [Overflow] (like a full depth gauge): consume or {!sync_stream},
    then retry. *)

type deq_result =
  | Item of int
  | Empty
  | Busy  (** mid-recovery; retry after a short wait *)
  | Unavailable  (** the stream's shard is quarantined *)

val dequeue : t -> stream:int -> deq_result
(** Consume from the stream's shard. *)

val dequeue_any : t -> deq_result
(** Consume from any non-empty shard, sweeping from a rotating cursor.
    Quarantined shards are skipped. *)

(** {1 Exactly-once composition}

    Requires [~offsets:true] at {!create} (raises [Invalid_argument]
    otherwise).  Items must carry the {!Spec.Durable_check} encoding:
    their (producer, sequence) identity is what the durable maps key
    on, with sequences starting at 1 per producer. *)

type once_result =
  | Enqueued
  | Duplicate
      (** at or below the highest sequence the producer's shard has
          accepted from it *)
  | Rejected of Backpressure.verdict

val enqueue_once : t -> stream:int -> int -> once_result
(** Idempotent publish: drops items the dedup index has already seen.
    Ordered check-fresh -> enqueue -> raise the index.  The index is
    volatile, so the call persists nothing but the item, which is
    durable when [Enqueued] returns at [Acks_all_synced] and at the
    next group commit at a buffered level.  After a crash, recovery
    derives each producer's entry from the sequences its shard still
    holds and every group's durable commit offset
    ({!Offsets.recover}):
    - a retry of an item the shard still holds, or of one consumed
      through {!dequeue_committed}, reads [Duplicate];
    - a retry of an item the crash took before it was durable or
      delivered is accepted and delivered once, at every acks level;
    - an item whose dequeue persisted but whose commit did not was
      never returned, and its retry is accepted and delivered.
    Exactly-once holds for items consumed with {!dequeue_committed}: a
    plain {!dequeue} commits nothing, so a crash after it lets the
    item's retry in again. *)

val dequeue_committed : t -> stream:int -> group:int -> deq_result
(** The stream's next item not yet delivered to [group]: dequeues,
    drops anything at or below the group's commit offset, durably
    commits the delivered sequence before returning it. *)

(** {1 Batched operations}

    One blocking fence per batch per shard
    ({!Nvm.Heap.with_batched_fences}); durability at batch granularity —
    a crash during the call may drop any subset of the batch, each
    dropped operation counting as pending. *)

val enqueue_batch : t -> stream:int -> int list -> int * Backpressure.verdict
(** Returns (items accepted, verdict).  On [Overflow] the accepted
    count is the prefix that fit the shard's depth bound and, on the
    buffered tier, its journal. *)

type deq_batch = Items of int list | Busy_batch | Unavailable_batch

val dequeue_batch : t -> stream:int -> max:int -> deq_batch
(** Up to [max] items from the stream's shard in FIFO order ([Items []]
    when empty). *)

(** {1 Introspection (quiescent use)} *)

val to_lists : t -> int list array
val depths : t -> int array
val total_depth : t -> int
