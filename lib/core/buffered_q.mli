(** Buffered-durability tier: group-commit persistence behind an
    explicit [sync] boundary.

    A {e buffered durable linearizable} FIFO queue: operations take
    effect at once but their persistence may lag execution.  The queue
    is a line-packed journal ring (eight enqueued values per cache line)
    plus one packed (floor, consumed) meta word: the live items are the
    journal entries [consumed, appended).  An enqueue appends under a
    lock; a dequeue claims the oldest live entry with one CAS and reads
    its value from a volatile copy of the ring, touching no NVM word.
    The append that fills a journal line writes it behind at once (flush
    and split fence, not waited for); a group commit on a watermark, on
    {!sync}, or at a combiner handoff flushes what no write-behind
    covered — at most the partial tail line — and publishes the meta
    word behind its own fence.  A {e line commit} is that same commit,
    issued right behind the write-behind by an append that fills a line
    short of the watermark, when three things hold: the heap's device
    has nothing queued ({!Nvm.Heap.device_idle}), so the commit uses
    device time no one else wants and never queues behind another
    tier's fences; the line took at least one line drain to fill, so a
    producer that outruns the device keeps the watermark's batching;
    and the caller's fences are not absorbed, since the write-behind
    is skipped then.  The device conditions hold that batching only
    where drains queue on the device (an enabled
    {!Nvm.Latency.drain_wall} profile); under any other profile the
    device always reads idle and every line filled short of the
    watermark commits.  No caller joins a line commit.  The meta word is
    the only commit point:
    a crash keeps exactly the last issued commit's snapshot — every
    operation covered by a commit survives, and the lost suffix is
    exactly the contiguous unsynced tail; recovery refills the volatile
    copy from the journal floor and allocates nothing.

    The point of the exercise is device bandwidth: a group of [watermark]
    enqueues costs [watermark/8 + 1] flushes instead of [watermark],
    which under the device-bound [dimm] profile is a proportional
    wall-clock win (strict per-op persistence pays one full drain per
    operation no matter how fences are batched).  Writing lines behind
    keeps that flush count and moves the drains off the commit: a
    commit, a {!sync} or an acknowledging enqueue waits for at most two
    line drains (tail and meta) instead of [watermark/8 + 1], at the
    price of one fence per line — [watermark/8 + 1] or [+ 2] fences per
    group instead of two.  Line commits add a meta flush and fence per
    line while the device idles, and bound a slow producer's lag by a
    line instead of the watermark. *)

type t

exception Journal_full
(** Raised by an enqueue whose journal-ring slot is still covered by the
    committed snapshot: the unconsumed backlog reached [capacity]. *)

val name : string
(** ["BufferedQ"]: the {!instance}'s name. *)

val create :
  ?watermark:int ->
  ?capacity:int ->
  ?join_commits:bool ->
  ?yield:(unit -> unit) ->
  Nvm.Heap.t ->
  t
(** [create heap] allocates the journal region on [heap] (its only NVM
    footprint) and a volatile copy of [capacity] words.  [watermark]
    (default 64) is the group-commit size in enqueues; [capacity]
    (default 65536) the journal ring size, a multiple of the 8-word
    line so ring slots line up with cache lines; [join_commits] (default
    [true]) makes the enqueue that trips the watermark join its commit's
    drain — bounded durability lag, producer paced to the device (the
    broker's acks=leader shape) — while [false] leaves every drain to
    [sync].  [yield] is the append-lock back-off hook (the interleaving
    explorer passes its fiber yield).
    @raise Invalid_argument when [watermark < 1], or [capacity] is
    below one line, above 2{^31} - 1 or not a multiple of 8. *)

val enqueue : ?join:bool -> t -> int -> unit
(** Append to the journal; writes the journal line
    behind when this append fills it (and issues a line commit right
    behind it when the device idles), and trips a group commit at the
    watermark.  [join] overrides [join_commits] for this call (the
    broker maps acks=leader onto [~join:true] and acks=none onto
    [~join:false] over the same shard tier); it applies to a watermark
    commit only, never to a line commit.
    @raise Journal_full when the unconsumed backlog reached
    [capacity]. *)

val dequeue : t -> int option
(** Claim the oldest live entry (lock-free: one CAS on the consumed
    count; no NVM access).  The dequeue's durability point is the next
    commit covering it; a crash before that replays the item. *)

val sync : t -> unit
(** The explicit persistence boundary: issue a group commit covering
    every operation completed so far and join its drain.  On return,
    all of them survive any later crash. *)

val recover : t -> unit
(** Post-crash: read the meta word, discard the journal tail beyond its
    floor and refill the volatile copy's entries [consumed, floor) from
    the journal.  Allocates nothing.  Single-threaded, like every queue
    recovery. *)

val instance : t -> Queue_intf.instance
(** The tier as a {!Queue_intf.instance} named {!name}; [sync] is live
    and [to_list] lists the live entries (quiescent use only). *)

(** {1 Introspection} (tests, the explorer, the durability-lag bench) *)

val appended : t -> int
(** Enqueues ever appended to the journal. *)

val committed_floor : t -> int
(** Enqueues covered by the last issued commit. *)

val committed_consumed : t -> int
(** Dequeues covered by the last issued commit. *)

val consumed : t -> int
(** Dequeues ever claimed. *)

val durability_lag : t -> int
(** [appended - committed_floor]: operations executed but not yet
    covered by any commit. *)

val journal_value : t -> int -> int
(** The [i]th appended value (volatile peek; [0 <= i < appended]). *)

val set_on_commit :
  t -> (floor:int -> consumed:int -> drain:Nvm.Heap.drain -> unit) option -> unit
(** Callback invoked (with the append lock held) right after each
    commit's meta fence is issued, with the snapshot it published and
    the drain ticket that completes last of its meta fence and the
    write-behinds it covers.  The explorer uses it to persist-stamp
    history operations; the bench derives op→durable latency from the
    ticket's deadline. *)

type stats = { s_commits : int; s_syncs : int }
(** Commits issued (watermark, sync, ring guard and line commits) and
    {!sync} calls. *)

val stats : t -> stats
