(** Buffered-durability tier: group-commit persistence behind an
    explicit [sync] boundary.

    A {e buffered durable linearizable} FIFO queue: operations take
    effect at once but their persistence may lag execution.  The queue
    is a journal ring of 8-word lines, each holding seven enqueued
    values and one {e seal} word: the live items are the journal entries
    [consumed, appended).  An enqueue appends under a lock; a dequeue
    claims the oldest live entry with one CAS and reads its value from a
    volatile copy of the ring, touching no NVM word.

    A commit stores the packed (floor, consumed) pair, read under the
    lock, in the seal word of the line holding entry [floor - 1], after
    that line's entries, flushes that line and issues one split fence.
    The append that fills a line commits at once, and so do {!sync} and
    the ring guard.  A seal is the last store to its line, so by the
    paper's Assumption 1 a surviving seal means its entries survived:
    the seal needs no fence of its own.  A crash keeps at least the last
    issued commit's cut — every operation covered by a commit survives,
    and the lost suffix is exactly the contiguous uncommitted tail;
    recovery takes the highest seal whose window's lines are all sealed
    full, refills the volatile copy and allocates nothing.

    The point of the exercise is device bandwidth: seven enqueues cost
    one flush and one fence instead of seven, which under the
    device-bound [dimm] profile is a proportional wall-clock win (strict
    per-op persistence pays one full drain per operation no matter how
    fences are batched), and an operation is durable one line drain
    after its line fills.  The watermark triggers no commit:
    it only paces an acknowledging producer (see {!enqueue}).

    A commit's fence must be issued at once, so {!enqueue} and {!sync}
    refuse a caller whose fences are absorbed
    ({!Nvm.Heap.fences_absorbed}); {!dequeue} issues no persist and
    works anywhere. *)

type t

exception Journal_full
(** Raised by an enqueue whose journal-ring slot is still covered by the
    committed snapshot: the unconsumed backlog reached [capacity]. *)

val name : string
(** ["BufferedQ"]: the {!instance}'s name. *)

val create :
  ?watermark:int ->
  ?capacity:int ->
  ?yield:(unit -> unit) ->
  Nvm.Heap.t ->
  t
(** [create heap] allocates the journal region on [heap] (its only NVM
    footprint) and a volatile copy of the ring.  [capacity] (default
    65536) is the unconsumed backlog allowed before {!Journal_full}; the
    ring rounds it up to whole seven-entry lines.  [watermark] (default
    64) spaces the pacing points of an acknowledging producer (see
    {!enqueue}).  [yield] is the append-lock back-off hook (the
    interleaving explorer passes its fiber yield).
    @raise Invalid_argument when [watermark < 1], or [capacity] is
    below 1 or above 2{^31} - 1. *)

val enqueue : ?join:bool -> t -> int -> unit
(** Append to the journal.  The append that fills a line commits it
    (write-behind: one flush and one split fence, not waited for).  The
    watermark only paces: the append that fills the first line at or
    past [watermark] entries since the previous pacing point is the next
    one; it saves its commit's ticket and, when it acknowledges, waits
    for the ticket saved at the previous point.  A device that keeps up
    has drained that one already, so an acknowledging producer never
    waits on it, while one that outruns the device stays within about
    two watermarks of it.  [join] (default [true]) makes this call
    acknowledge; [false] leaves every drain to {!sync} (the broker maps
    acks=leader onto [~join:true] and acks=none onto [~join:false] over
    the same shard tier).
    @raise Journal_full when the unconsumed backlog reached
    [capacity].
    @raise Invalid_argument inside a batched-fence scope
    ({!Nvm.Heap.with_batched_fences}), before any state changes. *)

val dequeue : t -> int option
(** Claim the oldest live entry (lock-free: one CAS on the consumed
    count; no NVM access).  The dequeue's durability point is the next
    commit covering it; a crash before that replays the item. *)

val sync : t -> unit
(** The explicit persistence boundary: issue a commit covering every
    operation completed so far and join its drain.  On return, all of
    them survive any later crash.
    @raise Invalid_argument inside a batched-fence scope
    ({!Nvm.Heap.with_batched_fences}), before any state changes: the
    commit's fence would land only when the scope closes. *)

val recover : t -> unit
(** Post-crash: read each seal word once, take the highest-floor seal
    whose lines, from the one holding its consumed floor up, are all
    sealed full (the last issued commit always qualifies), refill the
    volatile copy's entries [consumed, floor) from the journal, and
    durably overwrite every seal above the floor with the chosen one, so
    no line refilled later can chain onto a seal written before the
    crash.  Allocates nothing.  Single-threaded, like every queue
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
    issued commit's fence, with the cut its seal published and the drain
    ticket that completes last of its fence and every earlier
    commit's.  The explorer uses it to persist-stamp
    history operations; the bench derives op→durable latency from the
    ticket's deadline. *)

type stats = { s_commits : int; s_syncs : int }
(** Commits issued (write-behinds, syncs and the ring guard) and
    {!sync} calls. *)

val stats : t -> stats
