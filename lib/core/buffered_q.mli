(** Buffered-durability wrapper: group-commit persistence behind an
    explicit [sync] boundary.

    Wraps any registry queue as a {e buffered durable linearizable}
    variant: operations keep their concurrent semantics but their
    persistence may lag execution.  The wrapped queue runs as a volatile
    mirror under {!Nvm.Heap.with_suppressed_persists}; durability is
    owned by a line-packed journal ring (eight enqueued values per cache
    line) plus one packed (floor, consumed) meta word.  The append that
    fills a journal line writes it behind at once (flush and split
    fence, not waited for); a group commit on a watermark, on {!sync},
    or at a combiner handoff flushes what no write-behind covered — at
    most the partial tail line — and publishes the meta word behind its
    own fence.  The meta word is the only commit point: a crash keeps
    exactly the last issued commit's snapshot — every operation covered
    by a commit survives, and the lost suffix is exactly the contiguous
    unsynced tail; recovery rebuilds the mirror by replaying the journal
    floor.

    The point of the exercise is device bandwidth: a group of [watermark]
    enqueues costs [watermark/8 + 1] flushes instead of [watermark],
    which under the device-bound [dimm] profile is a proportional
    wall-clock win (strict per-op persistence pays one full drain per
    operation no matter how fences are batched).  Writing lines behind
    keeps that flush count and moves the drains off the commit: a
    commit, a {!sync} or an acknowledging enqueue waits for at most two
    line drains (tail and meta) instead of [watermark/8 + 1], at the
    price of one fence per line — [watermark/8 + 1] or [+ 2] fences per
    group instead of two. *)

type t

exception Journal_full
(** Raised by an enqueue whose journal-ring slot is still covered by the
    committed snapshot: the unconsumed backlog reached [capacity]. *)

val name_suffix : string
(** ["+buffered"], appended to the wrapped queue's name. *)

val create :
  ?watermark:int ->
  ?capacity:int ->
  ?join_commits:bool ->
  ?yield:(unit -> unit) ->
  Nvm.Heap.t ->
  (Nvm.Heap.t -> Queue_intf.instance) ->
  t
(** [create heap make] wraps a fresh instance built by [make] (pass the
    {e raw} registry constructor: recovery rebuilds the mirror with it,
    and instrumentation belongs outside the wrapper).  [watermark]
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
(** Append to the journal and the mirror; writes the journal line
    behind when this append fills it, and trips a group commit at the
    watermark.  [join] overrides [join_commits] for this call (the
    broker maps acks=leader onto [~join:true] and acks=none onto
    [~join:false] over the same shard tier).
    @raise Journal_full when the unconsumed backlog reached
    [capacity]. *)

val dequeue : t -> int option
(** Dequeue from the mirror (lock-free, as the wrapped queue).  The
    dequeue's durability point is the next commit covering it; a crash
    before that replays the item. *)

val sync : t -> unit
(** The explicit persistence boundary: issue a group commit covering
    every operation completed so far and join its drain.  On return,
    all of them survive any later crash. *)

val recover : t -> unit
(** Post-crash: read the meta word, discard the journal tail beyond its
    floor, rebuild a fresh mirror and replay entries
    [consumed, floor).  Single-threaded, like every queue recovery. *)

val instance : t -> Queue_intf.instance
(** The wrapper as a {!Queue_intf.instance}; [name] gains
    {!name_suffix} and [sync] is live. *)

(** {1 Introspection} (tests, the explorer, the durability-lag bench) *)

val appended : t -> int
(** Enqueues ever appended to the journal. *)

val committed_floor : t -> int
(** Enqueues covered by the last issued commit. *)

val committed_consumed : t -> int
(** Dequeues covered by the last issued commit. *)

val consumed : t -> int
(** Dequeues ever completed on the mirror. *)

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

val stats : t -> stats
