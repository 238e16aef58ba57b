(** The simulated persistent-memory heap.

    Implements the two-level memory of the paper's model (Section 2): a
    volatile cache in front of a persistent NVRAM, with the persist
    instructions of the evaluation platform ([flush] = CLWB, [sfence] =
    SFENCE, [movnti] = non-temporal store).  Explicit flushes invalidate
    the flushed cache line, so later ordinary accesses pay an NVRAM miss —
    the cost the paper's "second amendment" eliminates.

    Addresses are word-granular integers ([region_id lsl 24 lor offset]);
    address [0] is NULL.  Words are 63-bit OCaml ints.  Eight consecutive
    words form a cache line; queue nodes occupy exactly one line (the
    paper's footnote 3 assumption). *)

type mode =
  | Fast  (** no store logs; crash simulation unavailable; for benchmarks *)
  | Checked
      (** per-line store logs enabling {!Crash} to materialise Assumption-1
          compliant post-crash images; for tests *)

type t

val null : int
(** The NULL address (0). *)

val is_null : int -> bool

val create : ?mode:mode -> ?latency:Latency.config -> unit -> t
(** Fresh heap. Defaults: [Checked] mode, {!Latency.off}. *)

val mode : t -> mode

val stats : t -> Stats.t
(** Per-thread total counters, re-derived from the span spine: the same
    array {!Span.stats} returns for {!spans}. *)

val spans : t -> Span.t
(** The heap's instrumentation spine.  Every primitive records into it;
    open spans around logical operations (see {!Span}) to get exact
    per-operation persist deltas, worst-case aggregates and traces. *)

val latency : t -> Latency.config

val alloc_region :
  ?owner:int -> t -> tag:Region.tag -> words:int -> Region.t
(** Allocate a zeroed region and persist the zeros (flush-all + one SFENCE,
    charged to the caller), as Section 5.1.3 prescribes for fresh
    designated areas.  [words] is rounded up to a whole number of lines.
    The persist is accounted under an excluded ["setup:alloc"] span, so
    an operation span that happens to trigger area growth is not billed
    for it. *)

val iter_regions : ?tag:Region.tag -> t -> f:(Region.t -> unit) -> unit
(** Iterate over allocated regions, optionally filtered by tag, skipping
    retired slots.  Recovery procedures use this to scan the designated
    node areas. *)

val free_region : t -> Region.t -> unit
(** Retire a region: its slot reverts to the sentinel (so {!region_of}
    rejects stale addresses and {!iter_regions} skips it) and its id is
    recycled by a later {!alloc_region}.  The caller owns the liveness
    argument — nothing may still hold addresses into the region.  This is
    the compaction half of the checkpoint subsystem: id/slot reuse is
    what bounds a long-lived heap's footprint.
    @raise Invalid_argument if the region is not live on this heap. *)

val occupancy : t -> Stats.occupancy
(** Snapshot of region/word allocation vs retirement totals (copy). *)

val snapshot_region :
  ?owner:int -> t -> tag:Region.tag -> int array -> Region.t
(** [snapshot_region t ~tag values] allocates a fresh region sized to
    [values] and streams the words into it with {!movnti} (cache-bypassing,
    so image construction can never create post-flush accesses).  The
    streamed words are pending until the caller's closing {!sfence}, which
    must be issued before the image is published. *)

val read : t -> int -> int
(** Cached load.  Pays (and counts) an NVRAM miss if the line was
    invalidated by a flush — a "post-flush access". *)

val write : t -> int -> int -> unit
(** Cached store; logged in checked mode.  Pays a miss on an invalidated
    line (fetch-on-write, Section 6.3). *)

val cas : t -> int -> expected:int -> desired:int -> bool
(** Atomic compare-and-swap on one word. *)

val flush : t -> int -> unit
(** Asynchronous write-back (CLWB) of the line containing the address.
    Invalidates the line.  Completion is guaranteed only by {!sfence}. *)

val sfence : t -> unit
(** Blocking store fence: drains the calling thread's outstanding flushes
    and movntis, advancing the lines' persisted watermarks.  The drain
    portion of the cost is multiplied by the number of distinct fencing
    threads on this heap when {!Latency.config.fence_contention} is set
    (Optane DIMM write-bandwidth sharing). *)

val with_batched_fences : t -> (unit -> 'a) -> 'a
(** Run [f] with the calling thread's sfences on this heap absorbed; if
    any were, a single closing sfence drains all flushes and movntis the
    batch accumulated.  Fence-cost amortization for batched operations:
    durability is promised at batch granularity — a crash inside the scope
    may drop any subset of the batch's undrained persists, each dropped
    operation counting as pending under durable linearizability.  Nested
    scopes are absorbed into the outermost one. *)

(** {1 Pipelined fences}

    A combiner persisting successive batches can overlap each batch's
    fence drain with collecting the next batch: [sfence_split] performs
    every logical effect of {!sfence} — the Fence is recorded in the
    current span, the contention factor bumped, the modeled nanoseconds
    accrued, and (checked mode) the persisted watermarks advanced — but
    returns the wall-clock drain as a ticket instead of busy-waiting.
    Durability must not be acknowledged to anyone before {!drain_join}
    returns. *)

type drain
(** An in-flight fence drain (wall-clock only; all logical effects of
    the fence are already applied). *)

val no_drain : drain
(** The already-complete drain; joining it is free. *)

val drain_deadline : drain -> float
(** The wall-clock instant at which the drain completes (0. for
    {!no_drain}): the op→durable timestamp the durability-lag bench
    reads without joining. *)

val sfence_split : t -> drain
(** {!sfence} with the busy-wait deferred into the returned ticket.
    Inside a {!with_batched_fences} scope it is absorbed like any other
    fence and returns {!no_drain}. *)

val drain_join : t -> drain -> unit
(** Wait out the remainder of a split fence's drain: a busy-wait under
    spin profiles, a wall-clock sleep under {!Latency.drain_wall}
    profiles (the drain is the device's work, so the core is yielded).
    No-op for {!no_drain} and under cost-free latency profiles. *)

val with_batched_fences_split : t -> (unit -> 'a) -> 'a * drain
(** {!with_batched_fences} whose single closing fence is issued with
    {!sfence_split}: the scope's result is paired with the drain ticket.
    If [f] raises, the closing fence degrades to the blocking {!sfence}
    before the exception propagates. *)

val fences_absorbed : t -> bool
(** Whether the calling thread is inside a {!with_batched_fences} scope
    on this heap, so that a fence it issues now is absorbed: the covered
    flushes persist only when the scope closes.  A caller that publishes
    "this line is persisted" to other threads must not rely on such a
    fence: the buffered journal's appends and syncs refuse to run
    here. *)

val reset_fence_contention : t -> unit
(** Forget which threads have fenced on this heap (the write-bandwidth
    sharing factor of {!Latency.config.fence_contention}).  Call between
    a single-threaded setup phase and a measured multi-threaded phase so
    the setup thread does not inflate the factor. *)

val movnti : t -> int -> int -> unit
(** Non-temporal store: writes directly to memory bypassing the cache (no
    fetch, no miss penalty); completed by the next {!sfence}. *)

val persist_line : t -> int -> unit
(** [flush] followed by [sfence]. *)

val clear_pending : t -> unit
(** Drop all threads' outstanding flushes/movntis and abandon their open
    span frames (crash support: in-flight operations never report). *)

val set_step_hook : t -> (unit -> unit) option -> unit
(** Install a hook invoked at the entry of every memory primitive (read,
    write, cas, flush, sfence, movnti).  The interleaving explorer uses it
    as a fiber yield point; [None] (the default) costs one branch. *)

val alloc_touch : t -> int -> unit
(** Allocator hand-out of a (possibly previously flushed) line: revalidates
    it as an ordinary cold fetch — charged, but not counted as a post-flush
    access, since it is a capacity miss rather than an access to recently
    flushed content (paper, footnote 1). *)

val region_of : t -> int -> Region.t
(** Region containing an address. @raise Invalid_argument on bad address. *)

val peek : t -> int -> int
(** Read a word without touching cache state or statistics (tests). *)

val line_invalid : t -> int -> bool
(** Whether the line containing the address is currently invalidated. *)

val line_persisted_version : t -> int -> int * int
(** [(persisted, version)] of the containing line (checked mode). *)
