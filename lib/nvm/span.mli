(** Op-scoped persist spans: the instrumentation spine of the stack.

    {!Stats} keeps per-thread aggregate counters; they can only check the
    paper's claims as *averages*.  The paper's headline bounds are
    per-operation worst cases (exactly one SFENCE per operation for the
    four new queues, zero accesses to flushed content for the Opt
    variants), so this module scopes the accounting to operations: a
    {e span} is a labeled counter frame opened and closed around one
    logical operation on the calling thread.  Every {!Heap} primitive
    records through {!record}, which feeds the thread's total counters
    (the same {!Stats.t} existing call sites read) and the per-thread
    logical clock; closing a span yields the exact counter delta that
    single operation accrued.

    Closed spans are aggregated per label (count, sum, and {e maximum}
    per-span values — the worst case a census reports next to the
    average), optionally retained in a bounded per-thread ring buffer for
    trace export (JSONL or Chrome trace-event format), and optionally
    passed to a sink callback (the traced run of [bench/e2e], which
    stamps each closed span with its wall-clock close time).

    Nesting: spans nest per thread.  A span opened with [~exclude:true]
    (setup work such as {!Heap.alloc_region}'s designated-area persist)
    reports its own delta but is subtracted from every enclosing span, so
    steady-state op spans are not charged for allocator growth that
    merely happened to run inside them.

    Thread safety: stacks, clocks, aggregates and rings are per-thread
    ({!Tid}) and touched only by their owner; [aggregates], [trace] and
    the export functions merge across threads and must be called at
    quiescence, like {!Stats.snapshot}.  The sink may be invoked
    concurrently from every closing thread and must synchronise
    internally. *)

type kind =
  | Read
  | Write
  | Cas
  | Flush
  | Fence
  | Movnti
  | Post_flush_read
  | Post_flush_write

type closed = {
  label : string;
  tid : int;
  seq : int;  (** per-thread close order *)
  t0 : int;  (** thread-local instruction-clock tick at open *)
  t1 : int;  (** tick at close *)
  delta : Stats.counters;  (** exactly what this span accrued *)
  excluded : bool;  (** opened with [~exclude:true] *)
  instant : bool;  (** a point event recorded with {!event}, not a span *)
}

type agg = {
  agg_label : string;
  mutable count : int;
  sum : Stats.counters;
  mutable max_flushes : int;  (** worst single span *)
  mutable max_fences : int;
  mutable max_movntis : int;
  mutable max_post_flush : int;
}

type t

val create : unit -> t

val stats : t -> Stats.t
(** The per-thread total counters the spans feed — what
    {!Heap.stats} returns, so all pre-span call sites keep working. *)

val record : ?n:int -> t -> kind -> unit
(** Count [n] (default 1) events of [kind] for the calling thread and
    advance its instruction clock.  Called by every {!Heap} primitive. *)

val record_at : ?n:int -> t -> tid:int -> kind -> unit
(** {!record} for a caller that already holds its thread id (the heap
    primitives resolve {!Tid.get} once per primitive, not once per
    counter). *)

val charge_ns : t -> int -> unit
(** Accrue modeled nanoseconds for the calling thread (no clock tick). *)

val charge_ns_at : t -> tid:int -> int -> unit
(** {!charge_ns} with the caller's already-resolved thread id. *)

val open_span : ?exclude:bool -> t -> string -> unit
(** Push a labeled frame on the calling thread's span stack.
    [~exclude:true] marks setup work whose delta enclosing spans must not
    be charged for. *)

val close_span : t -> closed
(** Pop the innermost frame: computes its delta, aggregates it under its
    label, appends it to the trace ring (when tracing), and hands it to
    the sink.  @raise Invalid_argument when no span is open. *)

val with_span : ?exclude:bool -> t -> string -> (unit -> 'a) -> 'a
(** [open_span]; run; [close_span] (also on exception). *)

val with_span1 : ?exclude:bool -> t -> string -> ('a -> 'b) -> 'a -> 'b
(** [with_span] over a one-argument call, passed unapplied: instrumenting
    wrappers use this so each operation does not allocate a closure
    capturing the argument. *)

val event : t -> string -> unit
(** Record a labeled point event at the calling thread's current clock
    tick: sync boundaries, group commits and drain tickets use this so
    the trace timeline shows where persistence was promised relative to
    the op spans.  Instants are retained in the trace ring and passed to
    the sink (with [instant = true] and a zero delta) but never enter the
    per-label aggregates; when neither a ring nor a sink is live, the
    call is one branch. *)

val persist_point : t -> int
(** Advance the global persist-point clock by one tick and return the
    new stamp.  The heap ticks this on every fence it issues: the stamp
    is the timestamp at which the fence's covered effects are guaranteed
    durable, correlating op histories ([Spec.History] inv/res/persist
    triples) with the fences that covered them. *)

val persist_now : t -> int
(** Current persist-point clock (0 before any fence). *)

val depth : t -> int
(** Open spans of the calling thread. *)

val abandon : t -> unit
(** Drop every thread's open frames without closing them (crash support:
    operations in flight at a crash never report).  Totals, aggregates
    and rings are untouched. *)

val set_sink : t -> (closed -> unit) option -> unit
(** Install the single close callback (e.g. a per-op trace recorder). *)

val set_tracing : t -> capacity:int -> unit
(** Retain up to [capacity] closed spans per thread in a ring buffer
    ([0] disables, the default).  Resets previously traced spans. *)

val aggregates : t -> agg list
(** Per-label aggregation merged over all threads, sorted by label. *)

val find_aggregate : t -> string -> agg option

val merge_aggregates : agg list -> agg list
(** Combine entries sharing a label (e.g. the same label across several
    heaps' span trackers): counts and sums add, maxima take the max. *)

val reset_closed : t -> unit
(** Forget closed-span state: aggregates and trace rings.  Open frames,
    clocks and the totals ({!stats}) are untouched — call between a
    warm-up phase and a measured phase. *)

val trace : t -> closed list
(** Retained spans of all threads, ordered by (tid, seq). *)

val export_jsonl : t -> out_channel -> int
(** Write the trace one JSON object per line; returns the span count. *)

val export_chrome : t -> out_channel -> int
(** Write the trace as a Chrome trace-event JSON array (load in
    [chrome://tracing] / Perfetto; [ts] is the per-thread logical
    instruction clock, not wall time); returns the span count. *)
