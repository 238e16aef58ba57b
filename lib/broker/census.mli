(** Broker-level aggregation of per-shard persist spans ({!Nvm.Span}),
    keeping the paper's per-queue invariants auditable end-to-end: ≤ 1
    blocking fence per operation (and, batched, ≤ 1 per batch per
    shard), zero accesses to flushed content over the Opt queues. *)

(** {1 Span census}

    The shard instances are span-instrumented, so the same invariants
    are available in per-operation worst-case form: one violating
    operation fails {!strict_audit} even in a sea of compliant ones, and
    setup persists (queue construction, designated-area growth) are
    attributed to their own spans instead of polluting the steady-state
    rows — a compliant run reports exactly 1.0000 fences/op. *)

type per_op = {
  ops : int;  (** enqueue + dequeue spans observed *)
  batches : int;  (** batch spans (batched paths only) *)
  op_fences : float;  (** averages over op spans *)
  op_flushes : float;
  op_movntis : float;
  op_post_flush : float;
  max_op_fences : int;  (** worst single operation *)
  max_op_flushes : int;
  max_op_movntis : int;
  max_op_post_flush : int;
  max_batch_fences : int;  (** worst single batch: bound 1 *)
  op_fences_total : int;  (** exact steady-state sums *)
  batch_fences_total : int;
  op_post_flush_total : int;
  setup_fences : int;  (** fences attributed to [setup:*] spans *)
}

val span_aggregates : Service.t -> Nvm.Span.agg list
(** Per-label span aggregation merged over every shard heap.  Quiescent
    use only. *)

val per_op_of_aggregates : Nvm.Span.agg list -> per_op

val span_census : Service.t -> per_op

val strict_audit : Service.t -> (unit, string) result
(** {!Spec.Fence_audit.check_aggregates} over {!span_aggregates} for
    this service's algorithm and, when attached, its offset map: every
    op span within the paper's per-op bound, every batch span owning at
    most one fence, every checkpoint flip one fence and no flush. *)

val pp_per_op : Format.formatter -> per_op -> unit
(** One line; fences/op is end to end — op and batch span fences over
    [ops] — so a batched run reads [1 / batch]. *)

(** {1 Durability census}

    The buffered tier's view: how far persistence lags execution on each
    shard, and how the lag is paid down (watermark commits vs explicit
    syncs). *)

type durability_row = {
  d_shard : int;
  d_lag : int;  (** operations executed but not covered by a commit *)
  d_appended : int;  (** buffered enqueues ever journaled *)
  d_floor : int;  (** enqueues covered by the last issued commit *)
  d_commits : int;  (** group commits issued (watermark + sync) *)
  d_syncs : int;  (** explicit sync calls *)
}

val durability : Service.t -> durability_row list
(** One row per shard; empty without the buffered tier. *)

type journal = {
  j_commits : int;  (** group-commit ("sync") spans *)
  j_fences : int;  (** fences owned by commits and write-behinds *)
  j_flushes : int;  (** flushes owned by commits and write-behinds *)
}

val journal_persists : Service.t -> journal
(** The buffered tier's journal persists over all shard heaps: its group
    commits and the write-behinds that persist each journal line as it
    fills ({!Dq.Instrumented.write_behind_label}). *)

val pp_durability : Format.formatter -> Service.t -> unit
(** Per-shard lag rows, then the journal's fences and flushes per
    buffered op. *)

(** {1 Occupancy census}

    The compaction view: how much of each shard's DIMM is live vs
    reclaimed by checkpoint retirement.  Under a running checkpoint
    scheduler the live-region count plateaus; without one it grows
    linearly with churn — the difference is what bounds recovery
    time. *)

type occupancy_row = {
  o_shard : int;
  o_live_regions : int;
  o_allocated_regions : int;  (** cumulative, including recycled ids *)
  o_retired_regions : int;
  o_live_words : int;
  o_reclaimed_words : int;
}

val occupancy : Service.t -> occupancy_row list
(** One row per shard. *)

val pp_occupancy : Format.formatter -> Service.t -> unit

(** {1 Admission census}

    The overload view, when an {!Admission} layer fronts the service:
    what each tenant offered, what was admitted (and at what level),
    and how the rest was turned away — in the same table family as
    fences/op and occupancy, so overload state is auditable next to the
    persist invariants. *)

val admission : Admission.t -> Admission.row list
(** One row per tenant ({!Admission.rows}, re-exported here so census
    consumers need only this module). *)

val pp_admission : Format.formatter -> Admission.t -> unit
