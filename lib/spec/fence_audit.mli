(** Per-span persist-bound audit: one bounds table, checked against a
    run's span aggregates.

    The paper's headline claims are worst-case bounds per operation, not
    averages: each of UnlinkedQ, LinkedQ, OptUnlinkedQ, OptLinkedQ and
    ONLL-Q issues at most one SFENCE per enqueue/dequeue, and the Opt
    variants never touch flushed content.  The keyed-store tier makes
    the same kind of claim per map operation, and the checkpoint's epoch
    flip publishes with one movnti and one fence.  {!bound} holds every
    such bound; {!check_aggregates} checks the worst-case columns of a
    finished run's {!Nvm.Span} aggregation against it, so one violating
    span fails the audit even if the average is perfect.

    Batch semantics: under {!Nvm.Heap.with_batched_fences} the per-op
    spans inside a ["batch"] (or ["combine"]) span observe zero fences
    and the batch span owns exactly one closing fence.  Labels without
    a row — ["recover"], ["setup:*"], ["sync"], ["write-behind"] — are
    exempt. *)

type bound = {
  max_fences : int;
  max_flushes : int option;  (** [None] = unbounded *)
  max_post_flush : int option;  (** [None] = unbounded *)
}

val bound : name:string -> label:string -> bound option
(** The bound on every span labelled [label] in a run of the queue or
    map [name] (a combining front-end's suffixed name reads its base
    queue's rows).  The table:
    - queue [enq]/[deq] spans of the five bounded queues: one fence, and
      zero post-flush accesses for the Opt pair;
    - their [batch]/[combine] spans: one fence;
    - LinkFreeMap [ins]/[del]/[get] and SOFTMap [ins]: one fence;
      SOFTMap [del]/[get]: no fence and no flush;
    - [ckpt:flip] under any name: one fence, no flush.

    [None] for everything else — the compared prior work and ablation
    variants are deliberately unbounded: the audit proves our claims,
    not theirs. *)

val audited : string -> bool
(** Whether [name] bounds some operation label (queue or map). *)

val check_aggregates : name:string -> Nvm.Span.agg list -> (unit, string) result
(** Check every aggregated label's worst span against {!bound}; the
    error lists each violation. *)
