(** Durable consumer-group offsets and producer dedup state: one
    durable hash map ({!Dset}) per shard, on the shard's own heap, so
    the broker's single-power-failure crash model covers queue and
    offsets together.

    Dedup entries (producer -> highest accepted sequence) back
    {!Service.enqueue_once}; commit entries ((group, producer) ->
    highest delivered sequence) back {!Service.dequeue_committed}.
    Sequence numbers start at 1; 0 means "nothing yet".  Producer ids
    must fit 26 bits, group ids 24. *)

type t

val default_map : string
(** "LinkFreeMap" — immediate durable removes are irrelevant here (the
    offset maps only ever put), and its lookups stay bounded. *)

val create : heaps:Nvm.Heap.t array -> unit -> t
(** One span-instrumented {!default_map} per heap. *)

val map_name : t -> string

val last_published : t -> shard:int -> producer:int -> int

val record_published : t -> shard:int -> producer:int -> seq:int -> unit
(** Raise the producer's dedup record, written behind: the put's one
    fence is issued before the call returns, and the record is durable
    one device drain later, which the call does not wait for.  A crash
    inside that drain loses only the record, which the exactly-once
    protocol tolerates ({!Service.enqueue_once}).  Runs in an excluded
    {!Dset.Instrumented.put_behind_label} span, charged to no enclosing
    operation. *)

val committed : t -> shard:int -> group:int -> producer:int -> int

val commit : t -> shard:int -> group:int -> producer:int -> seq:int -> unit
(** Durable when the call returns. *)

val recover : t -> shard:int -> unit
(** Rebuild shard [shard]'s map after a crash (run after the shard's
    queue recovery, on the same domain). *)

val reconcile : t -> shard:int -> int list -> unit
(** [reconcile t ~shard items], after {!recover}, with [items] the
    shard's recovered queue contents in the {!Spec.Durable_check}
    encoding: raise each producer's dedup record to the highest
    sequence [items] holds, so a retry of a surviving item reads
    [Duplicate].  At most one put per producer, all under one batched
    fence; none when no record is raised. *)
