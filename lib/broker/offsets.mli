(** Consumer-group commit offsets and the producer dedup index, per
    shard.  The commit offsets live in one durable hash map ({!Dset})
    per shard, on the shard's own heap, so the broker's
    single-power-failure crash model covers queue and offsets together.
    The dedup index is volatile, and recovery derives it ({!recover}).

    Commit entries ((group, producer) -> highest delivered sequence)
    back {!Service.dequeue_committed}; the index (producer -> highest
    accepted sequence) backs {!Service.enqueue_once}.  Sequence numbers
    start at 1; 0 means "nothing yet".  Producer ids must fit 26 bits,
    group ids 24. *)

type t

val default_map : string
(** "LinkFreeMap" — immediate durable removes are irrelevant here (the
    offset maps only ever put), and its lookups stay bounded. *)

val create : heaps:Nvm.Heap.t array -> unit -> t
(** One span-instrumented {!default_map} per heap, and an empty index
    per heap. *)

val map_name : t -> string

val last_published : t -> shard:int -> producer:int -> int
(** The producer's highest accepted sequence on [shard]: an O(1) read
    of the volatile index, touching no heap. *)

val raise_published : t -> shard:int -> producer:int -> seq:int -> unit
(** Raise the producer's index entry to [seq] (no-op when it is
    already at or above).  Volatile: writes nothing to the heap. *)

val committed : t -> shard:int -> group:int -> producer:int -> int

val commit : t -> shard:int -> group:int -> producer:int -> seq:int -> unit
(** Durable when the call returns. *)

val recover : t -> shard:int -> int list -> unit
(** [recover t ~shard items], after a crash, with [items] the shard's
    recovered queue contents (both tiers, {!Shard.recover}) in the
    {!Spec.Durable_check} encoding: rebuild the shard's map, then its
    index, each producer's entry the highest of the sequences [items]
    holds and every group's durable commit offset for that producer.
    Runs after the shard's queue recovery, on the same domain.  The
    index rebuild only reads the map: no put and no fence. *)
