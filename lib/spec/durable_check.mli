(** Scalable soundness checks for large concurrent and crash-spanning
    runs, where exact linearizability checking is intractable.

    Values encode (producer id, sequence number); the checks are
    necessary conditions of durable linearizability for a FIFO queue with
    unique items: conservation, no duplication, per-producer FIFO order,
    and the prefix-of-dequeues property after recovery (Observation 2). *)

val encode : producer:int -> seq:int -> int
val producer_of : int -> int
val seq_of : int -> int

type thread_log = {
  enqueued : int list;  (** in enqueue order *)
  dequeued : int list;  (** in dequeue order *)
}

val check_unique : string -> int list -> (unit, string) result
val check_producer_order : string -> int list -> (unit, string) result

val check :
  ?pending:int list -> ?remaining:int list -> thread_log array ->
  (unit, string) result
(** Full-run check.  [pending] lists values whose enqueues a crash may
    have dropped; with [remaining] (a post-run queue snapshot), every
    completed enqueue must be accounted for exactly once — dequeued or
    remaining, never both — no remaining value may be one that was never
    enqueued, and per producer every dequeued value must precede every
    remaining one. *)

val check_recovered_suffix :
  enqueued_per_producer:(int, int list) Hashtbl.t ->
  recovered:int list ->
  pending:int list ->
  (unit, string) result
(** After a crash: each producer's surviving values must form a suffix of
    its completed enqueues (FIFO prefix of dequeues). *)
