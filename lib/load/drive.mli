(** The one broker driver: the domain lifecycle {!Sharded} (closed
    loop), {!Gen} (open loop) and {!Storm} (crash cycles) share — thread
    ids, the GC rule, the spawn / warm / reset / start rendezvous, one
    consumer drain loop, join — and the one delivery verifier they all
    run.  A configuration supplies its producer body, warm body, reset,
    dequeue and outputs. *)

val prepare : producers:int -> consumers:int -> unit
(** Call before building (or reusing) the service for a window: one
    [Gc.compact], then {!Nvm.Tid} reset and pinned — producers
    [0..P-1], consumers [P..P+C-1], the calling domain [P+C].
    @raise Invalid_argument on a negative count or more than
    {!Nvm.Tid.max_threads} ids. *)

val minor_heap_words : ops:int -> int
(** The minor heap, in words, every worker domain sets for itself: big
    enough that [ops] operations need no minor collection, each one a
    stop-the-world rendezvous across all domains. *)

type outcome = {
  t0 : float;  (** wall time the start gate opened *)
  t_done : float;  (** wall time the last producer body returned *)
  consumed : (int * float) list array;
      (** per consumer: (value, dequeue wall time), in dequeue order *)
}

val window :
  producers:int ->
  consumers:int ->
  ops:int ->
  ?warm:(int -> unit) ->
  ?reset:(unit -> unit) ->
  ?dequeue:(int -> unit -> int option) ->
  (int -> t0:float -> unit) ->
  outcome
(** One window after {!prepare} with the same counts.  Producer [w] runs
    [warm w], waits at the start gate, then runs the body with the gate
    time.  [reset] runs on the calling domain once every warm body has
    returned and every consumer is live.  Consumer [k] drains with
    [dequeue k] (default: always empty) from spawn on, napping 0.2 ms on
    [None], and stops at the first [None] obtained after every producer
    body returned.  Each worker sizes its minor heap for [ops]; the GC's
    [space_overhead] is raised for the window only.
    @raise the first exception a worker or [reset] raised, once every
    domain is joined: waiting producers skip their bodies and consumers
    stop, so nothing spins. *)

val verify :
  Broker.Service.t ->
  enqueued:int list list ->
  consumed:int list list ->
  (unit, string) result
(** {!Spec.Durable_check.check} with the service's contents as
    [remaining], then every survivor's placement on its stream's shard.
    [enqueued] holds the acknowledged values in any grouping, [consumed]
    one list per consumer in dequeue order; values carry their stream as
    the producer. *)
