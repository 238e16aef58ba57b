(** Client-side resilience: bounded retries with jittered exponential
    backoff over the broker's transient verdicts ([Retry], [Busy],
    [Unavailable]; optionally [Overflow] when consumers are known to be
    draining).  Jitter draws from a caller-supplied rng, so seeded runs
    stay deterministic. *)

type policy = {
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  multiplier : float;
  jitter : float;  (** fraction of each delay randomized, 0..1 *)
  deadline_s : float option;
      (** wall-clock budget across all attempts of one call *)
}

val default : policy
(** 8 attempts, 0.5 ms doubling to a 50 ms cap, 50% jitter, no
    deadline.  Jitter applies from the first retry on, and when
    [deadline_s] is set it caps the sleeps themselves — a backoff never
    overshoots the wall-clock budget. *)

type 'e error =
  | Exhausted of { attempts : int; elapsed_s : float; last : 'e }
  | Deadline_exceeded of { attempts : int; elapsed_s : float; last : 'e }
  | Fatal of 'e
      (** the operation reported a non-transient failure; no retry *)

val error_name : _ error -> string

val with_backoff :
  rng:Random.State.t ->
  ?policy:policy ->
  ?on_retry:(attempt:int -> 'e -> unit) ->
  (attempt:int -> ('a, [ `Transient of 'e | `Fatal of 'e ]) result) ->
  ('a, 'e error) result
(** Run [op ~attempt] (1-based) until it succeeds, reports [`Fatal], or
    a bound trips.  [on_retry] fires before each backoff sleep. *)

(** {1 Broker adapters}

    Transient failures carry the verdict name.  [retry_overflow]
    (default false) treats [Overflow] as transient too — correct only
    when consumers are draining concurrently. *)

val enqueue :
  rng:Random.State.t ->
  ?policy:policy ->
  ?on_retry:(attempt:int -> string -> unit) ->
  ?retry_overflow:bool ->
  Broker.Service.t ->
  stream:int ->
  int ->
  (unit, string error) result

val enqueue_batch :
  rng:Random.State.t ->
  ?policy:policy ->
  ?on_retry:(attempt:int -> string -> unit) ->
  ?retry_overflow:bool ->
  Broker.Service.t ->
  stream:int ->
  int list ->
  int * (unit, string error) result
(** Returns (items accepted, outcome).  On a partial acceptance only
    the unaccepted remainder is re-batched: stream order is preserved
    and nothing is enqueued twice. *)

(** {1 Admission adapters}

    Over an {!Broker.Admission} front: sheds ([Quota_exceeded],
    [Overloaded], [Deadline_exceeded]) are {e non-retryable by
    default} — they are the overload path telling the client to go
    away, and retrying them in a loop is the stampede the admission
    layer exists to prevent.  [retry_shed] (default false) opts in for
    callers who know quotas refill and watermarks drain between
    attempts (the storm's producers). *)

val admission_enqueue :
  rng:Random.State.t ->
  ?policy:policy ->
  ?on_retry:(attempt:int -> string -> unit) ->
  ?retry_shed:bool ->
  ?retry_overflow:bool ->
  Broker.Admission.t ->
  tenant:int ->
  stream:int ->
  ?arrival:float ->
  int ->
  (unit, string error) result

val admission_enqueue_batch :
  rng:Random.State.t ->
  ?policy:policy ->
  ?on_retry:(attempt:int -> string -> unit) ->
  ?retry_shed:bool ->
  ?retry_overflow:bool ->
  Broker.Admission.t ->
  tenant:int ->
  stream:int ->
  ?arrival:float ->
  int list ->
  int * (unit, string error) result
(** Returns (items admitted, outcome); quota prefixes and service-side
    partial acceptance re-batch only the remainder. *)

val dequeue_any :
  rng:Random.State.t ->
  ?policy:policy ->
  ?on_retry:(attempt:int -> string -> unit) ->
  Broker.Service.t ->
  (int option, string error) result
(** [Ok None] when every serving shard is empty (not retried —
    emptiness is a valid answer). *)
