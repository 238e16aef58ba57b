(** Bounded-depth backpressure: a volatile, advisory per-shard depth
    gauge, re-seated from recovered queue lengths after a crash. *)

type verdict =
  | Accepted  (** the operation went through *)
  | Retry
      (** transient: the broker is mid-recovery; retry after a short
          wait *)
  | Overflow
      (** the shard is at its depth bound; consume or shed load before
          retrying *)
  | Unavailable
      (** the stream's shard is quarantined: drilled until the drill is
          lifted ({!Service.clear_quarantine}), or its recovery failed
          and it serves again once a recovery passes *)

val verdict_name : verdict -> string

type t

val create : bound:int -> t
(** @raise Invalid_argument when [bound < 1]. *)

val bound : t -> int
val depth : t -> int

val try_acquire : t -> int -> int
(** Acquire room for up to [n] items; returns the granted count
    (0 at the bound). *)

val release : t -> int -> unit
(** Return room for [n] items (dequeues, or failed enqueue rollback). *)

val reset : t -> depth:int -> unit
(** Re-seat the gauge ({!Shard.recover}). *)
