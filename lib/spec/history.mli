(** Concurrent-history recording (the terminology of Section 3.2).

    Operations are invocation/response pairs timestamped by a global
    logical clock.  An operation enters the history when it is invoked
    and gets its response when it returns, so one cut short by a crash
    stays pending — under durable linearizability it may take effect or
    vanish. *)

type kind = Enqueue of int | Dequeue of int option

type op = {
  id : int;
  tid : int;
  mutable kind : kind;  (** a dequeue's result is filled in on return *)
  inv : int;  (** invocation timestamp *)
  mutable res : int option;
      (** response timestamp; [None] = pending at a crash *)
  mutable persist : int option;
      (** persist-point stamp: the global persist clock at the group
          commit that covered this operation; [None] = not covered.
          Mutable because commits cover operations recorded earlier.
          Strict histories leave every stamp [None];
          {!Lin_check.check_crash_cut} requires stamped operations to
          survive the crash. *)
}

type t

val create : unit -> t

val record_enqueue : t -> tid:int -> int -> (unit -> unit) -> unit
(** [record_enqueue t ~tid v f] records an enqueue of [v] and runs [f];
    if [f] raises or never returns, the operation stays pending. *)

val record_dequeue : t -> tid:int -> (unit -> int option) -> int option
(** Run and record a dequeue, returning its result. *)

val ops : t -> op list
(** All recorded operations, sorted by invocation time.  Call at
    quiescence. *)

val pp_kind : Format.formatter -> kind -> unit
val pp_op : Format.formatter -> op -> unit
