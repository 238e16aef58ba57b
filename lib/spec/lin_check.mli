(** Exact linearizability checker for queue histories (Wing-Gong style
    DFS with memoisation).

    Pending operations (no response — i.e. interrupted by a crash) may
    linearize after their invocation or be dropped, which is exactly the
    latitude durable linearizability grants; so checking a crash-spanning
    history reduces to checking its crash-free projection.  Memo keys
    pack the linearized-set bitmask with {!Seq_queue.hash}, which is what
    affords {!max_ops} = 32.  Exponential in the worst case — intended
    for the small histories tests generate. *)

val max_ops : int
(** Upper bound on history size accepted (32). *)

val check : History.op list -> bool
(** Whether the history is linearizable w.r.t. the FIFO queue spec
    (persist stamps are ignored: this is the strict check).
    @raise Invalid_argument beyond {!max_ops} operations. *)

val check_crash_cut : History.op list -> recovered:int list -> bool
(** Buffered durable linearizability across a crash: whether some
    linearization of a kept subset of the pre-crash history [ops]
    respects real time, contains every persist-stamped operation
    (everything a group commit covered survives, completed or pending),
    and leaves the sequential queue exactly in the post-recovery state
    [recovered].  Un-stamped operations may vanish, but only as a
    suffix — a dropped completed operation never precedes a kept one —
    so the surviving state is a linearizable prefix and the unsynced
    tail vanishes as a unit.
    @raise Invalid_argument beyond {!max_ops} operations. *)

val views :
  init:'s -> apply:('s -> 'op -> 's) -> ?pending:'op -> ('op * bool) list ->
  's list
(** The crash view rule (CrashableMap.dfy's: a crash exposes some view
    between the last durable point and the latest).  [ops] are the
    applied operations in order, each flagged durable or not; the
    result is every state from the one after the last durable operation
    (or [init], when none is durable) up to the latest, plus the
    [pending] operation's effect on the latest. *)

val check_report : History.op list -> (unit, string) result
(** Like {!check}, rendering the history on failure. *)

val check_crash_cut_report :
  History.op list -> recovered:int list -> (unit, string) result
(** Like {!check_crash_cut}, rendering the history on failure. *)
