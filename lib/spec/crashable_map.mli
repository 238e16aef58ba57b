(** CrashableMap: crash-consistency spec for the durable keyed-store
    tier (lib/dset), after verified-betrfs' CrashableMap.dfy.

    The dfy spec models an ephemeral view (what operations act on), a
    persistent view (what a crash falls back to) and [sync] (which
    collapses the two): a crash exposes some view between the last
    durable point and the latest ({!Lin_check.views}).  This checker
    applies that rule per key, to a register model — the per-key
    relaxation its authors anticipate: puts are durable on return for
    both variants, removes only for the link-free map (SOFT removes are
    lazy until [sync]), and [sync] makes every key's latest operation
    durable.  An operation pending at the crash may additionally have
    taken effect.  Under [All_flushed] with nothing pending, recovery
    must equal the ephemeral view exactly. *)

type op = Put of int * int  (** key, value *) | Remove of int | Sync

val pp_op : op -> string
val pp_script : op list -> string

val check_recovered :
  lazy_remove:bool ->
  applied:op list ->
  ?pending:op ->
  recovered:(int * int) list ->
  unit ->
  (unit, string) result
(** Check one post-crash state: [applied] are the operations completed
    before the crash in order, [pending] the operation in flight (if
    any), [recovered] the map contents after recovery. *)

val run_to_crash :
  Dq.Registry.map_entry ->
  script:op list ->
  crash_after:int ->
  ?step:int ->
  policy:Nvm.Crash.policy ->
  seed:int ->
  unit ->
  (unit, string) result
(** Execute [script]'s first [crash_after] operations on a fresh
    instance, crash under [policy] (mid-operation after [step] heap
    primitives of the next op, when given, through {!Explore.run}),
    recover, check.  Also verifies the recovered map accepts new
    operations. *)

val default_policies : Nvm.Crash.policy list
(** [All_flushed; Only_persisted; Torn_prefix]. *)

val exhaustive :
  ?policies:Nvm.Crash.policy list ->
  Dq.Registry.map_entry ->
  script:op list ->
  seed:int ->
  (unit, string) result
(** Crash at every operation boundary of [script] under every policy. *)

val campaign :
  ?policies:Nvm.Crash.policy list ->
  Dq.Registry.map_entry ->
  rounds:int ->
  (unit, string) result
(** Randomized campaign: random scripts and crash points, two rounds in
    three cut mid-operation.  Errors carry the script, crash point,
    policy and seed for replay. *)
