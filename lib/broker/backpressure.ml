(* Bounded-depth backpressure.

   Each shard carries a depth gauge: an approximate count of items
   resident in its queue.  {!Shard} is its only user: enqueues acquire
   room before touching the queue; dequeues release it after removing
   an item.  The gauge is volatile and advisory — it bounds memory
   growth and surfaces overload to callers, it is not part of the
   durability story (after a crash the shard re-seats it from the
   recovered queue lengths).

   Callers see the verdict:

   - [Accepted]: the operation went through.
   - [Overflow]: the shard is at its depth bound; the caller must shed
     load or consume before retrying (durable condition: retrying without
     a dequeue cannot succeed).
   - [Retry]: the broker is transiently unable to serve (mid-recovery);
     retrying after a short wait is expected to succeed.
   - [Unavailable]: the stream's shard is quarantined (its recovery
     failed, or an operator drill).  Distinct from [Retry]: the wait is
     open-ended — a drill lasts until it is lifted, a failed recovery
     until a recovery passes ({!Service.record_recovery}). *)

type verdict = Accepted | Retry | Overflow | Unavailable

let verdict_name = function
  | Accepted -> "accepted"
  | Retry -> "retry"
  | Overflow -> "overflow"
  | Unavailable -> "unavailable"

type t = { bound : int; depth : int Atomic.t }

let create ~bound =
  if bound < 1 then invalid_arg "Backpressure.create: bound must be positive";
  { bound; depth = Atomic.make 0 }

let bound t = t.bound
let depth t = Atomic.get t.depth

(* Acquire room for up to [n] items; returns how many were granted
   (0 when the gauge is at the bound). *)
let rec try_acquire t n =
  let cur = Atomic.get t.depth in
  let granted = min n (t.bound - cur) in
  if granted <= 0 then 0
  else if Atomic.compare_and_set t.depth cur (cur + granted) then granted
  else try_acquire t n

let release t n =
  if n > 0 then ignore (Atomic.fetch_and_add t.depth (-n))

(* Post-recovery re-seat from the recovered queue length. *)
let reset t ~depth:d = Atomic.set t.depth (max 0 d)
