(* Persistent flat-combining front-end for a queue's enqueue side.

   The shard sweep shows the broker's wall-clock ceiling is not fence
   cost (already amortized to one per batch) but per-operation
   coordination: every producer CASes the shared queue tail and issues
   its own persist sequence.  Flat combining (Fatourou et al.,
   "Highly-Efficient Persistent FIFO Queues") removes both at once: a
   producer that cannot get the combiner lock *announces* its operation
   in a per-thread slot and waits, while the lock holder collects all
   announced operations, applies them to the underlying queue as one
   batch, and persists the whole batch with a single flush+fence —
   {!Nvm.Heap.with_batched_fences_split}, so the combiner can already
   collect the next batch while the previous batch's fence drains (the
   pipelined half of the paper-adjacent design).

   Protocol (one combiner lock + one announce slot per thread id):

   - announce: publish the items in your slot, set it [announced];
   - election: try the combiner lock; the winner repeatedly collects
     (CAS [announced] -> [claimed]), applies, and persists; losers wait
     for their slot to turn [released], retrying the lock each time so
     a departing combiner never strands them;
   - pipeline: batch k's waiters are released only after batch k's
     fence has fully drained — but that drain is joined *after* batch
     k+1 has been applied, overlapping collection with the drain;
   - handoff: after [max_passes] batches the combiner drains, releases
     everything it claimed and unlocks, bounding how long one thread
     combines on behalf of the others.

   Durability and audit shape: a multi-operation pass runs under a
   {!Instrumented.combine_label} span owning the pass's single closing
   fence, while the per-op enq spans inside it observe zero — the same
   shape as the broker's "batch" spans, so the strict fence audit bounds
   it at <= 1 fence per pass.  A waiter is released (its enqueue
   returns, and only then may the broker acknowledge) strictly after the
   drain completes, so acknowledged operations are durable; a crash
   mid-combine loses only unacknowledged announced operations, which
   recovery treats exactly like a torn client batch.

   Per-producer FIFO is preserved because a thread has at most one
   outstanding announcement and a slot's items are applied in list
   order; a global order across producers is not promised (the broker
   never promised one).

   The underlying queue must be strictly durable: a multi-operation
   pass absorbs its fences, and the buffered journal ({!Buffered_q})
   refuses appends under absorbed fences, so the broker combines only
   its strict tier. *)

(* Announce-slot states. *)
let idle = 0
let announced = 1
let claimed = 2
let released = 3

(* One cache-line-padded announce slot (same padding idiom as the
   heap's per-thread pending/fencer slots: the state word a combiner
   CASes must not share a line with a neighbour's). *)
type slot = {
  state : int Atomic.t;
  mutable single : int;  (* the item when [n = 1]: no list allocation *)
  mutable items : int list;  (* the items when [n > 1], in stream order *)
  mutable n : int;  (* announced operation count *)
  mutable pad0 : int;
  mutable pad1 : int;
  mutable pad2 : int;
  mutable pad3 : int;
}

type t = {
  heap : Nvm.Heap.t;
  q : Queue_intf.instance;  (* the underlying (instrumented) queue *)
  lock : bool Atomic.t;  (* combiner election *)
  slots : slot array;  (* indexed by Nvm.Tid *)
  hiwater : int Atomic.t;  (* collect scans [0, hiwater): max tid+1 ever
                              announced, so uncontended instances scan
                              nothing *)
  max_passes : int;  (* bounded handoff *)
  yield : unit -> unit;  (* waiter back-off hook *)
  (* Volatile statistics (combine passes of >= 2 operations). *)
  batches : int Atomic.t;
  combined : int Atomic.t;
  max_batch : int Atomic.t;
}

let name_suffix = "+combining"

(* Brief spin, then surrender the timeslice: waiters oversubscribing a
   small host must let the combiner run, and a parked waiter costs the
   combiner nothing. *)
let default_yield () =
  for _ = 1 to 32 do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.

(* Under a [Latency.drain_wall] profile the combiner *sleeps* out device
   drains, so a busy-polling waiter would keep the core and delay the
   woken combiner by a scheduler timeslice every batch.  Park with a
   real (if tiny) sleep instead: the microseconds of extra wake latency
   are noise against drains of hundreds of microseconds, and the freed
   core is what lets drain deadlines be honoured promptly. *)
let parking_yield () = Unix.sleepf 1e-5

let default_yield_for heap =
  if (Nvm.Heap.latency heap).Nvm.Latency.drain_wall then parking_yield
  else default_yield

let create ?(max_passes = 8) ?yield heap (q : Queue_intf.instance) =
  let yield =
    match yield with Some y -> y | None -> default_yield_for heap
  in
  if max_passes < 1 then invalid_arg "Combining_q.create: max_passes < 1";
  {
    heap;
    q;
    lock = Atomic.make false;
    slots =
      Array.init Nvm.Tid.max_threads (fun _ ->
          {
            state = Atomic.make idle;
            single = 0;
            items = [];
            n = 0;
            pad0 = 0;
            pad1 = 0;
            pad2 = 0;
            pad3 = 0;
          });
    hiwater = Atomic.make 0;
    max_passes;
    yield;
    batches = Atomic.make 0;
    combined = Atomic.make 0;
    max_batch = Atomic.make 0;
  }

type stats = { s_batches : int; s_combined_ops : int; s_max_batch : int }

let stats t =
  {
    s_batches = Atomic.get t.batches;
    s_combined_ops = Atomic.get t.combined;
    s_max_batch = Atomic.get t.max_batch;
  }

(* -- Announce / collect ------------------------------------------------------ *)

let announce t ~n ~single ~items =
  let tid = Nvm.Tid.get () in
  let s = t.slots.(tid) in
  (* Raise the scan bound before publishing: a combiner pass that
     started earlier may still miss this slot, but the waiter retries
     the lock itself, so nothing is stranded. *)
  let rec bump () =
    let h = Atomic.get t.hiwater in
    if tid >= h && not (Atomic.compare_and_set t.hiwater h (tid + 1)) then
      bump ()
  in
  bump ();
  s.single <- single;
  s.items <- items;
  s.n <- n;
  Atomic.set s.state announced;
  s

(* Claim every announced slot (ascending tid order).  [claimed] keeps a
   later pass of the same combiner from re-collecting a slot it is
   still holding. *)
let collect t =
  let h = Atomic.get t.hiwater in
  let acc = ref [] in
  for i = h - 1 downto 0 do
    let s = t.slots.(i) in
    if
      Atomic.get s.state = announced
      && Atomic.compare_and_set s.state announced claimed
    then acc := s :: !acc
  done;
  !acc

(* -- Combining --------------------------------------------------------------- *)

let apply_slot t (s : slot) =
  if s.n = 1 then t.q.Queue_intf.enqueue s.single
  else List.iter t.q.Queue_intf.enqueue s.items

(* Join the previous batch's fence drain, then release its waiters:
   durability strictly before acknowledgement. *)
let finish t (slots, drain) =
  Nvm.Heap.drain_join t.heap drain;
  List.iter (fun s -> Atomic.set s.state released) slots

(* Apply one combining pass.  A single-operation pass is applied
   exactly like the per-op path (its enq span owns its one fence); a
   multi-operation pass runs under a combine span owning the batch's
   single split closing fence, whose drain ticket pipelines into the
   next pass. *)
let apply_pass t ~mine ~slots ~nops =
  if nops = 1 then begin
    (match (mine, slots) with
    | [ v ], [] -> t.q.Queue_intf.enqueue v
    | [], [ s ] -> apply_slot t s
    | _ -> assert false);
    Nvm.Heap.no_drain
  end
  else begin
    Atomic.incr t.batches;
    ignore (Atomic.fetch_and_add t.combined nops);
    let rec bump_max () =
      let m = Atomic.get t.max_batch in
      if nops > m && not (Atomic.compare_and_set t.max_batch m nops) then
        bump_max ()
    in
    bump_max ();
    let (), drain =
      Nvm.Span.with_span (Nvm.Heap.spans t.heap) Instrumented.combine_label
        (fun () ->
          Nvm.Heap.with_batched_fences_split t.heap (fun () ->
              List.iter t.q.Queue_intf.enqueue mine;
              List.iter (apply_slot t) slots))
    in
    drain
  end

(* The combiner loop; the lock is held by the caller.  [mine] is the
   lock holder's own items, applied in the first pass alongside
   whatever is announced.  Returns the *last* pass's (slots, drain),
   still unjoined: the caller unlocks first and [finish]es after, so
   the lock is never held across the final drain (a successor combiner
   can already collect and issue the next batch while it completes —
   the device queue serializes durability, not the lock).  Every
   earlier pass has been applied, drained and released on return. *)
let run_combiner t ~mine =
  let rec go prev pass mine =
    let slots = collect t in
    let nops =
      List.length mine + List.fold_left (fun a s -> a + s.n) 0 slots
    in
    if nops = 0 then prev
    else begin
      let drain = apply_pass t ~mine ~slots ~nops in
      (* Previous batch's drain overlaps this batch's collection and
         application; join it only now. *)
      finish t prev;
      if pass >= t.max_passes then (slots, drain)
      else go (slots, drain) (pass + 1) []
    end
  in
  go (([], Nvm.Heap.no_drain) : slot list * Nvm.Heap.drain) 1 mine

let try_lock t = Atomic.compare_and_set t.lock false true
let unlock t = Atomic.set t.lock false

(* Combine with the lock held, then hand the lock back before joining
   the last pass's drain. *)
let combine_unlock t ~mine =
  let tail = run_combiner t ~mine in
  unlock t;
  finish t tail

(* Wait for a released slot, retrying the combiner election each time:
   a combiner that hit its pass bound and left cannot strand a waiter,
   because the waiter then combines for itself. *)
let wait_released t (s : slot) =
  let rec wait () =
    if Atomic.get s.state <> released then begin
      (* Retry the election only while still [announced]: that is the
         stranding case (a combiner hit its pass bound and left without
         collecting us).  Once [claimed], a combiner owns our operation
         and is bound to release us — electing ourselves then would find
         nothing announced and spin the core on lock churn, which on a
         small host starves the very combiner (asleep in its drain)
         we are waiting for. *)
      if Atomic.get s.state = announced && try_lock t then
        combine_unlock t ~mine:[]
      else t.yield ();
      wait ()
    end
  in
  wait ();
  Atomic.set s.state idle

let enqueue t v =
  if try_lock t then
    if Atomic.get t.hiwater > 0 then
      (* Waiters may be announced: combine them with our own operation
         so the whole pass persists behind one pipelined fence, instead
         of applying solo first — the solo path's blocking fence would
         hold the lock through the entire drain. *)
      combine_unlock t ~mine:[ v ]
    else begin
      (* Uncontended fast path: apply directly, keeping the exact
         per-op persist shape.  Instances that never see contention
         never announce, so [hiwater] stays 0 and this branch is the
         only one ever taken. *)
      t.q.Queue_intf.enqueue v;
      if Atomic.get t.hiwater > 0 then combine_unlock t ~mine:[]
      else unlock t
    end
  else wait_released t (announce t ~n:1 ~single:v ~items:[])

let enqueue_batch t items =
  match items with
  | [] -> ()
  | [ v ] -> enqueue t v
  | items ->
      if try_lock t then combine_unlock t ~mine:items
      else
        wait_released t
          (announce t ~n:(List.length items) ~single:0 ~items)

(* Post-crash reset: pre-crash threads are gone, so the lock, the scan
   bound and every slot go back to their initial state before the
   underlying queue's recovery runs. *)
let reset t =
  Atomic.set t.lock false;
  Atomic.set t.hiwater 0;
  Array.iter
    (fun s ->
      s.single <- 0;
      s.items <- [];
      s.n <- 0;
      Atomic.set s.state idle)
    t.slots

(* Quiescent slot audit: with no producer in flight every announce slot
   must have cycled back to [idle] — a slot stuck in any other state is
   a leaked announcement (its producer would be stranded, or a later
   producer on the same tid would block forever). *)
let idle_slots t =
  Array.for_all (fun s -> Atomic.get s.state = idle) t.slots

let instance t : Queue_intf.instance =
  {
    t.q with
    Queue_intf.name = t.q.Queue_intf.name ^ name_suffix;
    enqueue = (fun v -> enqueue t v);
    recover =
      (fun () ->
        reset t;
        t.q.Queue_intf.recover ());
  }
