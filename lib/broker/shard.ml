(* One shard: a durable queue instance on its own heap (its own simulated
   DIMM) plus the volatile service state attached to it.  The heap
   boundary is the unit of everything the broker composes: persist
   statistics, fence-drain bandwidth sharing, crash images and recovery
   all stay per-shard. *)

type acks = Acks_none | Acks_leader | Acks_all_synced

type t = {
  id : int;
  heap : Nvm.Heap.t;
  queue : Dq.Queue_intf.instance;
  gauge : Backpressure.t;
  strict_bound : int Atomic.t;
      (* upper bound on the strict tier's item count, never too low:
         raised before every strict enqueue, lowered only after the
         dequeue that removed an item has returned with its persist
         fenced.  Unlike [gauge] (both tiers), it says which tier holds
         an item. *)
  combiner : Dq.Combining_q.t option;
      (* the flat-combining enqueue front-end, when the broker was
         created with [~combining:true]; [queue] then routes enqueues
         through it (and its recover resets it) *)
  buffered : Dq.Buffered_q.t option;
      (* the buffered-durability tier ({!Dq.Buffered_q}): a second queue
         instance on the same heap behind a group-commit journal.
         Streams published at acks=none/leader land here; streams at
         acks=all-synced stay on the strict [queue].  Deliberately
         uninstrumented: its operations own no per-op fences (commits
         run under their own "sync" spans, line write-behinds under
         excluded "write-behind" spans), so folding them into the
         enq/deq aggregates would corrupt the strict per-op audit. *)
}

(* Shards are always span-instrumented: every enqueue/dequeue/recover on
   a shard runs inside a labeled span on the shard's heap, so the census
   and the strict per-op audit see exact per-operation deltas.  With
   [~combining:true] the combining front-end wraps the instrumented
   instance, so combine spans own batch fences while the op spans they
   apply observe zero. *)
let create_all ~(entry : Dq.Registry.entry) ~n ~depth_bound ~mode ~latency
    ~combining ~buffered =
  let pairs =
    Dq.Registry.shards ~mode ~latency (Dq.Registry.instrumented entry) ~n
  in
  Array.mapi
    (fun id (heap, queue) ->
      let combiner =
        if combining then Some (Dq.Combining_q.create heap queue) else None
      in
      let queue =
        match combiner with
        | Some c -> Dq.Combining_q.instance c
        | None -> queue
      in
      let buffered =
        if buffered then
          (* Instance default is fire-and-forget (acks=none); the
             acks=leader enqueue path opts into joining per call. *)
          Some
            (Dq.Buffered_q.create ~join_commits:false heap
               entry.Dq.Registry.make)
        else None
      in
      {
        id;
        heap;
        queue;
        gauge = Backpressure.create ~bound:depth_bound;
        strict_bound = Atomic.make 0;
        combiner;
        buffered;
      })
    pairs

let id t = t.id
let heap t = t.heap
let strict_bound t = Atomic.get t.strict_bound
let combining_idle t = Option.map Dq.Combining_q.idle_slots t.combiner
let buffered t = t.buffered
let depth t = Backpressure.depth t.gauge
let depth_bound t = Backpressure.bound t.gauge

let raise_bound t n = ignore (Atomic.fetch_and_add t.strict_bound n)
let lower_bound t n = ignore (Atomic.fetch_and_add t.strict_bound (-n))

(* Enqueue on the strict tier.  The bound is raised first, so a
   concurrent [dequeue] that reads it after an item is linked cannot
   skip the item.  One item keeps the plain per-op persist shape.  A
   longer list costs one fence: the combiner announces it as one
   operation and applies it under its pass's single fence (possibly
   merged with other producers' announcements); without one, the
   queue's per-op sfences are absorbed and one closing fence drains the
   batch, inside a "batch" span that owns that fence while the op spans
   inside it observe zero — the shape the per-op fence audit asserts. *)
let enqueue_strict t items =
  raise_bound t (List.length items);
  match (t.combiner, items) with
  | _, [ item ] -> t.queue.Dq.Queue_intf.enqueue item
  | Some c, items -> Dq.Combining_q.enqueue_batch c items
  | None, items ->
      Nvm.Span.with_span (Nvm.Heap.spans t.heap) Dq.Instrumented.batch_label
        (fun () ->
          Nvm.Heap.with_batched_fences t.heap (fun () ->
              List.iter t.queue.Dq.Queue_intf.enqueue items))

(* Append to the buffered tier one by one — the journal's watermark
   commit is the batch amortization, so no fence scope is needed.
   Returns the count appended; a full journal stops the list. *)
let enqueue_buffered b ~join items =
  let rec go n = function
    | [] -> n
    | v :: rest -> (
        match Dq.Buffered_q.enqueue ~join b v with
        | () -> go (n + 1) rest
        | exception Dq.Buffered_q.Journal_full -> n)
  in
  go 0 items

(* The one place a level picks a tier, and the one place room is taken
   from the gauge.  The tier is settled before any room is taken, so a
   level the shard cannot serve raises with the gauge untouched.  The
   granted prefix keeps the caller's order; what it could not place goes
   back to the gauge. *)
let enqueue t ~acks items =
  let buffered =
    match (acks, t.buffered) with
    | Acks_all_synced, _ -> None
    | (Acks_none | Acks_leader), (Some _ as b) -> b
    | (Acks_none | Acks_leader), None ->
        invalid_arg "Shard.enqueue: weak acks level without a buffered tier"
  in
  let n = List.length items in
  let granted = Backpressure.try_acquire t.gauge n in
  if granted = 0 then 0
  else begin
    let items =
      if granted = n then items else List.filteri (fun i _ -> i < granted) items
    in
    let enqueued =
      match buffered with
      | None ->
          enqueue_strict t items;
          granted
      | Some b -> enqueue_buffered b ~join:(acks = Acks_leader) items
    in
    Backpressure.release t.gauge (granted - enqueued);
    enqueued
  end

let buffered_list t =
  match t.buffered with
  | Some b -> (Dq.Buffered_q.instance b).Dq.Queue_intf.to_list ()
  | None -> []

(* Strict tier first, then the buffered tier's mirror.  A stream's items
   live in exactly one tier (its acks level picks it), so per-stream
   FIFO survives the concatenation. *)
let to_list t = t.queue.Dq.Queue_intf.to_list () @ buffered_list t

(* Probe the strict tier only while its bound is positive.  At 0 every
   dequeue that emptied the tier has returned, each having persisted a
   head index at least as large as the one this failing dequeue would
   write, and recovery takes the maximum: skipping the probe, with its
   movnti and fence, leaves the possible crash images unchanged.  The
   caller lowers the bound for a returned item once its removal is
   fenced. *)
let dequeue_strict t =
  if Atomic.get t.strict_bound > 0 then t.queue.Dq.Queue_intf.dequeue ()
  else None

let dequeue_buffered t =
  match t.buffered with Some b -> Dq.Buffered_q.dequeue b | None -> None

(* Consume the strict tier first, then the buffered tier — same order as
   [to_list], so drains and validations agree.  A strict dequeue has
   fenced its persist by the time it returns, so the bound drops at
   once. *)
let dequeue t =
  let r =
    match dequeue_strict t with
    | Some _ as r ->
        lower_bound t 1;
        r
    | None -> dequeue_buffered t
  in
  if Option.is_some r then Backpressure.release t.gauge 1;
  r

(* Both tiers' recovery procedures, single-threaded, in [to_list] order:
   the strict queue's own recovery, then the buffered tier's journal
   replay — which restores exactly the synced floor (the last issued
   commit's snapshot); the unsynced tail is gone as a unit. *)
let recover t =
  (* Until [reseat] counts the rebuilt tiers, and for good if recovery
     raises, every dequeue probes the strict tier and the gauge reads 0. *)
  Atomic.set t.strict_bound (max_int / 2);
  Backpressure.reset t.gauge ~depth:0;
  t.queue.Dq.Queue_intf.recover ();
  Option.iter Dq.Buffered_q.recover t.buffered

(* Re-seat the volatile counters from the tiers' contents: the depth
   gauge counts both tiers, the strict bound the strict tier alone.
   Returns the contents in [to_list] order. *)
let reseat t =
  let strict = t.queue.Dq.Queue_intf.to_list () in
  let contents = strict @ buffered_list t in
  Atomic.set t.strict_bound (List.length strict);
  Backpressure.reset t.gauge ~depth:(List.length contents);
  contents

let sync t = Option.iter Dq.Buffered_q.sync t.buffered

(* The strict queue's incremental-checkpoint handle, when its algorithm
   exposes one ({!Dq.Checkpoint}).  The instrumented and combining
   wrappers inherit the handle from the raw instance, so this is the
   same handle [recover] consults. *)
let checkpoint t = t.queue.Dq.Queue_intf.checkpoint

(* Heap occupancy of this shard's DIMM: regions and words live vs
   reclaimed by checkpoint compaction. *)
let occupancy t = Nvm.Heap.occupancy t.heap

let durability_lag t =
  match t.buffered with Some b -> Dq.Buffered_q.durability_lag b | None -> 0

(* Dequeue up to [max] items under one closing fence; stops early on
   empty.  Items are returned in dequeue (FIFO) order.  The strict
   dequeues' fences are absorbed, so the bound drops by the strict items
   taken only after the closing fence: until then a concurrent failing
   dequeue must still probe, and persist the head index this batch has
   not yet made durable. *)
let dequeue_batch t ~max =
  if max <= 0 then []
  else if max = 1 then match dequeue t with Some v -> [ v ] | None -> []
  else begin
    let strict = ref 0 in
    let items =
      Nvm.Span.with_span (Nvm.Heap.spans t.heap) Dq.Instrumented.batch_label
        (fun () ->
          Nvm.Heap.with_batched_fences t.heap (fun () ->
              let rec go n acc =
                if n = 0 then List.rev acc
                else
                  match dequeue_strict t with
                  | Some v ->
                      incr strict;
                      go (n - 1) (v :: acc)
                  | None -> (
                      match dequeue_buffered t with
                      | Some v -> go (n - 1) (v :: acc)
                      | None -> List.rev acc)
              in
              go max []))
    in
    lower_bound t !strict;
    Backpressure.release t.gauge (List.length items);
    items
  end
