(* Buffered-durability tier: group-commit persistence behind an
   explicit [sync] boundary.

   The paper's queues are *strictly* durable linearizable: every
   operation's own flush+fence covers it before it returns, which under
   a device-bound profile pins throughput to one full drain per
   operation no matter how the fences are arranged — the drain cost is
   charged per flush instruction, so deferring fences without reducing
   flushes conserves exactly the same device work.  Buffered durable
   linearizability ("The Path to Durable Linearizability", D'Osualdo et
   al.) relaxes the contract: persistence may lag execution, and a crash
   may drop a suffix of the history as a unit, provided everything
   acknowledged by an explicit [sync] survives.  That relaxation is
   worth real device bandwidth only if it reduces *flush instructions
   per operation*, so the queue is a line-packed *journal*:

   - each enqueue appends its value as one word of a persistent ring
     (eight entries per cache line), so a group of [watermark] enqueues
     dirties [watermark/8] lines instead of [watermark].  The live items
     are the entries [consumed, appended);
   - a dequeue claims the entry at [consumed] with one CAS and takes its
     value from a volatile copy of the ring ([slots], same index).  It
     touches no NVM word: reading the journal back would be an access to
     flushed content (every full line is written behind, below), the
     cost the paper's second amendment removes;
   - *write-behind*: the append that fills a journal line flushes that
     line and issues a split fence at once, while the device is
     otherwise idle.  The appender does not wait for the drain;
   - a *group commit* — triggered by the watermark, by [sync], or by a
     combiner handoff — flushes the lines no write-behind has covered
     (at most the partial tail line) and fences, then publishes a
     single packed (floor, consumed) meta word with its own
     flush+fence.  Every fence is issued split
     ({!Nvm.Heap.sfence_split}), so commits pipeline into the device
     queue like combined batches and only [sync] (or an acknowledging
     caller) joins the drain;
   - a *line commit* is the same group commit, issued by the append
     that fills a line without tripping the watermark, right behind
     the line's write-behind.  No one joins it.  It fires only when
     three things hold:
     - the heap's device has nothing queued ({!Nvm.Heap.device_idle},
       read before the line's own write-behind queues): the commit's
       meta drain then uses device time no one else wants.  The test
       is heap-wide, not the tier's own tickets, so a line commit
       never queues behind a strict tier's fences on the same shard;
     - the line took at least one line drain to fill (the profile's
       per-flush drain; zero without wall-clock drains).  A producer
       that fills lines faster than the device drains them — one that
       just joined a watermark commit and finds the device idle, say —
       keeps batching [watermark] enqueues per commit, the batching
       that pays where the device is the bottleneck;
     - the caller's fences are not absorbed: the write-behind is
       skipped then, so there is no line write to commit behind.
     Both device conditions ask the heap ({!Nvm.Heap.device_idle},
     {!Nvm.Heap.line_drain}, {!Nvm.Heap.device_clock}), which queues
     drains only under an enabled wall-clock-drain profile.  Under any
     other profile — {!Nvm.Latency.off}, the spin profiles — the device
     always reads idle and a line needs no time to fill, so every line
     filled short of the watermark commits, however fast the producer:
     the watermark's batching of a producer that outruns the device
     holds where drains queue, the profile of every load that times
     the tier.

   A group of [watermark] enqueues costs the same line flushes as when
   the commit flushed every line itself, plus one meta flush; what
   changes is when they drain: a commit waits for at most two line
   drains (tail and meta), not [watermark/8 + 1].  The price is fences
   — one per written-behind line plus one or two per commit — the
   paper's thesis again: more fences, less waiting.  Line commits add
   a meta flush and fence per line, paid only while the device idles:
   a slow producer's ops are durable two drains (the line's, then the
   meta word's) after their line fills, instead of after the
   watermark's whole group has filled.

   Concurrency.  Producers append under the lock: each writes its slot
   and its journal word, then publishes [appended] (an [Atomic]).  A
   dequeuer reads [consumed = c], checks [c < appended], reads slot
   [c mod capacity] and CASes [consumed] from [c] to [c + 1].  Only the
   append of entry [c + capacity] overwrites that slot, and the ring
   guard below allows it only once the *committed* consumed floor has
   passed [c] — after some CAS moved [consumed] past [c].  So a
   dequeuer whose CAS succeeds read the slot before any overwrite, and
   one that read an overwritten slot fails its CAS and retries.

   Crash safety is carried by the meta word alone (a line commit is an
   ordinary commit, so only a trigger is new):
   - the meta word is the only commit point.  Any surviving meta pair
     (floor, consumed) was written after a fence covering each entry in
     [0, floor) was issued — its line's write-behind fence, or a
     commit's fence 1 — so the entries the pair names are always
     intact; a torn or reverted meta word simply names an older
     commit's pair;
   - a write-behind fence only advances the persisted watermarks of
     lines whose eight entries are final, and never the meta word's
     line: every image it leads to was already a possible crash image
     (an eviction of the same stores).  It is issued before the append
     lock is released, so a commit from another thread that counts the
     line as written behind (below [flushed_upto]) runs after the
     fence.  A thread whose fences are absorbed (a combining pass over
     the tier) writes nothing behind: its lines stay above
     [flushed_upto] for the next commit or write-behind to flush;
   - recovery reads the meta word, truncates the journal at its floor
     (discarding any torn unsynced tail beyond it, and any entries
     written behind above it) and refills slots [consumed, floor) of
     the volatile copy from the journal: the recovered state is exactly
     the synced floor — some commit's consistent snapshot — and the
     lost suffix is exactly the contiguous unsynced tail.  It allocates
     nothing: the journal region is the tier's whole NVM footprint.

   The (floor, consumed) snapshot is consistent as a history cut
   because both counters are read while holding the append lock: no
   enqueue past [floor] had completed when the commit started, and
   every dequeue counted in [consumed] claimed an entry below [floor].
   Ring-slot reuse is safe because an append may overwrite slot
   [appended - capacity] only when the *committed* consumed floor has
   passed it, and the meta word can never revert below the last issued
   commit (its line is fenced by every commit).  The guard runs before
   the append writes, so a write-behind never persists an overwrite the
   committed meta does not allow.  Line-full detection
   ([appended mod 8 = 0]) needs ring slots to line up with cache lines,
   so [create] accepts only line-aligned capacities. *)

let name = "BufferedQ"

let meta_bits = 31
let meta_mask = (1 lsl meta_bits) - 1
let pack ~floor ~consumed = (floor lsl meta_bits) lor consumed
let floor_of pair = pair lsr meta_bits
let consumed_of pair = pair land meta_mask

type t = {
  heap : Nvm.Heap.t;
  watermark : int;  (* enqueues per group commit *)
  capacity : int;  (* journal ring capacity (entries) *)
  join_commits : bool;
      (* enqueue that trips the watermark joins its commit's drain:
         bounded durability lag at the cost of pacing the producer to
         the device (the broker's acks=leader shape) *)
  yield : unit -> unit;  (* append-lock back-off hook *)
  entries : int;  (* base address of the journal ring *)
  meta : int;  (* address of the packed (floor, consumed) word *)
  slots : int array;  (* volatile copy of the ring: what dequeues read *)
  lock : bool Atomic.t;  (* serialises appends *)
  appended : int Atomic.t;
      (* enqueues ever appended: written by the lock holder after the
         slot, read by dequeuers *)
  mutable flushed_upto : int;
      (* every entry below it sits on a line already written behind *)
  consumed : int Atomic.t;  (* dequeues ever claimed *)
  mutable committed_floor : int;  (* floor of the last issued commit *)
  mutable committed_consumed : int;
  mutable last_drain : Nvm.Heap.drain;  (* last commit's ticket *)
  mutable behind_drain : Nvm.Heap.drain;  (* last write-behind fence *)
  mutable line_opened : float;
      (* {!Nvm.Heap.device_clock} at the append that opened the line now
         filling *)
  mutable on_commit :
    (floor:int -> consumed:int -> drain:Nvm.Heap.drain -> unit) option;
  mutable commits : int;  (* volatile statistics *)
  mutable syncs : int;
}

let default_watermark = 64
let default_capacity = 1 lsl 16

let default_yield () =
  for _ = 1 to 32 do
    Domain.cpu_relax ()
  done

let create ?(watermark = default_watermark) ?(capacity = default_capacity)
    ?(join_commits = true) ?(yield = default_yield) heap =
  if watermark < 1 then invalid_arg "Buffered_q.create: watermark < 1";
  if
    capacity < Nvm.Line.words_per_line
    || capacity > meta_mask
    || capacity mod Nvm.Line.words_per_line <> 0
  then invalid_arg "Buffered_q.create: bad capacity";
  (* Entry ring (line-packed values) and, on its own line, the meta
     word.  One region: recovery needs only its base address. *)
  let region =
    Nvm.Heap.alloc_region heap ~tag:Nvm.Region.Log_area
      ~words:(capacity + Nvm.Line.words_per_line)
  in
  let base = Nvm.Region.base_addr region in
  {
    heap;
    watermark;
    capacity;
    join_commits;
    yield;
    entries = base;
    meta = base + capacity;
    slots = Array.make capacity 0;
    lock = Atomic.make false;
    appended = Atomic.make 0;
    flushed_upto = 0;
    consumed = Atomic.make 0;
    committed_floor = 0;
    committed_consumed = 0;
    last_drain = Nvm.Heap.no_drain;
    behind_drain = Nvm.Heap.no_drain;
    line_opened = 0.;
    on_commit = None;
    commits = 0;
    syncs = 0;
  }

let rec acquire t =
  if not (Atomic.compare_and_set t.lock false true) then begin
    t.yield ();
    acquire t
  end

let release t = Atomic.set t.lock false

let slot t i = i mod t.capacity
let entry_addr t i = t.entries + slot t i

(* -- Group commit ------------------------------------------------------------ *)

(* The ticket that completes last.  Under [drain_wall] the per-heap FIFO
   device already orders a commit's meta drain after every write-behind
   it covers; under the busy-wait profiles the tickets are independent
   deadlines, so a commit hands out the later one. *)
let later a b =
  if Nvm.Heap.drain_deadline b > Nvm.Heap.drain_deadline a then b else a

(* Flush the journal lines holding entries [max committed_floor
   flushed_upto, hi) and issue a split fence over them (lock held); no
   fence when the range is empty.  Capacity is line-aligned, so the
   line of each entry index that is a multiple of 8 starts at its ring
   slot. *)
let persist_entries t ~hi =
  let lo = max t.committed_floor t.flushed_upto in
  if hi <= lo then Nvm.Heap.no_drain
  else begin
    let i = ref (lo - (lo mod Nvm.Line.words_per_line)) in
    while !i < hi do
      Nvm.Heap.flush t.heap (entry_addr t !i);
      i := !i + Nvm.Line.words_per_line
    done;
    Nvm.Heap.sfence_split t.heap
  end

(* Write-behind (lock held): the append that fills a line persists it —
   together with any line an earlier fill left behind — and fences at
   once.  The excluded span keeps the fence off the appending
   operation's span: that call never waits for the drain; whoever joins
   the covering commit does.  Skipped while this thread's fences are
   absorbed (a combining pass over the tier): another thread's commit
   trusts [flushed_upto], so it may only cover a fence already issued,
   and the commit (or the next write-behind) flushes the line instead. *)
let write_behind t ~hi =
  if not (Nvm.Heap.fences_absorbed t.heap) then
    Nvm.Span.with_span ~exclude:true (Nvm.Heap.spans t.heap)
      Instrumented.write_behind_label (fun () ->
        t.behind_drain <- persist_entries t ~hi;
        t.flushed_upto <- hi)

(* Issue a group commit (lock held).  Returns the drain ticket covering
   the commit and every write-behind below its floor; the caller
   decides whether to join it.  The commit runs under a "sync" span so
   censuses report group-commit persists separately from the
   (fence-free) op spans; a line commit ([~line:true]) runs under an
   excluded "line-commit" span instead, like the write-behind it
   follows, since the appending call does not wait for it. *)
let commit ?(line = false) t =
  let floor = Atomic.get t.appended in
  let consumed = Atomic.get t.consumed in
  if floor = t.committed_floor && consumed = t.committed_consumed then
    t.last_drain
  else begin
    let spans = Nvm.Heap.spans t.heap in
    let drain =
      Nvm.Span.with_span ~exclude:line spans
        (if line then Instrumented.line_commit_label
         else Instrumented.sync_label) (fun () ->
          (* Fence 1 covers the entries no write-behind has: at most
             the partial tail line.  Skipped when the commit only
             advances [consumed] or ends on a written-behind line. *)
          ignore (persist_entries t ~hi:floor);
          (* Fence 2 covers the meta word, written strictly after every
             fence covering [0, floor) was issued: a surviving meta pair
             always names intact entries. *)
          Nvm.Heap.write t.heap t.meta (pack ~floor ~consumed);
          Nvm.Heap.flush t.heap t.meta;
          let drain = later (Nvm.Heap.sfence_split t.heap) t.behind_drain in
          t.committed_floor <- floor;
          t.committed_consumed <- consumed;
          t.last_drain <- drain;
          t.commits <- t.commits + 1;
          (* Straight after the fence, before the span closes: with only
             the tail line and the meta word left to drain, the ticket
             can complete a few hundred microseconds after issue, so a
             callback that stamps the commit's issue on its own clock
             runs with as little as possible between fence and stamp. *)
          (match t.on_commit with
          | Some f -> f ~floor ~consumed ~drain
          | None -> ());
          drain)
    in
    Nvm.Span.event spans "sync:commit";
    drain
  end

(* Whether the append that just filled a line issues a line commit
   (lock held; see the header for why each condition holds).  Called
   before the line's write-behind, which queues the line's own drain on
   the device. *)
let line_commit_due t =
  (not (Nvm.Heap.fences_absorbed t.heap))
  && Nvm.Heap.device_clock t.heap -. t.line_opened
     >= Nvm.Heap.line_drain t.heap
  && Nvm.Heap.device_idle t.heap

(* -- Operations -------------------------------------------------------------- *)

exception Journal_full

let enqueue ?join t v =
  acquire t;
  let drain =
    match
      (* Ring-slot reuse guard: the slot this append overwrites must be
         consumed *as of the committed meta*, or a crash could resurrect
         it.  A commit refreshes the committed consumed floor; if the
         backlog truly exceeds the ring, fail loudly. *)
      (let i = Atomic.get t.appended in
       if i - t.committed_consumed >= t.capacity then begin
         ignore (commit t);
         if i - t.committed_consumed >= t.capacity then raise Journal_full
       end;
       (* Slot and journal word first, then publish: a dequeuer that
          sees the new count sees the value. *)
       t.slots.(slot t i) <- v;
       Nvm.Heap.write t.heap (entry_addr t i) v;
       if i mod Nvm.Line.words_per_line = 0 then
         t.line_opened <- Nvm.Heap.device_clock t.heap;
       let hi = i + 1 in
       Atomic.set t.appended hi;
       let trips = hi - t.committed_floor >= t.watermark in
       if hi mod Nvm.Line.words_per_line = 0 then begin
         let line_commit = (not trips) && line_commit_due t in
         write_behind t ~hi;
         (* Nobody joins a line commit; a later [sync] with nothing
            new to cover joins its ticket. *)
         if line_commit then ignore (commit ~line:true t)
       end;
       if trips then Some (commit t) else None)
    with
    | d ->
        release t;
        d
    | exception e ->
        release t;
        raise e
  in
  (* Join outside the lock: the drain is device time, and holding the
     append lock through it would serialise producers behind the DIMM.
     [?join] overrides the instance default per call — the broker maps
     acks=leader onto joining and acks=none onto fire-and-forget over
     the same shard tier. *)
  match drain with
  | Some d when Option.value join ~default:t.join_commits ->
      Nvm.Heap.drain_join t.heap d
  | _ -> ()

(* The slot is read before the CAS: a successful CAS proves no append
   has reused it yet (see the header). *)
let rec dequeue t =
  let c = Atomic.get t.consumed in
  if c >= Atomic.get t.appended then None
  else
    let v = t.slots.(slot t c) in
    if Atomic.compare_and_set t.consumed c (c + 1) then Some v
    else dequeue t

let sync t =
  let spans = Nvm.Heap.spans t.heap in
  Nvm.Span.event spans "sync";
  acquire t;
  t.syncs <- t.syncs + 1;
  let d =
    match commit t with
    | d ->
        release t;
        d
    | exception e ->
        release t;
        raise e
  in
  Nvm.Heap.drain_join t.heap d

(* -- Recovery ---------------------------------------------------------------- *)

(* Post-crash: the journal region is the only persistent state.  The
   meta word names the synced floor; everything beyond it (a torn,
   unsynced tail, or lines written behind above it) is discarded, and
   the live entries [consumed, floor) are copied back into their slots.
   [flushed_upto] re-seats at the floor rounded down to a line:
   everything below the floor is persisted, and the floor's own line
   fills again from there. *)
let recover t =
  Atomic.set t.lock false;
  let pair = Nvm.Heap.read t.heap t.meta in
  let floor = floor_of pair and consumed = consumed_of pair in
  for i = consumed to floor - 1 do
    t.slots.(slot t i) <- Nvm.Heap.read t.heap (entry_addr t i)
  done;
  Atomic.set t.appended floor;
  t.flushed_upto <- floor - (floor mod Nvm.Line.words_per_line);
  Atomic.set t.consumed consumed;
  t.committed_floor <- floor;
  t.committed_consumed <- consumed;
  t.last_drain <- Nvm.Heap.no_drain;
  t.behind_drain <- Nvm.Heap.no_drain

(* -- Introspection ----------------------------------------------------------- *)

let appended t = Atomic.get t.appended
let committed_floor t = t.committed_floor
let committed_consumed t = t.committed_consumed
let consumed t = Atomic.get t.consumed
let durability_lag t = appended t - t.committed_floor

let journal_value t i =
  if i < 0 || i >= appended t then invalid_arg "Buffered_q.journal_value";
  Nvm.Heap.peek t.heap (entry_addr t i)

let set_on_commit t f = t.on_commit <- f

type stats = { s_commits : int; s_syncs : int }

let stats t = { s_commits = t.commits; s_syncs = t.syncs }

let instance t : Queue_intf.instance =
  {
    Queue_intf.name;
    enqueue = (fun v -> enqueue t v);
    dequeue = (fun () -> dequeue t);
    sync = (fun () -> sync t);
    recover = (fun () -> recover t);
    to_list =
      (fun () ->
        let c = consumed t in
        List.init (appended t - c) (fun k -> t.slots.(slot t (c + k))));
    checkpoint = None;
  }
