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

   - the journal is a ring of 8-word lines, each holding seven entries
     and then one *seal* word.  Each enqueue appends its value as one
     entry, so seven enqueues dirty one line instead of seven.  The live
     items are the entries [consumed, appended);
   - a dequeue claims the entry at [consumed] with one CAS and takes its
     value from a volatile copy of the ring ([slots], same index).  It
     touches no NVM word: reading the journal back would be an access to
     flushed content (every full line is flushed as it fills, below),
     the cost the paper's second amendment removes;
   - a *commit* seals the line holding entry [floor - 1]: it stores the
     packed (floor, consumed) pair, read under the append lock, in that
     line's seal word, flushes that one line, issues one split fence
     ({!Nvm.Heap.sfence_split}) and passes the fence's ticket to
     [on_commit].  Three things commit, all the same way: the append
     that fills a line (its write-behind), [sync] and the ring guard.  A
     full line thus costs one flush and one fence, and its entries are
     durable one line drain after it fills.  Only [sync] joins its
     drain;
   - the watermark only paces an acknowledging producer.  The append
     that fills the first line at or past [watermark] entries since the
     previous pacing point is the next one: it saves its commit's
     ticket and, when it acknowledges ([join]), waits for the ticket
     saved at the previous point.  A device that keeps up has long
     drained that one, so the producer never waits, while one that
     outruns the device stays within about two watermarks of it.

   Concurrency.  Producers append under the lock: each writes its slot
   and its journal word, then publishes [appended] (an [Atomic]).  A
   dequeuer reads [consumed = c], checks [c < appended], reads slot
   [c mod slots] and CASes [consumed] from [c] to [c + 1].  Only the
   append of entry [c + slots] overwrites that slot, and the ring guard
   below allows it only once the *committed* consumed floor has passed
   [c] — after some CAS moved [consumed] past [c].  So a dequeuer whose
   CAS succeeds read the slot before any overwrite, and one that read an
   overwritten slot fails its CAS and retries.

   Crash safety.  A seal is a commit record stored last into the line
   it commits, so it needs no fence of its own: the paper's queues
   validate a node by its own fields, and [WideUnlinkedQ] stamps each
   line after that line's data (footnote 3, Cohen et al.), on the same
   ground.  A line is *sealed full* when its seal word holds a floor at
   or past the line's end, past its seventh entry.  Five points carry
   the argument:
   - (i) the seal is the last store to its line, so by Assumption 1 (a
     line persists as a prefix of its stores) a surviving seal means the
     line's entries below its floor survived, and a line sealed full
     kept all seven;
   - (ii) each seal is a consistent (floor, consumed) cut of the
     history: both counters are read under the append lock, so no
     enqueue past [floor] had completed and every dequeue counted in
     [consumed] claimed an entry below [floor].  It carries the consumed
     count next to the floor, so a crash drops only a suffix;
   - (iii) the last issued commit always survives intact: every line
     fill commits inside the append that fills it, so each line of its
     window [consumed, floor) below its own was sealed full and fenced
     by an earlier commit, and its own fence covers its own line.  A
     later store can only replace a seal with a newer one.  Recovery
     takes the highest-floor seal whose lines, from the one holding its
     consumed floor up, are all sealed full, so it never lands below the
     last issued commit;
   - (iv) before the first new append, recovery durably overwrites every
     seal above its floor with its own seal, which names no later line.
     Without that, a line refilled after the crash could chain onto a
     seal written before it, and the next crash would bring back values
     nobody acknowledged;
   - (v) ring reuse stays behind the committed consumed floor: an append
     may overwrite entry [i] only once the last issued commit's consumed
     floor passed [i], so no line of a surviving window was overwritten.
     The ring holds whole lines, so a window may straddle one line more
     than the ring has: its lowest line then shares a ring line with its
     highest, whose entries fill only slots below the consumed floor's,
     and whose seal, stored after the older entries, vouches for them
     too — hence "at or past" above.
   A caller whose fences are absorbed (inside a
   {!Nvm.Heap.with_batched_fences} scope) could not issue a commit: its
   fence would land only when the scope closes.  So [enqueue] and
   [sync] refuse such a caller before touching any state, and every
   issued commit is the one path above; a dequeue issues no persist and
   stays legal there.  Recovery reads each seal word once, walks down
   from the highest, refills slots [consumed, floor) from the journal
   and allocates nothing: the journal region is the tier's whole NVM
   footprint. *)

let name = "BufferedQ"

(* A seal packs one (floor, consumed) cut into a word. *)
let consumed_bits = 31
let consumed_mask = (1 lsl consumed_bits) - 1
let pack ~floor ~consumed = (floor lsl consumed_bits) lor consumed
let floor_of pair = pair lsr consumed_bits
let consumed_of pair = pair land consumed_mask

(* A journal line: [per_line] entries, then the seal word. *)
let per_line = Nvm.Line.words_per_line - 1
let line_of i = i / per_line

type t = {
  heap : Nvm.Heap.t;
  watermark : int;  (* enqueues between an acknowledging producer's waits *)
  capacity : int;  (* unconsumed entries allowed before [Journal_full] *)
  lines : int;  (* ring size in journal lines *)
  yield : unit -> unit;  (* append-lock back-off hook *)
  base : int;  (* address of ring line 0 *)
  slots : int array;  (* volatile copy of the ring's entries *)
  seals : int array;  (* recovery's copy of the ring's seal words *)
  lock : bool Atomic.t;  (* serialises appends and commits *)
  appended : int Atomic.t;
      (* enqueues ever appended: written by the lock holder after the
         slot, read by dequeuers *)
  consumed : int Atomic.t;  (* dequeues ever claimed *)
  mutable committed_floor : int;
      (* floor of the last issued commit: every line below the one
         holding this entry was sealed full and flushed before an issued
         commit's fence *)
  mutable committed_consumed : int;
  mutable last_drain : Nvm.Heap.drain;  (* last issued commit's ticket *)
  mutable paced_at : int;  (* [appended] at the last pacing point *)
  mutable paced_drain : Nvm.Heap.drain;  (* the commit ticket saved there *)
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
    ?(yield = default_yield) heap =
  if watermark < 1 then invalid_arg "Buffered_q.create: watermark < 1";
  if capacity < 1 || capacity > consumed_mask then
    invalid_arg "Buffered_q.create: bad capacity";
  (* The ring rounds [capacity] up to whole lines.  One region: recovery
     needs only its base address, and zeroed seals name no commit. *)
  let lines = (capacity + per_line - 1) / per_line in
  let region =
    Nvm.Heap.alloc_region heap ~tag:Nvm.Region.Log_area
      ~words:(lines * Nvm.Line.words_per_line)
  in
  {
    heap;
    watermark;
    capacity;
    lines;
    yield;
    base = Nvm.Region.base_addr region;
    slots = Array.make (lines * per_line) 0;
    seals = Array.make lines 0;
    lock = Atomic.make false;
    appended = Atomic.make 0;
    consumed = Atomic.make 0;
    committed_floor = 0;
    committed_consumed = 0;
    last_drain = Nvm.Heap.no_drain;
    paced_at = 0;
    paced_drain = Nvm.Heap.no_drain;
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

let slot t i = i mod Array.length t.slots
let line_addr t l = t.base + ((l mod t.lines) * Nvm.Line.words_per_line)
let entry_addr t i = line_addr t (line_of i) + (i mod per_line)
let seal_addr t l = line_addr t l + per_line

(* -- Commit ------------------------------------------------------------------ *)

(* The ticket that completes last.  Under [drain_wall] the per-heap FIFO
   device already orders a commit's drain after every earlier one;
   under the busy-wait profiles the tickets are independent deadlines,
   so a commit hands out the later one. *)
let later a b =
  if Nvm.Heap.drain_deadline b > Nvm.Heap.drain_deadline a then b else a

(* Commit (lock held): seal the line holding entry [floor - 1], flush
   it and issue one split fence.  Every line below it was sealed full
   and fenced by the commit of the append that filled it.
   Returns the ticket covering the commit and every earlier one; the
   caller decides whether to join it.  A write-behind ([~behind:true])
   runs under the excluded "write-behind" span, since the appending call
   does not wait for it; the others run under "sync", so censuses report
   commit persists apart from the fence-free op spans. *)
let commit ?(behind = false) t =
  let floor = Atomic.get t.appended in
  let consumed = Atomic.get t.consumed in
  if floor = t.committed_floor && consumed = t.committed_consumed then
    t.last_drain
  else begin
    let spans = Nvm.Heap.spans t.heap in
    let top = line_of (floor - 1) in
    let drain =
      Nvm.Span.with_span ~exclude:behind spans
        (if behind then Instrumented.write_behind_label
         else Instrumented.sync_label) (fun () ->
          Nvm.Heap.write t.heap (seal_addr t top) (pack ~floor ~consumed);
          Nvm.Heap.flush t.heap (line_addr t top);
          let drain = later (Nvm.Heap.sfence_split t.heap) t.last_drain in
          t.committed_floor <- floor;
          t.committed_consumed <- consumed;
          t.last_drain <- drain;
          t.commits <- t.commits + 1;
          (* Straight after the fence, before the span closes: a commit
             drains one line, so its ticket can complete 200 µs after
             issue, and a callback that stamps the issue on its own clock
             should run as close to the fence as it can. *)
          (match t.on_commit with
          | Some f -> f ~floor ~consumed ~drain
          | None -> ());
          drain)
    in
    Nvm.Span.event spans "sync:commit";
    drain
  end

(* -- Operations -------------------------------------------------------------- *)

exception Journal_full

(* The one commit path needs the commit's fence issued now: under
   absorbed fences it would land only when the scope closes (see the
   header). *)
let refuse_absorbed t op =
  if Nvm.Heap.fences_absorbed t.heap then
    invalid_arg ("Buffered_q." ^ op ^ ": fences absorbed by a batched scope")

let enqueue ?(join = true) t v =
  refuse_absorbed t "enqueue";
  acquire t;
  let due =
    match
      (* Ring-slot reuse guard: the entry this append overwrites must be
         consumed *as of the last issued commit*, or a crash could
         resurrect it.  A commit refreshes the committed consumed floor;
         if the backlog truly reached [capacity], fail loudly. *)
      (let i = Atomic.get t.appended in
       if i - t.committed_consumed >= t.capacity then begin
         ignore (commit t);
         if i - t.committed_consumed >= t.capacity then raise Journal_full
       end;
       (* Slot and journal word first, then publish: a dequeuer that
          sees the new count sees the value. *)
       t.slots.(slot t i) <- v;
       Nvm.Heap.write t.heap (entry_addr t i) v;
       let hi = i + 1 in
       Atomic.set t.appended hi;
       if hi mod per_line <> 0 then None
       else
         (* The full line commits at once.  The first fill [watermark]
            entries past the previous pacing point is the next one (see
            the header). *)
         let drain = commit ~behind:true t in
         if hi - t.paced_at < t.watermark then None
         else begin
           let due = t.paced_drain in
           t.paced_at <- hi;
           t.paced_drain <- drain;
           Some due
         end)
    with
    | d ->
        release t;
        d
    | exception e ->
        release t;
        raise e
  in
  (* Wait outside the lock: the drain is device time, and holding the
     append lock through it would serialise producers behind the DIMM.
     [join] is per call — the broker maps acks=leader onto waiting and
     acks=none onto fire-and-forget over the same shard tier. *)
  match due with
  | Some d when join -> Nvm.Heap.drain_join t.heap d
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
  refuse_absorbed t "sync";
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

(* Post-crash: the journal region is the only persistent state.  One
   pass copies the seal words out, noting the highest seal that names
   its own line.  The walk then goes down the ring from that line,
   checking that each line of the candidate's window is sealed full; a
   line that is not also fails every candidate above it (a later commit
   never has a lower consumed floor), so the walk moves on to the next
   seal below that names its own line.  The window of the last issued
   commit reaches at most one ring's length below the highest seal, so
   neither the pass nor the walk rereads a ring line.  The chosen seal's
   live entries are copied back into their slots, and every seal above
   its floor is overwritten with it, durably, before any append. *)
let recover t =
  Atomic.set t.lock false;
  let m = t.lines in
  let top = ref 0 in
  for p = 0 to m - 1 do
    let s = Nvm.Heap.read t.heap (seal_addr t p) in
    t.seals.(p) <- s;
    if line_of (floor_of s - 1) mod m = p && floor_of s > floor_of !top then
      top := s
  done;
  let top_line = line_of (floor_of !top - 1) in
  let lowest = max 0 (top_line - m) in
  let full l = floor_of t.seals.(l mod m) >= (l + 1) * per_line in
  let names l =
    let f = floor_of t.seals.(l mod m) in
    f > l * per_line && f <= (l + 1) * per_line
  in
  let rec chain c l =
    if l < line_of (consumed_of c) then c
    else if l >= lowest && full l then chain c (l - 1)
    else next l
  and next l =
    if l < lowest then 0
    else if names l then chain t.seals.(l mod m) (l - 1)
    else next (l - 1)
  in
  let pair = if !top = 0 then 0 else chain !top (top_line - 1) in
  let floor = floor_of pair and consumed = consumed_of pair in
  for i = consumed to floor - 1 do
    t.slots.(slot t i) <- Nvm.Heap.read t.heap (entry_addr t i)
  done;
  let stale = ref false in
  for p = 0 to m - 1 do
    if floor_of t.seals.(p) > floor then begin
      Nvm.Heap.write t.heap (seal_addr t p) pair;
      Nvm.Heap.flush t.heap (seal_addr t p);
      stale := true
    end
  done;
  if !stale then Nvm.Heap.sfence t.heap;
  Atomic.set t.appended floor;
  Atomic.set t.consumed consumed;
  t.committed_floor <- floor;
  t.committed_consumed <- consumed;
  t.last_drain <- Nvm.Heap.no_drain;
  t.paced_at <- floor;
  t.paced_drain <- Nvm.Heap.no_drain

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
