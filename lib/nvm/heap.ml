(* The simulated persistent-memory heap.

   All shared-memory accesses of the durable queues go through this module,
   which implements the two-level memory of the paper's model (Section 2):
   a volatile cache and a persistent NVRAM.  The primitives mirror the
   x86 instructions used on the paper's platform:

   - [flush]  = CLWB: asynchronously write the containing line back and
     invalidate it in the cache (the Cascade Lake behaviour).
   - [sfence] = SFENCE: block until all flushes and movntis issued by the
     calling thread since its previous fence have completed.
   - [movnti] = non-temporal store: write directly to memory, bypassing the
     cache, completed by the next sfence.

   Ordinary [read]/[write]/[cas] touch the cache; if the line was
   invalidated by a flush, they pay an NVRAM miss (counted and, in latency
   mode, charged) — the "access to flushed content" the paper's second
   amendment eliminates.

   In [Checked] mode every store is logged per line so that {!Crash} can
   materialise a post-crash NVRAM image satisfying Assumption 1 (each
   line's content is a prefix of its stores, no shorter than the explicitly
   persisted watermark).

   Hot-path discipline (the simulator must not become the bottleneck it
   models): primitives resolve {!Tid.get} once; the per-thread pending
   flush/movnti sets are reusable packed int buffers that are emptied, not
   freed, by each fence (zero steady-state allocation); per-thread fence
   accounting lives in cache-line-padded slots; [region_of] is an array
   load plus an id check against {!Region.sentinel}; and the latency
   charging calls vanish behind one cached [has_cost] test when the
   configured cost profile is all zeros ({!Latency.off}). *)

type mode = Fast | Checked

(* 1024 region ids.  A shard heap holds a handful of live regions (its
   queue's areas, a buffered tier's journal, checkpoint images) and
   recycles retired ids; the value is kept because bench/e2e's
   crash-recover cycle cap is sized against it. *)
let max_regions = 1024
let off_mask = (1 lsl 24) - 1

(* Per-thread pending persists.  [pbuf]/[mbuf] pack (region id, line
   index, line version) triples for checked-mode drains; fast mode only
   counts.  The buffers are reused across fences — a drain resets the
   lengths, never the capacity — so a thread's steady-state flush/fence
   cycle allocates nothing.  Tail padding keeps neighbouring threads'
   records (allocated back to back) off this record's cache line: the
   counters here are bumped on every flush and movnti. *)
type pending = {
  mutable pbuf : int array;  (* packed flush triples *)
  mutable plen : int;
  mutable mbuf : int array;  (* packed movnti triples *)
  mutable mlen : int;
  mutable n_pflush : int;
  mutable n_pmovnti : int;
  mutable defer : bool;
      (* batched-fence mode: this thread's sfences on this heap are
         absorbed (flushes keep accumulating) until the batch-closing
         fence drains them all at once *)
  mutable elided : bool;  (* an sfence was absorbed since defer was set *)
  mutable pad_0 : int;
  mutable pad_1 : int;
  mutable pad_2 : int;
  mutable pad_3 : int;
  mutable pad_4 : int;
  mutable pad_5 : int;
  mutable pad_6 : int;
  mutable pad_7 : int;
}

(* Cache-line-padded per-thread fence flag (replaces the shared [bool
   array] hotspot: the flag is re-read on every fence, and with a packed
   array eight threads shared each line of it). *)
type fencer = {
  mutable fenced : bool;
  mutable fpad_0 : int;
  mutable fpad_1 : int;
  mutable fpad_2 : int;
  mutable fpad_3 : int;
  mutable fpad_4 : int;
  mutable fpad_5 : int;
  mutable fpad_6 : int;
  mutable fpad_7 : int;
}

type t = {
  mode : mode;
  checked : bool;  (* mode = Checked, cached for the hot paths *)
  has_cost : bool;
      (* any nonzero nanosecond in the latency profile: when false
         (Latency.off), the charging calls are skipped wholesale *)
  latency : Latency.config;
  spans : Span.t;
      (* the instrumentation spine: every primitive records through it;
         the per-thread totals it owns are what [stats] returns *)
  regions : Region.t array;  (* sentinel-filled; see [region_of] *)
  next_region : int Atomic.t;
      (* atomic so [iter_regions] on one domain races cleanly with
         [alloc_region] on another *)
  reg_lock : Mutex.t;  (* serialises allocation and retirement *)
  mutable free_ids : int list;
      (* region ids retired by [free_region], recycled by [alloc_region]
         before consuming fresh ids; guarded by [reg_lock] *)
  occupancy : Stats.occupancy;
      (* region/word allocation vs retirement totals; guarded by
         [reg_lock] *)
  pending : pending array;
  fencers : fencer array;  (* tids that have fenced since the last reset *)
  n_fencers : int Atomic.t;
      (* distinct fencing threads: the DIMM write-bandwidth sharing factor
         of Latency.fence_contention *)
  device_free_at : float Atomic.t;
      (* Latency.drain_wall device queue: the wall time at which this
         heap's simulated DIMM finishes everything enqueued so far.  A
         drain starts when the device frees up, not at issue, so drains
         on the same heap serialize (queueing under contention) while
         drains on different heaps overlap — the resource sharding
         multiplies. *)
  mutable step_hook : (unit -> unit) option;
      (* invoked at the entry of every memory primitive; the interleaving
         explorer uses it as a fiber yield point *)
}

let null = 0
let is_null a = a = 0

let initial_pending_slots = 3 * 16

let fresh_pending () =
  {
    pbuf = Array.make initial_pending_slots 0;
    plen = 0;
    mbuf = Array.make initial_pending_slots 0;
    mlen = 0;
    n_pflush = 0;
    n_pmovnti = 0;
    defer = false;
    elided = false;
    pad_0 = 0;
    pad_1 = 0;
    pad_2 = 0;
    pad_3 = 0;
    pad_4 = 0;
    pad_5 = 0;
    pad_6 = 0;
    pad_7 = 0;
  }

let fresh_fencer () =
  {
    fenced = false;
    fpad_0 = 0;
    fpad_1 = 0;
    fpad_2 = 0;
    fpad_3 = 0;
    fpad_4 = 0;
    fpad_5 = 0;
    fpad_6 = 0;
    fpad_7 = 0;
  }

let latency_has_cost (l : Latency.config) =
  l.Latency.nvm_read_ns <> 0
  || l.Latency.nvm_write_ns <> 0
  || l.Latency.flush_issue_ns <> 0
  || l.Latency.fence_base_ns <> 0
  || l.Latency.fence_per_flush_ns <> 0
  || l.Latency.fence_per_movnti_ns <> 0
  || l.Latency.movnti_issue_ns <> 0

let create ?(mode = Checked) ?(latency = Latency.off) () =
  {
    mode;
    checked = mode = Checked;
    has_cost = latency_has_cost latency;
    latency;
    spans = Span.create ();
    regions = Array.make max_regions Region.sentinel;
    next_region = Atomic.make 1 (* id 0 reserved: address 0 is NULL *);
    reg_lock = Mutex.create ();
    free_ids = [];
    occupancy = Stats.occupancy_zero ();
    pending = Array.init Tid.max_threads (fun _ -> fresh_pending ());
    fencers = Array.init Tid.max_threads (fun _ -> fresh_fencer ());
    n_fencers = Atomic.make 0;
    device_free_at = Atomic.make 0.;
    step_hook = None;
  }

let mode t = t.mode
let spans t = t.spans
let stats t = Span.stats t.spans
let latency t = t.latency
let set_step_hook t hook = t.step_hook <- hook

let step t = match t.step_hook with Some f -> f () | None -> ()

(* -- Address arithmetic -------------------------------------------------- *)

let rid_of addr = addr lsr 24
let off_of addr = addr land off_mask

let bad_address addr =
  invalid_arg (Printf.sprintf "Nvm: invalid address %#x" addr)

(* Branch-light: one array load plus one id comparison.  Unallocated slots
   hold {!Region.sentinel}, whose id (-1) matches no region id. *)
let region_of t addr =
  let r = Array.unsafe_get t.regions (rid_of addr land (max_regions - 1)) in
  if r.Region.id <> rid_of addr then bad_address addr;
  r

let line_of (r : Region.t) off = r.Region.lines.(off lsr Line.line_shift)

(* -- Region allocation --------------------------------------------------- *)

(* Allocate a zeroed region and persist the zeros, as Section 5.1.3
   prescribes for fresh designated areas: asynchronous flushes of the whole
   area followed by a single SFENCE.  The cost is charged to the caller. *)
let alloc_region ?owner t ~tag ~words =
  let words =
    (words + Line.words_per_line - 1)
    land lnot (Line.words_per_line - 1)
  in
  if words = 0 || words > off_mask + 1 then
    invalid_arg "Nvm.alloc_region: bad size";
  let checked = t.checked in
  Mutex.lock t.reg_lock;
  (* Recycle a retired id first: the address space is bounded
     ([max_regions]), so a long-lived heap that checkpoints and retires
     drained areas must reuse their ids.  A recycled id is below
     [next_region], so [iter_regions] still covers its slot; the fresh
     region's zeroed words mean no stale node can be observed through a
     reused id. *)
  let recycled, id =
    match t.free_ids with
    | id :: rest ->
        t.free_ids <- rest;
        (true, id)
    | [] -> (false, Atomic.get t.next_region)
  in
  if id >= max_regions then begin
    Mutex.unlock t.reg_lock;
    failwith "Nvm.alloc_region: out of region ids"
  end;
  let region =
    {
      Region.id;
      tag;
      owner;
      words = Array.init words (fun _ -> Atomic.make 0);
      lines =
        Array.init (words lsr Line.line_shift) (fun _ ->
            Line.create ~checked);
    }
  in
  t.regions.(id) <- region;
  (* Publish the slot before the bound: a concurrent [iter_regions] that
     observes the new bound finds the region, never the sentinel. *)
  if not recycled then Atomic.set t.next_region (id + 1);
  t.occupancy.Stats.regions_allocated <-
    t.occupancy.Stats.regions_allocated + 1;
  t.occupancy.Stats.words_allocated <-
    t.occupancy.Stats.words_allocated + words;
  Mutex.unlock t.reg_lock;
  (* Account the initial persist of the zeroed area under a dedicated,
     excluded setup span: the cost is still paid (and charged) by the
     caller, but an operation span that happened to trigger area growth
     (ssmem handing out a fresh designated area mid-enqueue) is not
     billed for it — steady-state censuses stay exactly one fence/op.
     Under a [drain_wall] profile the modeled time is not charged at
     all: there the per-flush cost is real wall-clock device time, and
     zeroing a designated area is background setup work (pre-zeroed off
     the critical path in a real allocator), not operation-path drain —
     spinning the caller for [nlines] device-line drains would stall a
     producer for whole seconds on every area growth. *)
  Span.with_span ~exclude:true t.spans "setup:alloc" (fun () ->
      let nlines = Region.n_lines region in
      Span.record ~n:nlines t.spans Span.Flush;
      Span.record t.spans Span.Fence;
      let ns =
        (nlines * (t.latency.Latency.flush_issue_ns
                   + t.latency.Latency.fence_per_flush_ns))
        + t.latency.Latency.fence_base_ns
      in
      Span.charge_ns t.spans ns;
      if not t.latency.Latency.drain_wall then Latency.charge t.latency ns);
  region

let iter_regions ?tag t ~f =
  for id = 1 to Atomic.get t.next_region - 1 do
    let r = t.regions.(id) in
    if (not (Region.is_sentinel r)) && (tag = None || tag = Some r.Region.tag)
    then f r
  done

(* Retire a region: its slot reverts to the sentinel (so [region_of]
   rejects stale addresses and [iter_regions] skips it) and its id joins
   the recycle list.  The caller owns the liveness argument — nothing may
   still hold addresses into [r].  Retirement is the compaction half of
   the checkpoint subsystem: simulated NVRAM is not literally returned,
   but the id/slot reuse is what bounds a long-lived heap's footprint. *)
let free_region t (r : Region.t) =
  if Region.is_sentinel r then invalid_arg "Nvm.free_region: sentinel region";
  Mutex.lock t.reg_lock;
  if
    r.Region.id >= max_regions
    || not (t.regions.(r.Region.id) == r)
  then begin
    Mutex.unlock t.reg_lock;
    invalid_arg "Nvm.free_region: region is not live on this heap"
  end;
  t.regions.(r.Region.id) <- Region.sentinel;
  t.free_ids <- r.Region.id :: t.free_ids;
  t.occupancy.Stats.regions_retired <-
    t.occupancy.Stats.regions_retired + 1;
  t.occupancy.Stats.words_reclaimed <-
    t.occupancy.Stats.words_reclaimed + Region.n_words r;
  Mutex.unlock t.reg_lock

let occupancy t =
  Mutex.lock t.reg_lock;
  let o = Stats.occupancy_copy t.occupancy in
  Mutex.unlock t.reg_lock;
  o

(* -- Cache behaviour ----------------------------------------------------- *)

(* Touching an invalidated line fetches it back from NVRAM. *)
let touch_read t ~tid (line : Line.t) =
  if Atomic.get line.Line.invalid then begin
    Atomic.set line.Line.invalid false;
    Span.record_at t.spans ~tid Span.Post_flush_read;
    if t.has_cost then begin
      Span.charge_ns_at t.spans ~tid t.latency.Latency.nvm_read_ns;
      Latency.charge t.latency t.latency.Latency.nvm_read_ns
    end
  end

let touch_write t ~tid (line : Line.t) =
  if Atomic.get line.Line.invalid then begin
    Atomic.set line.Line.invalid false;
    Span.record_at t.spans ~tid Span.Post_flush_write;
    if t.has_cost then begin
      Span.charge_ns_at t.spans ~tid t.latency.Latency.nvm_write_ns;
      Latency.charge t.latency t.latency.Latency.nvm_write_ns
    end
  end

(* -- Data access --------------------------------------------------------- *)

let read t addr =
  step t;
  let tid = Tid.get () in
  let r = region_of t addr in
  let off = off_of addr in
  Span.record_at t.spans ~tid Span.Read;
  touch_read t ~tid (line_of r off);
  Atomic.get r.Region.words.(off)

let write t addr value =
  step t;
  let tid = Tid.get () in
  let r = region_of t addr in
  let off = off_of addr in
  Span.record_at t.spans ~tid Span.Write;
  let line = line_of r off in
  touch_write t ~tid line;
  if not t.checked then Atomic.set r.Region.words.(off) value
  else begin
    Line.lock line;
    Atomic.set r.Region.words.(off) value;
    Line.log_store line ~off ~value;
    Line.unlock line
  end

let cas t addr ~expected ~desired =
  step t;
  let tid = Tid.get () in
  let r = region_of t addr in
  let off = off_of addr in
  Span.record_at t.spans ~tid Span.Cas;
  let line = line_of r off in
  touch_write t ~tid line;
  if not t.checked then
    Atomic.compare_and_set r.Region.words.(off) expected desired
  else begin
    Line.lock line;
    let ok =
      if Atomic.get r.Region.words.(off) = expected then begin
        Atomic.set r.Region.words.(off) desired;
        Line.log_store line ~off ~value:desired;
        true
      end
      else false
    in
    Line.unlock line;
    ok
  end

(* -- Persist instructions ------------------------------------------------ *)

(* Append a (region id, line index, version) triple to a packed pending
   buffer, growing it by doubling (steady state: no growth, no allocation;
   a fence resets the length and keeps the capacity). *)
let push_triple buf len rid li ver =
  let cap = Array.length buf in
  let buf =
    if len + 3 > cap then begin
      let grown = Array.make (2 * cap) 0 in
      Array.blit buf 0 grown 0 len;
      grown
    end
    else buf
  in
  buf.(len) <- rid;
  buf.(len + 1) <- li;
  buf.(len + 2) <- ver;
  buf

let flush t addr =
  step t;
  let tid = Tid.get () in
  let r = region_of t addr in
  let off = off_of addr in
  Span.record_at t.spans ~tid Span.Flush;
  if t.has_cost then begin
    Span.charge_ns_at t.spans ~tid t.latency.Latency.flush_issue_ns;
    Latency.charge t.latency t.latency.Latency.flush_issue_ns
  end;
  let line = line_of r off in
  let p = t.pending.(tid) in
  if t.checked then begin
    let _, v = Line.read_versions line in
    p.pbuf <-
      push_triple p.pbuf p.plen r.Region.id (off lsr Line.line_shift) v;
    p.plen <- p.plen + 3
  end;
  p.n_pflush <- p.n_pflush + 1;
  (* CLWB on this platform evicts the line: the next access misses. *)
  Atomic.set line.Line.invalid true

let movnti t addr value =
  step t;
  let tid = Tid.get () in
  let r = region_of t addr in
  let off = off_of addr in
  Span.record_at t.spans ~tid Span.Movnti;
  if t.has_cost then begin
    Span.charge_ns_at t.spans ~tid t.latency.Latency.movnti_issue_ns;
    Latency.charge t.latency t.latency.Latency.movnti_issue_ns
  end;
  let line = line_of r off in
  let p = t.pending.(tid) in
  if not t.checked then Atomic.set r.Region.words.(off) value
  else begin
    Line.lock line;
    Atomic.set r.Region.words.(off) value;
    Line.log_store line ~off ~value;
    let v = line.Line.version in
    Line.unlock line;
    p.mbuf <-
      push_triple p.mbuf p.mlen r.Region.id (off lsr Line.line_shift) v;
    p.mlen <- p.mlen + 3
  end;
  p.n_pmovnti <- p.n_pmovnti + 1;
  (* A non-temporal store invalidates any cached copy of the line, but does
     not itself fetch the line (no miss charged). *)
  Atomic.set line.Line.invalid true

(* Stream [values] into a fresh region with non-temporal stores: the
   checkpoint image writer.  movnti bypasses the cache, so building an
   image touches no cached line and can never create post-flush accesses;
   the words are pending until the caller's closing SFENCE, which must be
   issued before the image is published. *)
let snapshot_region ?owner t ~tag values =
  let region =
    alloc_region ?owner t ~tag ~words:(max 1 (Array.length values))
  in
  let base = Region.base_addr region in
  Array.iteri (fun i v -> movnti t (base + i) v) values;
  region

(* Advance a line's persisted watermark to cover version [v]. *)
let persist_upto (r : Region.t) li v =
  let line = r.Region.lines.(li) in
  Line.lock line;
  if v > line.Line.persisted then line.Line.persisted <- v;
  if line.Line.persisted >= line.Line.version && line.Line.log_len > 0
  then begin
    let base = Region.line_addr r li land off_mask in
    let current =
      Array.init Line.words_per_line (fun i ->
          Atomic.get r.Region.words.(base + i))
    in
    Line.compact line ~current
  end;
  Line.unlock line

(* Drain one packed pending buffer (checked mode). *)
let drain_triples t buf len =
  let i = ref 0 in
  while !i < len do
    let r = t.regions.(buf.(!i)) in
    (* A pending triple can outlive its region only across a retirement
       ([free_region]) that raced the fence; the retired region's content
       is dead by the retirer's liveness argument, so its drain is a
       no-op.  The bounds check covers a recycled id pointing at a
       smaller replacement region. *)
    if
      (not (Region.is_sentinel r))
      && buf.(!i + 1) < Array.length r.Region.lines
    then persist_upto r buf.(!i + 1) buf.(!i + 2);
    i := !i + 3
  done

(* The logical effects of a fence — recording, contention accounting,
   watermark advancement, pending reset — shared by the blocking
   [sfence] and the pipelined [sfence_split].  Returns the wall-clock
   nanoseconds of the drain portion (0 when no cost is configured). *)
let fence_issue t ~tid (p : pending) =
  Span.record_at t.spans ~tid Span.Fence;
  (* Tick the global persist-point clock: everything this fence drains
     is durable as of this stamp (watermarks advance below, at issue). *)
  ignore (Span.persist_point t.spans);
  let fc = t.fencers.(tid) in
  if not fc.fenced then begin
    fc.fenced <- true;
    Atomic.incr t.n_fencers
  end;
  let ns =
    if t.has_cost then begin
      (* The drain competes for the DIMM's write bandwidth with every
         other thread fencing on this heap (Optane write bandwidth
         saturates at very few writers); the base cost is core-local and
         uncontended. *)
      let sharing =
        if t.latency.Latency.fence_contention then
          max 1 (Atomic.get t.n_fencers)
        else 1
      in
      let ns =
        t.latency.Latency.fence_base_ns
        + sharing
          * ((p.n_pflush * t.latency.Latency.fence_per_flush_ns)
            + (p.n_pmovnti * t.latency.Latency.fence_per_movnti_ns))
      in
      Span.charge_ns_at t.spans ~tid ns;
      ns
    end
    else 0
  in
  if t.checked then begin
    drain_triples t p.pbuf p.plen;
    drain_triples t p.mbuf p.mlen
  end;
  p.plen <- 0;
  p.mlen <- 0;
  p.n_pflush <- 0;
  p.n_pmovnti <- 0;
  ns

(* Whether fence drains take wall-clock device time, queued on
   [device_free_at]. *)
let wall_drains t = t.latency.Latency.drain_wall && t.latency.Latency.enabled

(* Wall-clock duration of the drain portion under [Latency.drain_wall]:
   the device work this fence enqueues on the DIMM.  Read before
   [fence_issue] resets the pending counters. *)
let drain_wall_ns t (p : pending) =
  if wall_drains t then
    (p.n_pflush * t.latency.Latency.fence_per_flush_ns)
    + (p.n_pmovnti * t.latency.Latency.fence_per_movnti_ns)
  else 0

(* Enqueue [wall_ns] of device work on the heap's simulated DIMM and
   return the wall deadline at which it completes: a FIFO device queue —
   the drain starts when the device frees up, not at issue time. *)
let drain_reserve t wall_ns =
  let dur = float_of_int wall_ns *. 1e-9 in
  let rec go () =
    let free_at = Atomic.get t.device_free_at in
    let start = Float.max (Unix.gettimeofday ()) free_at in
    let deadline = start +. dur in
    if Atomic.compare_and_set t.device_free_at free_at deadline then deadline
    else go ()
  in
  go ()

let sfence t =
  step t;
  let tid = Tid.get () in
  let p = t.pending.(tid) in
  if p.defer then p.elided <- true
  else begin
    let wall_ns = drain_wall_ns t p in
    let ns = fence_issue t ~tid p in
    if t.latency.Latency.drain_wall then begin
      (* The drain is the device's work, not the core's: sleep out the
         queued completion so concurrent drains on other heaps (and
         other domains' CPU work) proceed meanwhile. *)
      if wall_ns > 0 then Latency.sleep_until (drain_reserve t wall_ns)
    end
    else Latency.charge t.latency ns
  end

(* -- Pipelined fences ----------------------------------------------------- *)

(* A fence whose wall-clock drain is still in flight.  [sfence_split]
   performs everything [sfence] does — the Fence is recorded in the
   current span, the contention factor bumped, the modeled nanoseconds
   accrued, and (in checked mode) the lines' persisted watermarks
   advanced — but instead of busy-waiting out the drain it returns a
   deadline ticket.  The caller overlaps useful work with the drain and
   [drain_join]s before acknowledging durability to anyone: persisted
   watermarks moving at issue time is conservative only towards *more*
   surviving data, and no completion is ever reported before the join. *)
type drain = { until : float }

let no_drain = { until = 0. }
let drain_deadline d = d.until

let sfence_split t =
  step t;
  let tid = Tid.get () in
  let p = t.pending.(tid) in
  if p.defer then begin
    p.elided <- true;
    no_drain
  end
  else begin
    let wall_ns = drain_wall_ns t p in
    let ns = fence_issue t ~tid p in
    Span.event t.spans "drain:ticket";
    if t.latency.Latency.drain_wall then
      if wall_ns > 0 then { until = drain_reserve t wall_ns } else no_drain
    else if ns > 0 && t.latency.Latency.enabled then
      { until = Unix.gettimeofday () +. (float_of_int ns *. 1e-9) }
    else no_drain
  end

let drain_join t d =
  if d.until > 0. then begin
    if t.latency.Latency.drain_wall then Latency.sleep_until d.until
    else
      while Unix.gettimeofday () < d.until do
        Domain.cpu_relax ()
      done;
    Span.event t.spans "drain:join"
  end

(* Batched-fence scope: the calling thread's sfences on this heap are
   absorbed for the duration of [f]; if any were, one closing sfence
   drains every flush and movnti accumulated by the whole batch.  This is
   the Fatourou-style amortization the broker's batch operations use:
   durability is promised at batch granularity — an operation inside the
   scope is only guaranteed persistent once the scope exits, so a crash
   mid-batch may drop any subset of the batch's not-yet-drained persists
   (each such operation counts as pending under durable linearizability).
   Volatile visibility to concurrent threads is unaffected. *)
let with_batched_fences t f =
  let p = t.pending.(Tid.get ()) in
  if p.defer then f () (* nested scope: already batching *)
  else begin
    p.defer <- true;
    p.elided <- false;
    Fun.protect
      ~finally:(fun () ->
        p.defer <- false;
        if p.elided then begin
          p.elided <- false;
          sfence t
        end)
      f
  end

(* Batched-fence scope whose closing fence is split: the batch's single
   fence is issued on exit but its wall-clock drain is returned as a
   ticket for the caller to overlap and [drain_join] later.  The
   exception path degrades to the blocking fence — pipelining is a
   steady-state optimisation, not something to thread through unwinds. *)
let with_batched_fences_split t f =
  let p = t.pending.(Tid.get ()) in
  if p.defer then (f (), no_drain) (* nested scope: the outer fence owns it *)
  else begin
    p.defer <- true;
    p.elided <- false;
    match f () with
    | v ->
        p.defer <- false;
        let d =
          if p.elided then begin
            p.elided <- false;
            sfence_split t
          end
          else no_drain
        in
        (v, d)
    | exception e ->
        p.defer <- false;
        if p.elided then begin
          p.elided <- false;
          sfence t
        end;
        raise e
  end

(* Whether the calling thread's fences on this heap are being absorbed
   (inside a batched-fence scope): a fence it issues now takes effect
   only when the scope closes. *)
let fences_absorbed t = t.pending.(Tid.get ()).defer

let reset_fence_contention t =
  Array.iter (fun fc -> fc.fenced <- false) t.fencers;
  Atomic.set t.n_fencers 0

(* Persist a whole line: flush its first word's line and fence.  Helper for
   code that persists single-line objects. *)
let persist_line t addr =
  flush t addr;
  sfence t

let clear_pending t =
  (* Operations in flight at the crash never complete: their open span
     frames must not survive into post-crash accounting. *)
  Span.abandon t.spans;
  Array.iter
    (fun p ->
      p.plen <- 0;
      p.mlen <- 0;
      p.n_pflush <- 0;
      p.n_pmovnti <- 0;
      (* Pre-crash threads are gone; a reused tid must not inherit an open
         batched-fence scope. *)
      p.defer <- false;
      p.elided <- false)
    t.pending

(* An allocator handing out a node line touches it as an ordinary cold
   fetch: the line may have been flushed (and invalidated) by its previous
   owner long ago, but that is a capacity miss every allocator on the real
   platform pays equally, not an access to *recently* flushed content
   (footnote 1 of the paper).  Charges the NVRAM read cost without counting
   a post-flush access. *)
let alloc_touch t addr =
  let r = region_of t addr in
  let line = line_of r (off_of addr) in
  if Atomic.get line.Line.invalid then begin
    Atomic.set line.Line.invalid false;
    Span.record t.spans Span.Read;
    if t.has_cost then begin
      Span.charge_ns t.spans t.latency.Latency.nvm_read_ns;
      Latency.charge t.latency t.latency.Latency.nvm_read_ns
    end
  end

(* -- Debug / introspection ------------------------------------------------ *)

(* Read a word without touching cache state or stats; for tests and
   recovery-time assertions. *)
let peek t addr =
  let r = region_of t addr in
  Atomic.get r.Region.words.(off_of addr)

let line_invalid t addr =
  let r = region_of t addr in
  Atomic.get (line_of r (off_of addr)).Line.invalid

let line_persisted_version t addr =
  let r = region_of t addr in
  Line.read_versions (line_of r (off_of addr))
