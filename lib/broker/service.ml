(* The sharded durable broker service.

   Multiplexes N independent durable queue shards (any algorithm from
   {!Dq.Registry}, each on its own heap) behind one enqueue/dequeue API:

   - routing: a stream id (producer id / partition key) is pinned to one
     shard ({!Routing}), preserving per-producer FIFO order;
   - one gate: every per-stream operation checks Serving and the
     stream's shard quarantine once, then makes one {!Shard} call;
   - batching: [enqueue_batch]/[dequeue_batch] amortize the queue's
     one-fence-per-operation persist cost to one fence per batch per
     shard ({!Nvm.Heap.with_batched_fences});
   - backpressure: per-shard bounded depth, kept by {!Shard}, with
     caller-visible {!Backpressure.verdict}s — [Overflow] at the bound,
     [Retry] while a crash recovery is in progress;
   - recovery: {!Recovery.crash_and_recover} quiesces the service,
     snapshots every shard's NVM image and runs each shard's one
     recovery procedure, in parallel across shards; its verdict owns the
     shard's quarantine ({!record_recovery});
   - durability levels: each stream publishes at an acks level, which
     {!Shard.enqueue} maps onto one of two queue tiers per shard —
     acks=all-synced onto the strict queue (durable before the enqueue
     returns, today's default), acks=none/leader onto the buffered
     group-commit tier ({!Dq.Buffered_q}), leader additionally joining
     the drain of any commit its enqueue trips (bounded durability lag,
     producer paced to the device) where none is fire-and-forget until
     [sync_stream]/[sync_all].  A stream once placed on the buffered
     tier stays there at every level, so a level may change at any
     time without reordering the stream.

   Durable linearizability composes: each shard is durably linearizable
   on its own heap, shards share no NVM state, and every stream's
   operations are confined to one shard — so per-stream histories remain
   durably linearizable FIFO histories, which is the broker's contract
   (a global total FIFO across independent producers is deliberately not
   promised; no sharded system can give one without re-serializing). *)

type state = Serving | Recovering

(* Why a shard is out of service.  The two ways in have one way out
   each: {!clear_quarantine} lifts a drill, and only a passing recovery
   lifts a failed one ({!record_recovery}). *)
type quarantine =
  | Clear
  | Drill of string  (* an operator's drill *)
  | Failed of string  (* the shard's last recovery failed *)

type acks = Shard.acks = Acks_none | Acks_leader | Acks_all_synced

let acks_name = function
  | Acks_none -> "none"
  | Acks_leader -> "leader"
  | Acks_all_synced -> "all-synced"

let acks_of_name = function
  | "none" -> Acks_none
  | "leader" -> Acks_leader
  | "all-synced" -> Acks_all_synced
  | s ->
      invalid_arg
        (Printf.sprintf
           "Service.acks_of_name: %S (expected none|leader|all-synced)" s)

type t = {
  entry : Dq.Registry.entry;
  shards : Shard.t array;
  routing : Routing.t;
  state : state Atomic.t;
  cursor : int Atomic.t;  (* rotation start for dequeue_any sweeps *)
  quarantined : quarantine Atomic.t array;
      (* per shard.  Operations on a quarantined shard answer
         Unavailable instead of touching it; new Round_robin streams
         route around it (the {!Routing} availability mask is kept in
         lockstep, under [quarantine_mu]). *)
  quarantine_mu : Mutex.t;
  offsets : Offsets.t option;
      (* per-shard commit offsets (durable, on the shard heaps) and dedup
         index (volatile) backing [enqueue_once]/[dequeue_committed];
         [None] unless requested at [create] *)
  combining : bool;
      (* shards carry the flat-combining enqueue front-end
         ({!Dq.Combining_q}): announced enqueues are applied by an
         elected combiner as single-fence batches with a pipelined
         drain *)
  default_acks : acks;
  stream_acks : (int, acks) Hashtbl.t;  (* overrides; under [acks_mu] *)
  placed : (int, unit) Hashtbl.t;
      (* streams placed on the buffered tier, for good; under [acks_mu] *)
  acks_mu : Mutex.t;
}

let default_depth_bound = 1 lsl 20

let create ?(algorithm = "OptUnlinkedQ") ?(shards = 4)
    ?(policy = Routing.Round_robin) ?(depth_bound = default_depth_bound)
    ?(mode = Nvm.Heap.Checked) ?(latency = Nvm.Latency.off) ?(offsets = false)
    ?(combining = false) ?(acks = Acks_all_synced) ?buffered () =
  let entry = Dq.Registry.find algorithm in
  (* The buffered tier is provisioned whenever any stream could need it:
     by default exactly when the service-wide level is weaker than
     all-synced, overridable to provision it for per-stream opt-ins on
     an otherwise strict service. *)
  let buffered =
    match buffered with Some b -> b | None -> acks <> Acks_all_synced
  in
  if acks <> Acks_all_synced && not buffered then
    invalid_arg
      (Printf.sprintf
         "Service.create: acks=%s requires the buffered tier \
          (~buffered:true)"
         (acks_name acks));
  let shard_arr =
    Shard.create_all ~entry ~n:shards ~depth_bound ~mode ~latency ~combining
      ~buffered
  in
  {
    entry;
    shards = shard_arr;
    routing = Routing.create policy ~shards;
    state = Atomic.make Serving;
    cursor = Atomic.make 0;
    quarantined = Array.init shards (fun _ -> Atomic.make Clear);
    quarantine_mu = Mutex.create ();
    offsets =
      (if offsets then
         Some (Offsets.create ~heaps:(Array.map Shard.heap shard_arr) ())
       else None);
    combining;
    default_acks = acks;
    stream_acks = Hashtbl.create 64;
    placed = Hashtbl.create 64;
    acks_mu = Mutex.create ();
  }

let algorithm t = t.entry.Dq.Registry.name
let combining t = t.combining

let buffered_tier t =
  Array.length t.shards > 0 && Shard.buffered t.shards.(0) <> None

(* -- Durability levels ------------------------------------------------------- *)

let level_locked t ~stream =
  match Hashtbl.find_opt t.stream_acks stream with
  | Some l -> l
  | None -> t.default_acks

let stream_acks t ~stream =
  Mutex.lock t.acks_mu;
  let level = level_locked t ~stream in
  Mutex.unlock t.acks_mu;
  level

(* An enqueue's level, and whether its stream was already placed on the
   buffered tier ({!Shard.enqueue}'s [on_buffered]).  A weak level places
   the stream before its items are sent there, so every enqueue of the
   stream that starts after this one returns finds it placed.  An
   enqueue the shard then refuses leaves the stream placed, which only
   errs toward the tier that drains second. *)
let placement t ~stream =
  Mutex.lock t.acks_mu;
  let level = level_locked t ~stream in
  let placed = Hashtbl.mem t.placed stream in
  if level <> Acks_all_synced && not placed then
    Hashtbl.add t.placed stream ();
  Mutex.unlock t.acks_mu;
  (level, placed)

let placed t ~stream =
  Mutex.lock t.acks_mu;
  let placed = Hashtbl.mem t.placed stream in
  Mutex.unlock t.acks_mu;
  placed

let set_stream_acks t ~stream level =
  if level <> Acks_all_synced && not (buffered_tier t) then
    invalid_arg
      (Printf.sprintf
         "Service.set_stream_acks: acks=%s but the service has no buffered \
          tier (create with ~buffered:true)"
         (acks_name level));
  Mutex.lock t.acks_mu;
  if level = t.default_acks then Hashtbl.remove t.stream_acks stream
  else Hashtbl.replace t.stream_acks stream level;
  Mutex.unlock t.acks_mu

let offsets t = t.offsets
let shards t = t.shards
let routing t = t.routing
let state t = Atomic.get t.state
let shard_of_stream t ~stream = Routing.shard_for t.routing ~stream

(* Quiesce/resume around recovery: operations arriving while Recovering
   observe Retry instead of touching a half-recovered shard. *)
let quiesce t = Atomic.set t.state Recovering
let resume t = Atomic.set t.state Serving

let serving t = Atomic.get t.state = Serving

(* -- Quarantine ------------------------------------------------------------- *)

(* Degraded service instead of whole-broker failure: a shard whose
   recovery failed, or one an operator drills, is fenced off.  Its
   pinned streams observe a distinct Unavailable verdict and new streams
   route around it.  A drill never overwrites a failed recovery, so an
   operator cannot lift what only a passing recovery may. *)

let clear = function Clear -> true | Drill _ | Failed _ -> false
let live t s = clear (Atomic.get t.quarantined.(s))

(* One transition of a shard's slot, with the routing mask kept in
   step; returns what [f] reports. *)
let transition t ~shard f =
  Mutex.protect t.quarantine_mu (fun () ->
      let q, r = f (Atomic.get t.quarantined.(shard)) in
      Atomic.set t.quarantined.(shard) q;
      Routing.set_available t.routing ~shard (clear q);
      r)

let quarantine t ~shard ~reason =
  transition t ~shard (function
    | Failed _ as q -> (q, ())
    | Clear | Drill _ -> (Drill reason, ()))

let clear_quarantine t ~shard =
  transition t ~shard (function
    | Drill _ -> (Clear, Ok ())
    | Clear -> (Clear, Error (Printf.sprintf "shard %d is not quarantined" shard))
    | Failed reason as q ->
        (q, Error (Printf.sprintf "shard %d: recovery failed: %s" shard reason)))

let record_recovery t ~shard verdict =
  transition t ~shard (fun q ->
      match (verdict, q) with
      | Error reason, _ -> (Failed reason, ())
      | Ok (), Failed _ -> (Clear, ())
      | Ok (), q -> (q, ()))

let shard_quarantined t ~shard = not (live t shard)

let quarantined_shards t =
  List.filter
    (fun shard -> shard_quarantined t ~shard)
    (List.init (Array.length t.shards) Fun.id)

(* -- The gate ---------------------------------------------------------------- *)

(* Every per-stream operation passes here first: [Retry] while
   recovering, [Unavailable] when the stream's shard is quarantined,
   else the shard's index. *)
let gate t ~stream : (int, Backpressure.verdict) result =
  if not (serving t) then Error Backpressure.Retry
  else
    let s = Routing.shard_for t.routing ~stream in
    if live t s then Ok s else Error Backpressure.Unavailable

(* -- Enqueue ----------------------------------------------------------------- *)

(* The stream's level and placement go to its shard, and {!Shard.enqueue}
   takes the room and picks the tier.  The accepted prefix is enqueued in
   stream order; the rest is reported via the verdict. *)
let shard_enqueue t ~shard ~stream items =
  let acks, on_buffered = placement t ~stream in
  Shard.enqueue t.shards.(shard) ~acks ~on_buffered items

let enqueue_batch t ~stream items : int * Backpressure.verdict =
  match gate t ~stream with
  | Error v -> (0, v)
  | Ok s ->
      let k = shard_enqueue t ~shard:s ~stream items in
      ( k,
        if k = List.length items then Backpressure.Accepted
        else Backpressure.Overflow )

let enqueue t ~stream item = snd (enqueue_batch t ~stream [ item ])

(* -- Dequeue ----------------------------------------------------------------- *)

type deq_result = Item of int | Empty | Busy | Unavailable

let dequeue t ~stream : deq_result =
  match gate t ~stream with
  | Error Backpressure.Retry -> Busy
  | Error _ -> Unavailable
  | Ok s -> (
      match Shard.dequeue t.shards.(s) with Some v -> Item v | None -> Empty)

(* Consume from any shard: sweep from a rotating cursor so concurrent
   consumers spread over the shards instead of convoying on shard 0.
   Quarantined shards are skipped — their contents wait for re-admission. *)
let dequeue_any t : deq_result =
  if not (serving t) then Busy
  else begin
    let n = Array.length t.shards in
    let start = Atomic.fetch_and_add t.cursor 1 in
    let rec sweep i =
      if i = n then Empty
      else
        let si = (start + i) mod n in
        if not (live t si) then sweep (i + 1)
        else
          match Shard.dequeue t.shards.(si) with
          | Some v -> Item v
          | None -> sweep (i + 1)
    in
    sweep 0
  end

(* -- Exactly-once composition ------------------------------------------------ *)

(* Items carry their own (producer, seq) identity — the encoding of
   {!Spec.Durable_check} — so the offset maps need no side channel.

   [enqueue_once] orders its three steps check-fresh -> enqueue -> raise
   the index, and writes nothing besides the item: the dedup index is
   volatile, and recovery derives it per shard from what survived, the
   sequences the shard still holds and every group's durable commit
   offset ({!Offsets.recover}).  Raising the index before the enqueue
   would make the retry of a refused item read Duplicate.  The crash
   cases, at every acks level:

   1. a retry of an item the shard still holds reads Duplicate, so the
      uniqueness check never sees two copies;
   2. a retry of an item consumed through [dequeue_committed] reads
      Duplicate: its commit was durable before the item was returned;
   3. a retry of an item that no crash image kept and no group
      committed is accepted and delivered once.  At all-synced this
      can only be a publish that had not returned; at a buffered level
      it is also one its group commit had not covered;
   4. an item whose dequeue persisted but whose commit did not is
      re-accepted and delivered: [dequeue_committed] never returned it.

   Exactly-once holds for items consumed with [dequeue_committed].  A
   plain [dequeue] leaves no commit, so a crash after it lets the
   item's retry in again. *)

let require_offsets t fn =
  match t.offsets with
  | Some off -> off
  | None ->
      invalid_arg
        (Printf.sprintf "Service.%s: service created without ~offsets:true" fn)

type once_result = Enqueued | Duplicate | Rejected of Backpressure.verdict

let enqueue_once t ~stream item : once_result =
  let off = require_offsets t "enqueue_once" in
  match gate t ~stream with
  | Error v -> Rejected v
  | Ok s ->
      let producer = Spec.Durable_check.producer_of item in
      let seq = Spec.Durable_check.seq_of item in
      if seq <= Offsets.last_published off ~shard:s ~producer then Duplicate
      else if shard_enqueue t ~shard:s ~stream [ item ] = 0 then
        Rejected Backpressure.Overflow
      else begin
        Offsets.raise_published off ~shard:s ~producer ~seq;
        Enqueued
      end

(* Deliver the stream's next uncommitted item to [group], advancing the
   group's durable commit offset before returning it.  Items at or
   below the commit offset are dequeued and dropped without delivery:
   a buffered dequeue that a crash undid puts its item back.  The
   commit is durable before the caller sees the item, so a crash never
   re-delivers an already-returned sequence to the same group, and the
   recovered dedup index covers it (case 2 above). *)
let rec dequeue_committed t ~stream ~group : deq_result =
  let off = require_offsets t "dequeue_committed" in
  match dequeue t ~stream with
  | Item v ->
      let s = Routing.shard_for t.routing ~stream in
      let producer = Spec.Durable_check.producer_of v in
      let seq = Spec.Durable_check.seq_of v in
      if seq <= Offsets.committed off ~shard:s ~group ~producer then
        dequeue_committed t ~stream ~group
      else begin
        Offsets.commit off ~shard:s ~group ~producer ~seq;
        Item v
      end
  | other -> other

(* -- Batched dequeue --------------------------------------------------------- *)

type deq_batch = Items of int list | Busy_batch | Unavailable_batch

let dequeue_batch t ~stream ~max : deq_batch =
  match gate t ~stream with
  | Error Backpressure.Retry -> Busy_batch
  | Error _ -> Unavailable_batch
  | Ok s -> Items (Shard.dequeue_batch t.shards.(s) ~max)

(* -- Sync boundaries --------------------------------------------------------- *)

(* The explicit persistence boundary for buffered streams: on Accepted,
   every operation the stream completed before the call survives any
   later crash.  A no-op (Accepted) for a stream never placed on the
   buffered tier: its enqueues were durable at return, and so were the
   strict dequeues of its items.  Committing the shard's tier anyway
   would be a group commit and a joined drain for other streams. *)
let sync_stream t ~stream : Backpressure.verdict =
  match gate t ~stream with
  | Error v -> v
  | Ok s ->
      if placed t ~stream then Shard.sync t.shards.(s);
      Backpressure.Accepted

(* Commit every live shard's buffered tier; quarantined shards are
   skipped (their heaps wait for re-admission, like every other
   operation). *)
let sync_all t =
  Array.iteri
    (fun s shard ->
      if live t s then Shard.sync shard)
    t.shards

(* -- Introspection ----------------------------------------------------------- *)

let durability_lags t = Array.map Shard.durability_lag t.shards

let total_durability_lag t =
  Array.fold_left (fun acc s -> acc + Shard.durability_lag s) 0 t.shards

let to_lists t = Array.map Shard.to_list t.shards
let depths t = Array.map Shard.depth t.shards

let total_depth t =
  Array.fold_left (fun acc s -> acc + Shard.depth s) 0 t.shards
