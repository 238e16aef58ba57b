(* The open-loop driver: one producer (the main domain) and one consumer
   domain against the real broker stack, timing every op from its due
   time.

   The set-up (the schedule and per-op stamp arrays, the service and its
   heaps, stream pins, admission tenants, a warmup op per shard and tier
   and, on open-loop workloads, the consumer domain) runs [setups] times
   in a row; set-up time is their median and the last one runs the
   window.  The window opens with every first-touch cost paid: a
   domain's first op on a heap allocates its designated area, and that
   clump would otherwise land on the head of the schedule as a synthetic
   tail.  The GC runs with default settings throughout: collection is
   part of what an op costs. *)

module S = Broker.Service
module A = Broker.Admission
module W = Workload

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let alloc (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words
let setups = 9
let shards = 2

type recovery = {
  wall_ms : float;  (* Recovery.report.wall_ms: spawn, recover, validate *)
  shard_ms : float array;
  scanned : int;  (* node regions scanned, all shards *)
  replayed : int;  (* items replayed from checkpoint images *)
  quarantined : int;
  sim_ms : float;  (* the simulated crash image, outside wall_ms *)
}

type result = {
  w : W.t;
  load_s : float;  (* offered schedule length *)
  setup_s : float array;
  ops : Ops.t;
  shard_of_op : int array;
  delivered : int;
  elapsed_s : float;  (* window open -> drain end *)
  cpu_s : float;  (* process user + sys over the same span *)
  minor_gcs : int;
  major_gcs : int;
  alloc_words : float;
  polls : int;
  empty_polls : int;
  backlog_max : int;
  lag_max : int;
  totals : A.row option;
  demoted : int;
  census : Broker.Census.per_op;
  device_busy : float array;  (* per shard: device service time / elapsed *)
  fences : int;  (* window spans, setup excluded *)
  commits : int;
  map_fences : int;
  duplicates : int;
  ckpt_ms : float array;  (* checkpoint ticks that checkpointed *)
  ckpt_retired : int;
  live_regions_max : int;
  recoveries : recovery array;
  errors : string list;
  t0 : float;
  drain : float array;  (* traced: device drain inside each producer call *)
  bufs : Trace.buf list;  (* traced: producer, consumer *)
}

(* -- Shared set-up ------------------------------------------------------- *)

type world = {
  w : W.t;
  svc : S.t;
  adm : A.t option;
  ops : Ops.t;
  log : int array;  (* delivered values, in delivery order *)
  pbuf : Trace.buf option;
  cbuf : Trace.buf option;
}

let crash_cycles (w : W.t) = w.kind = W.Crash_cycles

(* The schedule, the per-op stamps and trace buffers, then the broker:
   service, heaps, stream pins, admission tenants and the commit
   stamping hooks. *)
let create_world (w : W.t) ~seed ~seconds ~trace =
  let ops = Ops.create (W.plan w ~seed ~seconds) in
  let buf k = if trace then Some (Trace.buf ~cap:((k * ops.n) + 4096)) else None in
  let mode = if crash_cycles w then Nvm.Heap.Checked else Nvm.Heap.Fast in
  let svc =
    S.create ~algorithm:"OptUnlinkedQ" ~shards ~policy:Broker.Routing.Round_robin
      ~mode ~latency:Nvm.Latency.dimm_wall ~offsets:(crash_cycles w)
      ~buffered:true ()
  in
  List.iter
    (fun stream ->
      ignore (S.shard_of_stream svc ~stream);
      if crash_cycles w && W.stream_acks w stream <> S.Acks_all_synced then
        S.set_stream_acks svc ~stream (W.stream_acks w stream))
    (W.streams w);
  for tier = 0 to 1 do
    for shard = 0 to shards - 1 do
      let stream = W.warmup_stream ~tier ~shard in
      ignore (S.shard_of_stream svc ~stream);
      if tier = 1 then S.set_stream_acks svc ~stream S.Acks_leader
    done
  done;
  let adm =
    if crash_cycles w then None
    else begin
      let adm = A.create svc in
      List.iteri
        (fun ti (t : W.tenant) ->
          A.set_tenant adm ~tenant:ti
            {
              A.rate_hz = t.quota_hz;
              burst = t.quota_burst;
              acks = t.acks;
              deadline_s = t.deadline_s;
            })
        w.tenants;
      Some adm
    end
  in
  Array.iter
    (fun sh -> Option.iter (Ops.stamp_commits ops) (Broker.Shard.buffered sh))
    (S.shards svc);
  { w; svc; adm; ops; log = Array.make ops.n 0; pbuf = buf 4; cbuf = buf 8 }

(* One sentinel op per shard and tier, outside the schedule. *)
let warmup_values () =
  List.concat_map
    (fun tier ->
      List.init shards (fun shard ->
          let stream = W.warmup_stream ~tier ~shard in
          (stream, Spec.Durable_check.encode ~producer:stream ~seq:1)))
    [ 0; 1 ]

(* Window bookkeeping shared by both drivers. *)
type window = { gc0 : Gc.stat; cpu0 : float; commits0 : int }

let total_commits svc =
  Array.fold_left
    (fun acc sh ->
      match Broker.Shard.buffered sh with
      | Some b -> acc + (Dq.Buffered_q.stats b).Dq.Buffered_q.s_commits
      | None -> acc)
    0 (S.shards svc)

(* Quiescent: only the main domain is running. *)
let open_window wd =
  Array.iter
    (fun sh -> Nvm.Span.reset_closed (Nvm.Heap.spans (Broker.Shard.heap sh)))
    (S.shards wd.svc);
  if wd.pbuf <> None then Trace.install wd.svc;
  Option.iter Trace.attach wd.pbuf;
  {
    gc0 = Gc.quick_stat ();
    cpu0 = cpu_now ();
    commits0 = total_commits wd.svc;
  }

let lag svc = Array.fold_left max 0 (S.durability_lags svc)

(* -- Consumer -------------------------------------------------------------- *)

type flags = {
  ready : bool Atomic.t;  (* the consumer is warm *)
  go : bool Atomic.t;  (* the window is open *)
  finish : bool Atomic.t;  (* the producer is done *)
  admitted : int Atomic.t;
}

(* [admitted] counts from the start of the window (crash cycles share
   one), so the backlog the consumer samples spans cycles. *)
let flags ?(admitted = Atomic.make 0) () =
  {
    ready = Atomic.make false;
    go = Atomic.make false;
    finish = Atomic.make false;
    admitted;
  }

let stop fl = Atomic.set fl.finish true

(* The driver's own waits are naps of at most [nap_s].  On a shared VM
   one long sleep woke 10-70 us late, depending on what else the host
   ran, and every latency carried that; naps this short woke within a
   few microseconds.  Spinning instead slowed the broker's own work
   (the device drains, which sleep) by 30%. *)
let nap_s = 0.00005

let nap_until t =
  let rec go () =
    let d = t -. now () in
    if d > 0. then begin
      Unix.sleepf (Float.min d nap_s);
      go ()
    end
  in
  go ()

(* The consumer polls the broker's depth gauge, an atomic read, and
   dequeues only when it is non-zero: an empty poll pays no fence.  It
   sees an item as soon as the enqueue publishes it, which may be
   before the producer's drain ends. *)
let await fl svc =
  while S.total_depth svc = 0 && not (Atomic.get fl.finish) do
    Unix.sleepf nap_s
  done

type cstats = {
  c_polls : int;
  c_empty : int;
  c_backlog_max : int;
  c_delivered : int;  (* log cursor after the call *)
}

(* The consumer loop.  [dequeue] is the call under test; delivered ops
   are stamped and logged from [from].  With [~drain:false] it stops as
   soon as the producer is done (a crash slice quiesces mid-backlog);
   with [~drain:true] it first empties the service. *)
let consume wd fl ~from ~drain ~dequeue =
  let ops = wd.ops in
  let k = ref from and polls = ref 0 and empty = ref 0 and backlog = ref 0 in
  let fin = ref false in
  while not !fin do
    await fl wd.svc;
    if Atomic.get fl.finish && ((not drain) || S.total_depth wd.svc = 0) then
      fin := true
    else begin
      let mark = match wd.cbuf with Some b -> b.Trace.len | None -> 0 in
      let s = now () in
      let r = dequeue () in
      let a = now () in
      incr polls;
      match r with
      | S.Item v ->
          let i = Ops.find ops v in
          if i >= 0 then begin
            ops.deq_start.(i) <- s;
            ops.deliver.(i) <- a;
            wd.log.(!k) <- v;
            incr k;
            backlog := max !backlog (Atomic.get fl.admitted - !k);
            Option.iter (fun b -> Trace.adopt b ~mark ~op:i) wd.cbuf
          end
          else Option.iter (fun b -> Trace.discard b ~mark) wd.cbuf
      | S.Empty | S.Busy | S.Unavailable ->
          (* The gauge runs ahead of an enqueue still in flight. *)
          if r = S.Empty then incr empty;
          Option.iter (fun b -> Trace.discard b ~mark) wd.cbuf;
          if Atomic.get fl.finish && r = S.Empty then fin := true
          else Unix.sleepf nap_s
    end
  done;
  {
    c_polls = !polls;
    c_empty = !empty;
    c_backlog_max = !backlog;
    c_delivered = !k;
  }

let spin_until flag =
  while not (Atomic.get flag) do
    Unix.sleepf 0.0002
  done

(* Spawn the consumer and return once it is warm; it starts consuming
   when [fl.go] is set. *)
let spawn_consumer wd fl ?(warm = ignore) ~from ~drain dequeue =
  let d =
    Domain.spawn (fun () ->
        Option.iter Trace.attach wd.cbuf;
        warm ();
        Atomic.set fl.ready true;
        spin_until fl.go;
        consume wd fl ~from ~drain ~dequeue)
  in
  spin_until fl.ready;
  d

(* Stop a consumer that never saw the window open. *)
let retire fl d =
  stop fl;
  Atomic.set fl.go true;
  ignore (Domain.join d)

(* -- Producer call ----------------------------------------------------------- *)

(* Nap to the op's due time (never earlier: open loop), call, stamp. *)
let produce wd ~drain i ~due call =
  let ops = wd.ops in
  ops.due.(i) <- due;
  nap_until due;
  let mark =
    match wd.pbuf with
    | Some b ->
        b.Trace.cur <- i;
        b.Trace.len
    | None -> 0
  in
  let s = now () in
  let o = call () in
  let a = now () in
  ops.start.(i) <- s;
  ops.ack.(i) <- a;
  ops.outcome.(i) <- o;
  if o = Ops.strict then ops.durable.(i) <- a;
  Option.iter
    (fun b ->
      drain.(i) <- Trace.drain_since b ~mark;
      b.Trace.cur <- -1)
    wd.pbuf

let outcome_of = function
  | A.Admitted S.Acks_all_synced -> Ops.strict
  | A.Admitted (S.Acks_leader | S.Acks_none) -> Ops.buffered
  | A.Shed A.Quota_exceeded -> Ops.shed_quota
  | A.Shed A.Deadline_exceeded -> Ops.shed_deadline
  | A.Shed (A.Overloaded _) -> Ops.shed_overload
  | A.Rejected _ -> Ops.rejected

(* -- Results ------------------------------------------------------------------ *)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  Load.Metrics.percentile a 50.

let audit svc errors =
  match Broker.Census.strict_audit svc with
  | Ok () -> ()
  | Error e -> errors := ("strict audit: " ^ e) :: !errors

let check_delivery wd ~delivered errors =
  let ops = wd.ops in
  let admitted = ref [] and undurable = ref 0 in
  for i = ops.n - 1 downto 0 do
    if Ops.admitted ops.outcome.(i) then begin
      admitted := ops.value.(i) :: !admitted;
      if ops.durable.(i) = 0. then incr undurable
    end
  done;
  (match
     Check.delivery ~admitted:!admitted
       ~delivered:(Array.to_list (Array.sub wd.log 0 delivered))
   with
  | Ok () -> ()
  | Error e -> errors := ("delivery: " ^ e) :: !errors);
  if !undurable > 0 then
    errors := Printf.sprintf "%d admitted ops never became durable" !undurable :: !errors

(* What the window cost, read as soon as the drain ends: the checks
   that follow are not part of it. *)
type closed = {
  elapsed_s : float;
  cpu_s : float;
  minor_gcs : int;
  major_gcs : int;
  alloc_words : float;
  aggs : Nvm.Span.agg list array;  (* per shard, window spans only *)
  commits : int;
}

(* Runtime cost of a stretch of the window that its metrics leave out
   (crash recoveries: recover_* times them, and the crash image is the
   simulator's own work). *)
type cost = { c_cpu : float; c_minor : int; c_major : int; c_alloc : float }

let no_cost = { c_cpu = 0.; c_minor = 0; c_major = 0; c_alloc = 0. }

let costing acc f =
  let c0 = cpu_now () and g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  acc :=
    {
      c_cpu = !acc.c_cpu +. cpu_now () -. c0;
      c_minor = !acc.c_minor + g1.minor_collections - g0.minor_collections;
      c_major = !acc.c_major + g1.major_collections - g0.major_collections;
      c_alloc = !acc.c_alloc +. alloc g1 -. alloc g0;
    };
  r

let close_window ?(excluded = no_cost) wd (win : window) ~t0 =
  let gc = Gc.quick_stat () in
  {
    elapsed_s = now () -. t0;
    cpu_s = cpu_now () -. win.cpu0 -. excluded.c_cpu;
    minor_gcs = gc.minor_collections - win.gc0.minor_collections - excluded.c_minor;
    major_gcs = gc.major_collections - win.gc0.major_collections - excluded.c_major;
    alloc_words = alloc gc -. alloc win.gc0 -. excluded.c_alloc;
    aggs =
      Array.map
        (fun sh -> Nvm.Span.aggregates (Nvm.Heap.spans (Broker.Shard.heap sh)))
        (S.shards wd.svc);
    commits = total_commits wd.svc - win.commits0;
  }

let sum_aggs aggs ~keep f =
  List.fold_left
    (fun acc (a : Nvm.Span.agg) -> if keep a.Nvm.Span.agg_label then acc + f a.Nvm.Span.sum else acc)
    0 aggs

(* Setup spans (designated-area zeroing) cost no device time under
   dimm_wall; everything else drained what it flushed. *)
let not_setup label = not (String.length label >= 6 && String.sub label 0 6 = "setup:")

let finish wd ~(cl : closed) ~t0 ~setup_s ~seconds
    ~(cs : cstats list) ~drain ~lag_max ~duplicates ~ckpt_ms ~ckpt_retired
    ~live_regions_max ~recoveries ~errors =
  let svc = wd.svc and ops = wd.ops in
  let aggs = Nvm.Span.merge_aggregates (List.concat (Array.to_list cl.aggs)) in
  let fences (c : Nvm.Stats.counters) = c.fences in
  let delivered = List.fold_left (fun m c -> max m c.c_delivered) 0 cs in
  {
    w = wd.w;
    load_s = W.load_seconds wd.w ~seconds;
    setup_s;
    ops;
    shard_of_op = Array.map (fun stream -> S.shard_of_stream svc ~stream) ops.stream;
    delivered;
    elapsed_s = cl.elapsed_s;
    cpu_s = cl.cpu_s;
    minor_gcs = cl.minor_gcs;
    major_gcs = cl.major_gcs;
    alloc_words = cl.alloc_words;
    polls = List.fold_left (fun a c -> a + c.c_polls) 0 cs;
    empty_polls = List.fold_left (fun a c -> a + c.c_empty) 0 cs;
    backlog_max = List.fold_left (fun a c -> max a c.c_backlog_max) 0 cs;
    lag_max;
    totals = Option.map A.totals wd.adm;
    demoted = (match wd.adm with Some a -> List.length (A.demoted_streams a) | None -> 0);
    census = Broker.Census.per_op_of_aggregates aggs;
    device_busy =
      Array.map
        (fun a ->
          let c = Nvm.Stats.zero () in
          List.iter
            (fun (x : Nvm.Span.agg) -> if not_setup x.agg_label then Nvm.Stats.add c x.sum)
            a;
          Trace.device_s ~flushes:c.flushes ~movntis:c.movntis /. cl.elapsed_s)
        cl.aggs;
    fences = sum_aggs aggs ~keep:not_setup fences;
    commits = cl.commits;
    map_fences =
      sum_aggs aggs ~keep:(fun l -> List.mem l Dset.Instrumented.op_labels) fences;
    duplicates;
    ckpt_ms;
    ckpt_retired;
    live_regions_max;
    recoveries;
    errors = List.rev errors;
    t0;
    drain;
    bufs = List.filter_map Fun.id [ wd.pbuf; wd.cbuf ];
  }

(* Tear down everything the trace attached before crashes spawn
   recovery domains. *)
let close_trace wd =
  if wd.pbuf <> None then Trace.uninstall wd.svc;
  Domain.DLS.set Trace.key None

(* [setups] set-ups in a row; returns the last one and every set-up's
   time.  Each discarded set-up is torn down and its garbage collected
   outside the timing, so every set-up starts from a heap as clean as a
   fresh process's. *)
let set_up ~discard f =
  let times = Array.make setups 0. in
  let rec go k =
    let t = now () in
    let x = f () in
    times.(k) <- now () -. t;
    if k = setups - 1 then (x, times)
    else begin
      discard x;
      Gc.full_major ();
      go (k + 1)
    end
  in
  go 0

(* -- Open-loop workloads -------------------------------------------------------- *)

(* The consumer is spawned here and first takes the warmup ops. *)
let setup_open (w : W.t) ~seed ~seconds ~trace () =
  let wd = create_world w ~seed ~seconds ~trace in
  List.iter (fun (stream, v) -> ignore (S.enqueue wd.svc ~stream v)) (warmup_values ());
  S.sync_all wd.svc;
  let fl = flags () in
  let warm () =
    let got = ref 0 in
    while !got < List.length (warmup_values ()) do
      match S.dequeue_any wd.svc with
      | S.Item _ -> incr got
      | _ -> Unix.sleepf nap_s
    done
  in
  let d =
    spawn_consumer wd fl ~warm ~from:0 ~drain:true (fun () -> S.dequeue_any wd.svc)
  in
  (wd, fl, d)

let run_open (wd, fl, d) ~setup_s ~seconds ~trace =
  let adm = Option.get wd.adm in
  let ops = wd.ops in
  let drain = Array.make (if trace then ops.n else 0) 0. in
  let win = open_window wd in
  let t0 = now () +. 0.001 in
  Atomic.set fl.go true;
  let lag_max = ref 0 in
  for i = 0 to ops.n - 1 do
    produce wd ~drain i ~due:(t0 +. ops.offset.(i)) (fun () ->
        outcome_of
          (A.enqueue adm ~tenant:ops.tenant.(i) ~stream:ops.stream.(i)
             ~arrival:ops.due.(i) ops.value.(i)));
    if Ops.admitted ops.outcome.(i) then Atomic.incr fl.admitted;
    lag_max := max !lag_max (lag wd.svc)
  done;
  (* Close the durability window (stamps the last leader ops), then let
     the consumer drain the backlog and stop. *)
  S.sync_all wd.svc;
  stop fl;
  let cs = Domain.join d in
  let cl = close_window wd win ~t0 in
  close_trace wd;
  let errors = ref [] in
  audit wd.svc errors;
  check_delivery wd ~delivered:cs.c_delivered errors;
  finish wd ~cl ~t0 ~setup_s ~seconds ~cs:[ cs ] ~drain
    ~lag_max:!lag_max ~duplicates:0 ~ckpt_ms:[||]
    ~ckpt_retired:0 ~live_regions_max:0 ~recoveries:[||] ~errors:!errors

(* -- Crash cycles ------------------------------------------------------------------ *)

(* Crash recovery runs the shards one after another on a single
   recovery domain.  On a 2-core host two recovery domains are slower,
   not faster: recovery allocates (the buffered tier rebuilds its
   mirror), every minor collection stops both domains, and the pair took
   1.6-2x as long with twice the run-to-run spread. *)
let recovery_domains = 1

(* One shard's consumer cursor: dequeue_committed reads the head of the
   stream's shard, so one pinned stream per shard names the shard. *)
let shard_streams (wd : world) =
  Array.init shards (fun s ->
      List.find (fun stream -> S.shard_of_stream wd.svc ~stream = s) (W.streams wd.w))

(* No consumer here: each load slice spawns its own. *)
let setup_crash (w : W.t) ~seed ~seconds ~trace () =
  let wd = create_world w ~seed ~seconds ~trace in
  List.iter
    (fun (stream, v) -> ignore (S.enqueue_once wd.svc ~stream v))
    (warmup_values ());
  List.iter
    (fun (stream, _) -> ignore (S.dequeue_committed wd.svc ~stream ~group:1))
    (warmup_values ());
  S.sync_all wd.svc;
  wd

let run_crash wd ~setup_s ~seed ~seconds ~trace =
  let w = wd.w and ops = wd.ops and svc = wd.svc in
  let drain = Array.make (if trace then ops.n else 0) 0. in
  let by_shard = shard_streams wd in
  let leaders = List.filter (fun s -> W.stream_acks w s <> S.Acks_all_synced) (W.streams w) in
  let sched = Broker.Supervisor.scheduler svc in
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let cycles = W.cycles ~seconds in
  let duplicates = ref 0 in
  let ckpt_ms = ref [] and ckpt_retired = ref 0 and live_max = ref 0 in
  let recoveries = ref [] and cs = ref [] and lag_max = ref 0 in
  let recovering = ref no_cost in
  let cursor = ref 0 and next = ref 0 and admitted = Atomic.make 0 in
  let recent = ref [] in
  (* Alternate shards; Empty only when both are. *)
  let turn = ref 0 in
  let rec dequeue tried =
    if tried = shards then S.Empty
    else begin
      let s = (!turn + tried) mod shards in
      match S.dequeue_committed svc ~stream:by_shard.(s) ~group:1 with
      | S.Empty -> dequeue (tried + 1)
      | r ->
          turn := s + 1;
          r
    end
  in
  let run_consumer fl ~drain =
    spawn_consumer wd fl ~from:!cursor ~drain (fun () -> dequeue 0)
  in
  let win = open_window wd in
  let t0 = now () in
  for c = 0 to cycles - 1 do
    (* A producer that lost track of its last sends across the crash
       re-sends them: the dedup index must drop every one. *)
    List.iter
      (fun i ->
        match S.enqueue_once svc ~stream:ops.stream.(i) ops.value.(i) with
        | S.Duplicate -> incr duplicates
        | _ -> err (Printf.sprintf "cycle %d: re-sent op %d was not a duplicate" c i))
      !recent;
    let fl = flags ~admitted () in
    let d = run_consumer fl ~drain:false in
    let slice0 = float_of_int c *. W.slice_s in
    let ct0 = now () +. 0.001 in
    Atomic.set fl.go true;
    let acked = ref [] in
    while !next < ops.n && ops.offset.(!next) < slice0 +. W.slice_s do
      let i = !next in
      produce wd ~drain i ~due:(ct0 +. ops.offset.(i) -. slice0) (fun () ->
          match S.enqueue_once svc ~stream:ops.stream.(i) ops.value.(i) with
          | S.Enqueued ->
              if S.stream_acks svc ~stream:ops.stream.(i) = S.Acks_all_synced
              then Ops.strict
              else Ops.buffered
          | S.Duplicate ->
              err (Printf.sprintf "fresh op %d reported as a duplicate" i);
              Ops.rejected
          | S.Rejected _ -> Ops.rejected);
      if Ops.admitted ops.outcome.(i) then begin
        Atomic.incr admitted;
        acked := i :: !acked
      end;
      lag_max := max !lag_max (lag svc);
      incr next
    done;
    recent := List.filteri (fun j _ -> j < 4) !acked;
    (* Quiesce: the crash model is a full-system power failure, so every
       application domain is gone before the plug is pulled. *)
    stop fl;
    let st = Domain.join d in
    cursor := st.c_delivered;
    cs := st :: !cs;
    List.iter (fun stream -> ignore (S.sync_stream svc ~stream)) leaders;
    let k0 = now () in
    let decisions = Broker.Supervisor.checkpoint_tick sched svc in
    let k1 = now () in
    let ran = ref false in
    Array.iter
      (function
        | Broker.Supervisor.Checkpointed r ->
            ran := true;
            ckpt_retired := !ckpt_retired + r.Dq.Checkpoint.r_retired
        | Broker.Supervisor.Skipped _ -> ())
      decisions;
    if !ran then ckpt_ms := ((k1 -. k0) *. 1e3) :: !ckpt_ms;
    live_max :=
      List.fold_left
        (fun m (r : Broker.Census.occupancy_row) -> max m r.o_live_regions)
        !live_max (Broker.Census.occupancy svc);
    let h0 = now () in
    let heal =
      costing recovering (fun () ->
          Broker.Supervisor.recover_and_heal ~domains:recovery_domains
            ~rng:(Random.State.make [| seed; c |])
            ~policy:Nvm.Crash.Random_evictions
            ~producer_of:Spec.Durable_check.producer_of svc)
    in
    let call_ms = (now () -. h0) *. 1e3 in
    let rep = heal.Broker.Supervisor.recovery in
    if not (Broker.Supervisor.healthy heal) then
      err (Format.asprintf "cycle %d: recovery degraded:@.%a" c Broker.Supervisor.pp heal);
    recoveries :=
      {
        wall_ms = rep.Broker.Recovery.wall_ms;
        shard_ms = Array.map (fun (s : Broker.Recovery.shard_report) -> s.recover_ms) rep.shards;
        scanned = Array.fold_left (fun a (s : Broker.Recovery.shard_report) -> a + s.scanned_regions) 0 rep.shards;
        replayed = Array.fold_left (fun a (s : Broker.Recovery.shard_report) -> a + s.replayed_items) 0 rep.shards;
        quarantined = List.length heal.newly_quarantined;
        sim_ms = call_ms -. rep.wall_ms;
      }
      :: !recoveries
  done;
  (* Final drain: everything acked across all cycles must arrive. *)
  let fl = flags ~admitted () in
  stop fl;
  let d = run_consumer fl ~drain:true in
  Atomic.set fl.go true;
  let st = Domain.join d in
  cs := st :: !cs;
  let cl = close_window ~excluded:!recovering wd win ~t0 in
  close_trace wd;
  audit svc errors;
  check_delivery wd ~delivered:st.c_delivered errors;
  finish wd ~cl ~t0 ~setup_s ~seconds ~cs:!cs ~drain
    ~lag_max:!lag_max ~duplicates:!duplicates ~ckpt_ms:(Array.of_list !ckpt_ms)
    ~ckpt_retired:!ckpt_retired ~live_regions_max:!live_max
    ~recoveries:(Array.of_list (List.rev !recoveries)) ~errors:!errors

let run (w : W.t) ~seed ~seconds ~trace =
  match w.kind with
  | W.Open_loop ->
      let world, setup_s =
        set_up
          ~discard:(fun (_, fl, d) -> retire fl d)
          (setup_open w ~seed ~seconds ~trace)
      in
      run_open world ~setup_s ~seconds ~trace
  | W.Crash_cycles ->
      let wd, setup_s = set_up ~discard:ignore (setup_crash w ~seed ~seconds ~trace) in
      run_crash wd ~setup_s ~seed ~seconds ~trace
