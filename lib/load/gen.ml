(* Open-loop multi-tenant load driver.

   The schedule is planned before any domain starts: per-tenant Poisson
   offsets (Arrivals) joined with Zipf-drawn keys, merged by arrival
   time, sequence numbers assigned per stream in schedule order.
   Producers then replay their partition against the wall clock —
   sleeping to each op's scheduled instant when ahead, carrying the
   backlog when behind — so the offered rate never adapts to the
   service.  Streams are partitioned over producers by [stream mod
   producers], which keeps every stream on one domain and its FIFO
   intact.

   Durable timestamps: strict (all-synced) admissions are durable at
   return, stamped inline.  Buffered admissions are stamped from the
   tier's commit callback — it runs with the append lock held right
   after each group commit, reads the journal values the commit just
   covered, and records them against the commit drain's deadline
   (Nvm.Heap.drain_deadline), the same op→durable bookkeeping the
   durability-lag bench uses.

   The domain lifecycle (ids, GC sizing inside every worker domain,
   rendezvous, consumers, delivery check) is {!Drive}'s. *)

type tenant = {
  t_rate_hz : float;
  t_acks : Broker.Service.acks;
  t_keyspace : int;
  t_theta : float;
  t_quota_hz : float;
  t_quota_burst : float;
  t_deadline_s : float option;
}

let tenant_default =
  {
    t_rate_hz = 1000.;
    t_acks = Broker.Service.Acks_all_synced;
    t_keyspace = 64;
    t_theta = 0.99;
    t_quota_hz = infinity;
    t_quota_burst = infinity;
    t_deadline_s = None;
  }

type config = {
  tenants : tenant list;
  bursts : Arrivals.burst list;
  duration_s : float;
  shards : int;
  producers : int;
  consumers : int;
  algorithm : string;
  latency : Nvm.Latency.config;
  depth_bound : int;
  watermarks : Broker.Admission.watermarks;
  admission : bool;
  sla_s : float;
  seed : int;
}

let config_default =
  {
    tenants = [ tenant_default ];
    bursts = [];
    duration_s = 1.0;
    shards = 2;
    producers = 2;
    consumers = 1;
    algorithm = "OptUnlinkedQ";
    latency = Nvm.Latency.dimm_wall;
    depth_bound = Broker.Service.default_depth_bound;
    watermarks = Broker.Admission.default_watermarks;
    admission = true;
    (* ~25 device slots under dimm_wall: room for Poisson clumps and
       the ~1.8 ms leader-tier commit joins that share the producer's
       shard, but tight enough that real queueing growth misses it. *)
    sla_s = 0.005;
    seed = 42;
  }

type tenant_report = {
  r_tenant : int;
  r_row : Broker.Admission.row;
  r_durable : Metrics.summary;
  r_dequeue : Metrics.summary;
}

type report = {
  rep_duration_s : float;
  rep_elapsed_s : float;
  rep_offered : int;
  rep_offered_hz : float;
  rep_admitted_hz : float;
  rep_totals : Broker.Admission.row;
  rep_tenants : tenant_report list;
  rep_shard_durable : Metrics.summary array;
  rep_durable : Metrics.summary;
  rep_strict_durable : Metrics.summary;
  rep_dequeue : Metrics.summary;
  rep_consumed : int;
  rep_demoted : int;
  rep_sla_s : float;
  rep_sla_ok : bool;
  rep_check : (unit, string) result;
}

(* One scheduled operation.  Mutated by exactly one producer domain
   (timestamps below) and read only after joining it. *)
type op = {
  o_tenant : int;
  o_stream : int;
  o_value : int;
  o_offset : float;  (* scheduled arrival, seconds from t0 *)
  mutable o_decision : Broker.Admission.decision option;
  mutable o_durable_s : float;  (* absolute; 0. = never durable *)
  mutable o_deq_s : float;  (* absolute; 0. = never consumed *)
}

(* Streams live in one flat id space: tenant * stream_space + key.
   Durable_check's producer field sits above seq_bits with tens of bits
   of headroom, so these ids round-trip the encoding untouched. *)
let stream_space = 4096

let stream_of ~tenant ~key = (tenant * stream_space) + key

(* Plan the full run: per-tenant Poisson offsets with shared bursts,
   Zipf keys, merged by arrival time, sequences per stream in schedule
   order. *)
let build_schedule cfg =
  let per_tenant =
    List.mapi
      (fun ti t ->
        if t.t_keyspace < 1 || t.t_keyspace > stream_space then
          invalid_arg "Load.Gen: t_keyspace out of range";
        let rng =
          Random.State.make
            [| Harness.Zipf.worker_seed ~seed:cfg.seed ~worker:(2 * ti) |]
        in
        let zipf =
          Harness.Zipf.create_worker ~theta:t.t_theta ~n:t.t_keyspace
            ~seed:cfg.seed
            ~worker:((2 * ti) + 1)
            ()
        in
        let offsets =
          Arrivals.plan ~rng ~rate_hz:t.t_rate_hz ~duration_s:cfg.duration_s
            ~bursts:cfg.bursts ()
        in
        Array.map
          (fun off -> (off, ti, stream_of ~tenant:ti ~key:(Harness.Zipf.draw zipf)))
          offsets)
      cfg.tenants
  in
  let all = Array.concat per_tenant in
  Array.sort (fun (a, _, _) (b, _, _) -> compare a b) all;
  let next_seq = Hashtbl.create 256 in
  Array.map
    (fun (off, ti, stream) ->
      let seq =
        match Hashtbl.find_opt next_seq stream with Some s -> s | None -> 1
      in
      Hashtbl.replace next_seq stream (seq + 1);
      {
        o_tenant = ti;
        o_stream = stream;
        o_value = Spec.Durable_check.encode ~producer:stream ~seq;
        o_offset = off;
        o_decision = None;
        o_durable_s = 0.;
        o_deq_s = 0.;
      })
    all

let summarize_ops t0 ops pick =
  Metrics.summarize
    (List.filter_map
       (fun o ->
         match pick o with
         | ts when ts > 0. -> Some (Float.max 0. (ts -. (t0 +. o.o_offset)))
         | _ -> None)
       ops)

(* The schedule origin trails the start gate, so every producer is
   awake before the first arrival is due. *)
let origin_lead_s = 0.005

let run cfg =
  if cfg.producers < 1 then invalid_arg "Load.Gen: producers < 1";
  if cfg.producers * cfg.shards > stream_space then
    invalid_arg "Load.Gen: producers * shards exceeds the warm-up streams";
  let module S = Broker.Service in
  let module A = Broker.Admission in
  Drive.prepare ~producers:cfg.producers ~consumers:cfg.consumers;
  (* The buffered tier is always provisioned: leader tenants land there,
     and so do the streams admission degrades. *)
  let service =
    S.create ~algorithm:cfg.algorithm ~shards:cfg.shards
      ~depth_bound:cfg.depth_bound ~latency:cfg.latency ~buffered:true ()
  in
  let watermarks =
    if cfg.admission then cfg.watermarks
    else
      (* Admission off: same pipeline, thresholds no load can reach. *)
      { A.yellow_depth = infinity; red_depth = infinity }
  in
  let adm = A.create ~watermarks service in
  List.iteri
    (fun ti t ->
      let quota =
        if cfg.admission then
          { A.rate_hz = t.t_quota_hz; burst = t.t_quota_burst;
            acks = t.t_acks;
            deadline_s = t.t_deadline_s }
        else A.unlimited ~acks:t.t_acks ()
      in
      A.set_tenant adm ~tenant:ti quota)
    cfg.tenants;
  let ops = build_schedule cfg in
  (* Pin streams key-major from one thread: Round_robin assignment
     becomes a pure function of the config, and each tenant's hot keys
     spread across shards. *)
  let shard_of = Hashtbl.create 256 in
  let max_keyspace =
    List.fold_left (fun m t -> max m t.t_keyspace) 0 cfg.tenants
  in
  for key = 0 to max_keyspace - 1 do
    List.iteri
      (fun ti t ->
        if key < t.t_keyspace then
          let stream = stream_of ~tenant:ti ~key in
          Hashtbl.replace shard_of stream
            (S.shard_of_stream service ~stream))
      cfg.tenants
  done;
  (* Buffered-tier durable stamping: record (journal value, drain
     deadline) per commit; resolved to ops after the run. *)
  let commit_stamps =
    Array.map
      (fun sh ->
        match Broker.Shard.buffered sh with
        | None -> ref []
        | Some b ->
            let stamps = ref [] in
            let last = ref (Dq.Buffered_q.committed_floor b) in
            Dq.Buffered_q.set_on_commit b
              (Some
                 (fun ~floor ~consumed:_ ~drain ->
                   let dl = Nvm.Heap.drain_deadline drain in
                   let dl = if dl > 0. then dl else Unix.gettimeofday () in
                   for i = !last to floor - 1 do
                     stamps := (Dq.Buffered_q.journal_value b i, dl) :: !stamps
                   done;
                   last := floor));
            stamps)
      (S.shards service)
  in
  (* Partition by stream: each stream's ops stay on one producer, in
     schedule order. *)
  let parts = Array.make cfg.producers [] in
  Array.iter
    (fun o ->
      let p = o.o_stream mod cfg.producers in
      parts.(p) <- o :: parts.(p))
    ops;
  let parts = Array.map (fun l -> Array.of_list (List.rev l)) parts in
  (* The schedule origin follows the start gate, which opens only after
     every worker domain is live AND warmed up.  Two first-touch costs
     would otherwise land on the head of the schedule and masquerade as
     queueing tail: spawning a domain costs tens of milliseconds on a
     small host, and a domain's first enqueue on a heap allocates its
     thread-local designated area (thousands of atomics, minor-GC storms
     with stop-the-world barriers across the other domains).  Measured
     against a 0.6 s point, that head clump alone is >1% of the ops — a
     synthetic p99.  So each producer's warm body enqueues one sentinel
     per shard and tier, bypassing admission, on warm-up streams of its
     own (so each keeps its FIFO); the buffered sentinels pay the first
     append, first group commit and first buffered dequeue per shard. *)
  let warm_streams w =
    (* Above every tenant's id range: strict ones, then buffered ones. *)
    List.concat_map
      (fun tier ->
        List.init cfg.shards (fun s ->
            (tier * stream_space) + (w * cfg.shards) + s))
      [ 4095; 4094 ]
  in
  for w = 0 to cfg.producers - 1 do
    List.iter
      (fun stream ->
        ignore (S.shard_of_stream service ~stream);
        if stream / stream_space = 4094 then
          S.set_stream_acks service ~stream S.Acks_leader)
      (warm_streams w)
  done;
  let warmed = Array.make cfg.producers [] in
  let warm w =
    List.iter
      (fun stream ->
        let v = Spec.Durable_check.encode ~producer:stream ~seq:1 in
        if S.enqueue service ~stream v = Broker.Backpressure.Accepted then
          warmed.(w) <- v :: warmed.(w))
      (warm_streams w)
  in
  let produce w ~t0 =
    let origin = t0 +. origin_lead_s in
    Array.iter
      (fun o ->
        let at = origin +. o.o_offset in
        if Unix.gettimeofday () < at then Nvm.Latency.sleep_until at;
        let d =
          A.enqueue adm ~tenant:o.o_tenant ~stream:o.o_stream ~arrival:at
            o.o_value
        in
        o.o_decision <- Some d;
        match d with
        | A.Admitted S.Acks_all_synced -> o.o_durable_s <- Unix.gettimeofday ()
        | _ -> ())
      parts.(w)
  in
  let dequeue _ () =
    match S.dequeue_any service with
    | S.Item v -> Some v
    | S.Empty | S.Busy | S.Unavailable -> None
  in
  let w =
    Drive.window ~producers:cfg.producers ~consumers:cfg.consumers
      ~ops:(Array.fold_left (fun m p -> max m (Array.length p)) 0 parts)
      ~warm
      ~reset:(fun () ->
        (* Commit the buffered warm-up appends: the first group commit
           per shard runs here, and the consumers get buffered items to
           first-touch their dequeue path on, all before the window
           opens. *)
        Array.iter Broker.Shard.sync (S.shards service))
      ~dequeue produce
  in
  let t0 = w.Drive.t0 +. origin_lead_s in
  let elapsed = w.Drive.t_done -. t0 in
  (* Close the durability window: commit every buffered suffix (fires
     the stamping callbacks). *)
  Array.iter Broker.Shard.sync (S.shards service);
  Array.iter
    (fun sh ->
      match Broker.Shard.buffered sh with
      | Some b -> Dq.Buffered_q.set_on_commit b None
      | None -> ())
    (S.shards service);
  (* Resolve timestamps back to ops by value (values are unique:
     (stream, seq) pairs under Durable_check). *)
  let by_value = Hashtbl.create (Array.length ops) in
  Array.iter (fun o -> Hashtbl.replace by_value o.o_value o) ops;
  Array.iter
    (fun stamps ->
      List.iter
        (fun (v, dl) ->
          match Hashtbl.find_opt by_value v with
          | Some o when o.o_durable_s = 0. -> o.o_durable_s <- dl
          | _ -> ())
        !stamps)
    commit_stamps;
  let consumed = ref 0 in
  Array.iter
    (List.iter (fun (v, ts) ->
         (* Warmup sentinels (and nothing else) miss the table. *)
         match Hashtbl.find_opt by_value v with
         | Some o ->
             o.o_deq_s <- ts;
             incr consumed
         | None -> ()))
    w.Drive.consumed;
  let admitted_ops =
    Array.to_list ops
    |> List.filter (fun o ->
           match o.o_decision with Some (A.Admitted _) -> true | _ -> false)
  in
  let check =
    Drive.verify service
      ~enqueued:
        (List.map (fun o -> o.o_value) admitted_ops :: Array.to_list warmed)
      ~consumed:(Array.to_list (Array.map (List.map fst) w.Drive.consumed))
  in
  let totals = A.totals adm in
  let rows = List.sort (fun a b -> compare a.A.a_tenant b.A.a_tenant) (A.rows adm) in
  let tenants_rep =
    List.map
      (fun (row : A.row) ->
        let mine =
          List.filter (fun o -> o.o_tenant = row.A.a_tenant) admitted_ops
        in
        {
          r_tenant = row.A.a_tenant;
          r_row = row;
          r_durable = summarize_ops t0 mine (fun o -> o.o_durable_s);
          r_dequeue = summarize_ops t0 mine (fun o -> o.o_deq_s);
        })
      rows
  in
  let shard_durable =
    Array.init cfg.shards (fun s ->
        let mine =
          List.filter
            (fun o -> Hashtbl.find_opt shard_of o.o_stream = Some s)
            admitted_ops
        in
        summarize_ops t0 mine (fun o -> o.o_durable_s))
  in
  let durable = summarize_ops t0 admitted_ops (fun o -> o.o_durable_s) in
  let strict_ops =
    List.filter
      (fun o ->
        match o.o_decision with
        | Some (A.Admitted S.Acks_all_synced) -> true
        | _ -> false)
      admitted_ops
  in
  let strict_durable = summarize_ops t0 strict_ops (fun o -> o.o_durable_s) in
  (* DQ_LOAD_DEBUG=1: dump the worst strict ops — which tenant, stream
     and schedule position the tail actually lives on. *)
  if Sys.getenv_opt "DQ_LOAD_DEBUG" <> None then begin
    let lat o = o.o_durable_s -. (t0 +. o.o_offset) in
    let worst =
      List.filter (fun o -> o.o_durable_s > 0.) strict_ops
      |> List.sort (fun a b -> compare (lat b) (lat a))
    in
    List.iteri
      (fun i o ->
        if i < 25 then
          Printf.eprintf
            "slow[%2d] off=%.3fs lat=%.2fms tenant=%d stream=%d shard=%s\n" i
            o.o_offset
            (1e3 *. lat o)
            o.o_tenant o.o_stream
            (match Hashtbl.find_opt shard_of o.o_stream with
            | Some s -> string_of_int s
            | None -> "?"))
      worst
  end;
  let dequeue = summarize_ops t0 admitted_ops (fun o -> o.o_deq_s) in
  let offered = Array.length ops in
  let elapsed = Float.max elapsed 1e-9 in
  {
    rep_duration_s = cfg.duration_s;
    rep_elapsed_s = elapsed;
    rep_offered = offered;
    rep_offered_hz = float_of_int offered /. cfg.duration_s;
    rep_admitted_hz = float_of_int totals.A.a_admitted /. elapsed;
    rep_totals = totals;
    rep_tenants = tenants_rep;
    rep_shard_durable = shard_durable;
    rep_durable = durable;
    rep_strict_durable = strict_durable;
    rep_dequeue = dequeue;
    rep_consumed = !consumed;
    rep_demoted = List.length (A.demoted_streams adm);
    rep_sla_s = cfg.sla_s;
    rep_sla_ok =
      strict_durable.Metrics.n = 0
      || strict_durable.Metrics.p99_s <= cfg.sla_s;
    rep_check = check;
  }

let pp_report ppf r =
  let module A = Broker.Admission in
  Format.fprintf ppf
    "offered %d ops (%.0f Hz over %.2fs, drained in %.2fs)@\n"
    r.rep_offered r.rep_offered_hz r.rep_duration_s r.rep_elapsed_s;
  Format.fprintf ppf
    "admitted %d (%.0f Hz)  degraded %d  shed %d (quota %d, overload %d, \
     deadline %d)  rejected %d  demoted-streams %d@\n"
    r.rep_totals.A.a_admitted r.rep_admitted_hz r.rep_totals.A.a_degraded
    (r.rep_totals.A.a_shed_quota + r.rep_totals.A.a_shed_overload
   + r.rep_totals.A.a_shed_deadline)
    r.rep_totals.A.a_shed_quota r.rep_totals.A.a_shed_overload
    r.rep_totals.A.a_shed_deadline r.rep_totals.A.a_rejected r.rep_demoted;
  Format.fprintf ppf "enq->durable (all): %a@\n" Metrics.pp r.rep_durable;
  Format.fprintf ppf "enq->durable (strict): %a  [SLA %.1fms: %s]@\n"
    Metrics.pp r.rep_strict_durable (r.rep_sla_s *. 1e3)
    (if r.rep_sla_ok then "ok" else "MISS");
  Format.fprintf ppf "delivery: %s@\n"
    (match r.rep_check with Ok () -> "ok" | Error e -> "FAIL " ^ e);
  if r.rep_dequeue.Metrics.n > 0 then
    Format.fprintf ppf "enq->dequeue: %a (consumed %d)@\n" Metrics.pp
      r.rep_dequeue r.rep_consumed;
  List.iter
    (fun t ->
      Format.fprintf ppf "  tenant %d: admitted %d/%d  durable %a@\n"
        t.r_tenant t.r_row.A.a_admitted t.r_row.A.a_sent Metrics.pp t.r_durable)
    r.rep_tenants;
  Array.iteri
    (fun s m ->
      if m.Metrics.n > 0 then
        Format.fprintf ppf "  shard %d: durable %a@\n" s Metrics.pp m)
    r.rep_shard_durable
