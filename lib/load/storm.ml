(* Crash-storm drills: repeated full-system crashes injected into live
   multi-domain broker traffic, with zero-acknowledged-loss verification
   after every recovery.  The config fields are documented in the .mli.

   One cycle of the storm:

   1. load — producer domains (one stream each) enqueue through the
      {!Fault.Retry} combinators while consumer domains drain [dequeue_any];
      an enqueue counts as *acknowledged* only when the broker returned
      [Accepted], i.e. after its persist fence — so an acked item must
      survive any crash policy;
   2. drill (selected cycles) — a victim shard hosting a live producer
      stream is force-quarantined mid-traffic: the pinned producer
      observes [Unavailable] (and backs off, and eventually gives up),
      while a probe on a fresh stream proves new traffic reroutes
      around the quarantine;
   3. quiesce — workers are joined: the crash model is a full-system
      power failure, all threads gone at once;
   4. crash + heal — {!Nvm.Crash.crash} with the plan's policy and seed
      on every shard heap, then {!Broker.Supervisor.recover_and_heal}:
      parallel per-shard recovery, validation, quarantine of failed
      shards, auto-re-admission of quarantined shards that now check
      clean (the drill victim's path back in);
   5. verify — recovery allocated no region: no shard holds more live
      regions than at the quiescent point before the crash; then
      {!Drive.verify}: acknowledged items must be exactly partitioned
      between the consumed set and the surviving queue contents,
      per-stream consumption must be a FIFO prefix, and the survivors
      must sit in FIFO order on their pinned shards.

   Steps 1 and 3 are one {!Drive} window: the storm supplies only the
   producer body and the consumers' retrying dequeue.

   Everything random flows from the {!Fault.Plan}: the same seed replays
   the same storm ({!Fault.Report.replay_log}). *)

type config = {
  algorithm : string;
  shards : int;
  producers : int;  (* one stream per producer domain *)
  consumers : int;  (* dequeue_any drain domains *)
  ops_per_cycle : int;  (* enqueues per producer per cycle *)
  batch : int;  (* 1 = unbatched *)
  combining : bool;  (* flat-combining enqueue front-end on every shard *)
  depth_bound : int;
  routing : Broker.Routing.policy;
  drill_every : int;  (* forced-quarantine drill every Nth cycle; 0 = never *)
  retry : Fault.Retry.policy;
  checkpoint_every : int;  (* checkpoint pass every Nth cycle; 0 = never *)
  acks : Broker.Service.acks;  (* the streams' durability level *)
  admission : Broker.Admission.tenant option;  (* stream w = tenant w *)
  arrival_hz : float;  (* per-producer pacing under admission; 0 = tight *)
}

let default_config =
  {
    algorithm = "OptUnlinkedQ";
    shards = 4;
    producers = 4;
    consumers = 2;
    ops_per_cycle = 120;
    batch = 4;
    combining = false;
    depth_bound = Broker.Service.default_depth_bound;
    routing = Broker.Routing.Round_robin;
    drill_every = 5;
    retry = Fault.Retry.default;
    checkpoint_every = 0;
    acks = Broker.Service.Acks_all_synced;
    admission = None;
    arrival_hz = 0.;
  }

(* Probe streams (reroute proof during drills) live far above any real
   producer id. *)
let probe_stream ~cycle = 1_000_000 + cycle

(* -- The storm ---------------------------------------------------------------- *)

let run ~seed ~cycles (cfg : config) : Fault.Report.t =
  if cfg.producers < 1 || cfg.consumers < 0 then
    invalid_arg "Storm.run: need at least one producer";
  let plan = Fault.Plan.make ~seed ~cycles ~drill_every:cfg.drill_every () in
  let t0 = Unix.gettimeofday () in
  Drive.prepare ~producers:cfg.producers ~consumers:cfg.consumers;
  let service =
    (* Admission runs with degradation on, so the buffered tier must
       exist even under strict default acks: demoted streams land there. *)
    Broker.Service.create ~algorithm:cfg.algorithm ~shards:cfg.shards
      ~policy:cfg.routing ~depth_bound:cfg.depth_bound ~mode:Nvm.Heap.Checked
      ~combining:cfg.combining ~acks:cfg.acks
      ~buffered:
        (cfg.acks <> Broker.Service.Acks_all_synced || cfg.admission <> None)
      ()
  in
  let admission =
    Option.map
      (fun tenant_cfg ->
        let adm = Broker.Admission.create service in
        for w = 0 to cfg.producers - 1 do
          Broker.Admission.set_tenant adm ~tenant:w tenant_cfg
        done;
        adm)
      cfg.admission
  in
  let admission_counts () =
    match admission with
    | None -> (0, 0)
    | Some adm ->
        let t = Broker.Admission.totals adm in
        ( t.Broker.Admission.a_shed_quota + t.Broker.Admission.a_shed_overload
          + t.Broker.Admission.a_shed_deadline,
          t.Broker.Admission.a_degraded )
  in
  (* Pin producer streams in order from the main thread, so Round_robin
     placement (stream w -> shard w mod shards) is deterministic. *)
  for w = 0 to cfg.producers - 1 do
    ignore (Broker.Service.shard_of_stream service ~stream:w)
  done;
  (* Delivery accounting, cumulative across cycles (survivors of one
     cycle are legitimately consumed in a later one): each stream's
     acknowledged count (always a contiguous 1..n: producers stop at the
     first failed op, and batch retries re-batch only the unaccepted
     remainder), and every consumer bin so far. *)
  let acked = Hashtbl.create 16 in
  let ack p n =
    if n > 0 then
      Hashtbl.replace acked p (n + Option.value ~default:0 (Hashtbl.find_opt acked p))
  in
  let acked_values () =
    Hashtbl.fold
      (fun p n acc ->
        List.init n (fun i -> Spec.Durable_check.encode ~producer:p ~seq:(i + 1))
        :: acc)
      acked []
  in
  let consumed_bins = ref [] in
  let total_acked = ref 0 and total_consumed = ref 0 in
  let total_retries = ref 0 and quarantine_cycles = ref 0 in
  let run_cycle (c : Fault.Plan.cycle) : Fault.Report.cycle =
    (* Fresh thread slots each cycle: the previous cycle's domains died
       in the crash. *)
    Drive.prepare ~producers:cfg.producers ~consumers:cfg.consumers;
    let retries = Atomic.make 0 in
    let on_retry ~attempt:_ _ = Atomic.incr retries in
    (* Drill: fence off a shard that hosts a live producer stream. *)
    let victim =
      if not c.drill then None
      else begin
        let stream = c.crash_seed mod cfg.producers in
        let shard = Broker.Service.shard_of_stream service ~stream in
        Broker.Service.quarantine service ~shard
          ~reason:(Printf.sprintf "drill cycle %d" c.index);
        incr quarantine_cycles;
        Some (stream, shard)
      end
    in
    let shed0, degraded0 = admission_counts () in
    let produced = Array.make cfg.producers 0 in
    let producer w ~t0 =
      let rng = Random.State.make [| seed; c.index; w |] in
      let base = Option.value ~default:0 (Hashtbl.find_opt acked w) in
      (* Open-loop pacing: scheduled arrival offsets accumulate from
         seeded exponential draws and never adapt to the service —
         falling behind ages the ops instead (what deadline shedding is
         for). *)
      let next_arrival = ref 0. in
      let n = ref 0 in
      (try
         while !n < cfg.ops_per_cycle do
           let b = min cfg.batch (cfg.ops_per_cycle - !n) in
           let items =
             List.init b (fun i ->
                 Spec.Durable_check.encode ~producer:w ~seq:(base + !n + i + 1))
           in
           let got, r =
             match admission with
             | None ->
                 Fault.Retry.enqueue_batch ~rng ~policy:cfg.retry ~on_retry
                   ~retry_overflow:(cfg.consumers > 0) service ~stream:w items
             | Some adm ->
                 let arrival =
                   if cfg.arrival_hz > 0. then begin
                     for _ = 1 to b do
                       next_arrival :=
                         !next_arrival +. Arrivals.exp_draw rng cfg.arrival_hz
                     done;
                     let at = t0 +. !next_arrival in
                     if Unix.gettimeofday () < at then
                       Nvm.Latency.sleep_until at;
                     at
                   end
                   else Unix.gettimeofday ()
                 in
                 Fault.Retry.admission_enqueue_batch ~rng ~policy:cfg.retry
                   ~on_retry ~retry_shed:true
                   ~retry_overflow:(cfg.consumers > 0) adm ~tenant:w ~stream:w
                   ~arrival items
           in
           n := !n + got;
           match r with Ok () -> () | Error _ -> raise Exit
         done
       with Exit -> ());
      (* Weak acks (or a possible admission demotion): the producer's
         items are not durable until its stream syncs — close the cycle's
         durability window before reporting the count as acknowledged.
         A failed sync (e.g. the drill quarantined this shard mid-cycle)
         is tolerated here: the quiesced pre-crash sync below still
         covers the journal. *)
      if cfg.acks <> Broker.Service.Acks_all_synced || admission <> None then
        ignore (Broker.Service.sync_stream service ~stream:w);
      produced.(w) <- !n
    in
    let dequeue k =
      let rng = Random.State.make [| seed; c.index; 0x105; k |] in
      fun () ->
        (* An exhausted transient budget (e.g. a long quarantine) reads
           as empty: keep draining what is reachable. *)
        match
          Fault.Retry.dequeue_any ~rng ~policy:cfg.retry ~on_retry service
        with
        | Ok v -> v
        | Error _ -> None
    in
    (* Quiesce: the window joins every worker — the crash model is a
       full-system power failure, every application thread is gone
       before the plug is pulled. *)
    let w =
      Drive.window ~producers:cfg.producers ~consumers:cfg.consumers
        ~ops:cfg.ops_per_cycle ~dequeue producer
    in
    Array.iteri (fun w n -> ack w n) produced;
    let bins = Array.to_list (Array.map (List.map fst) w.Drive.consumed) in
    consumed_bins := bins @ !consumed_bins;
    let cycle_consumed = List.fold_left (fun n b -> n + List.length b) 0 bins in
    (* Drill assertions, quiescent: the pinned stream observes
       Unavailable (probed with a read-only dequeue); a fresh probe
       stream reroutes around the quarantine (guaranteed for Round_robin
       with a healthy shard left; Key_hash pins implicitly and may
       still land on the victim). *)
    let drill_err = ref None in
    let reroute_ok =
      match victim with
      | None -> None
      | Some (stream, _shard) ->
          (match Broker.Service.dequeue service ~stream with
          | Broker.Service.Unavailable -> ()
          | _ ->
              drill_err :=
                Some
                  (Printf.sprintf
                     "drill: pinned stream %d did not observe unavailable"
                     stream));
          let probe = probe_stream ~cycle:c.index in
          let item = Spec.Durable_check.encode ~producer:probe ~seq:1 in
          (match Broker.Service.enqueue service ~stream:probe item with
          | Broker.Backpressure.Accepted ->
              ack probe 1;
              Some true
          | _ ->
              if cfg.routing = Broker.Routing.Round_robin && cfg.shards > 1
              then
                drill_err :=
                  Some "drill: fresh stream failed to route around quarantine";
              Some false)
    in
    (* Weak acks: commit every shard's buffered tier before the plug is
       pulled — including drill-quarantined shards, whose heaps are
       intact and whose journals hold acked items ([sync_all] would skip
       them).  Consumers' dequeues get their durability point here too,
       so recovery cannot replay an item the verification already
       counted as consumed. *)
    if Broker.Service.buffered_tier service then
      Array.iter Broker.Shard.sync (Broker.Service.shards service);
    (* Scheduled checkpoint pass, at the quiescent point: compact every
       non-quarantined shard's heap before the plug is pulled.  The
       epoch and retirement counts go to the JSON report only — region
       layout depends on the cycle's thread interleaving, so they are
       not replay-stable facts. *)
    let ckpt_epoch = ref 0 and ckpt_retired = ref 0 in
    if cfg.checkpoint_every > 0 && (c.index + 1) mod cfg.checkpoint_every = 0
    then
      Array.iter
        (fun d ->
          match d with
          | Broker.Supervisor.Checkpointed r ->
              ckpt_epoch := max !ckpt_epoch r.Dq.Checkpoint.r_epoch;
              ckpt_retired := !ckpt_retired + r.Dq.Checkpoint.r_retired
          | Broker.Supervisor.Skipped _ -> ())
        (Broker.Supervisor.checkpoint_all service);
    (* Live regions per shard at the quiescent point, after the
       checkpoint pass: recovery must not add to them. *)
    let live_regions () =
      Array.map
        (fun s -> Nvm.Stats.live_regions (Broker.Shard.occupancy s))
        (Broker.Service.shards service)
    in
    let live_before = live_regions () in
    (* The crash, and the supervisor's response to it.  The drill victim
       re-enters here: its recovery verdict is clean, so the supervisor
       auto-readmits it. *)
    let heal =
      Broker.Supervisor.recover_and_heal
        ~rng:(Random.State.make [| c.crash_seed |])
        ~policy:c.policy ~producer_of:Spec.Durable_check.producer_of service
    in
    let live_after = live_regions () in
    let grown =
      List.find_opt
        (fun i -> live_after.(i) > live_before.(i))
        (List.init cfg.shards Fun.id)
      |> Option.map (fun i ->
             Printf.sprintf
               "recovery allocated: shard %d holds %d live regions, %d \
                before the crash"
               i live_after.(i) live_before.(i))
    in
    let check =
      if not (Broker.Supervisor.healthy heal) then
        Error
          (Format.asprintf "recovery degraded:@.%a" Broker.Supervisor.pp heal)
      else
        match (!drill_err, grown) with
        | Some e, _ | None, Some e -> Error e
        | None, None -> (
            match (victim, heal.readmitted) with
            | Some (_, shard), readmitted when not (List.mem shard readmitted)
              ->
                Error
                  (Printf.sprintf "drill victim shard %d was not readmitted"
                     shard)
            | _ ->
                Drive.verify service ~enqueued:(acked_values ())
                  ~consumed:!consumed_bins)
    in
    let cycle_acked =
      Array.fold_left ( + ) 0 produced
      + (match reroute_ok with Some true -> 1 | _ -> 0)
    in
    total_acked := !total_acked + cycle_acked;
    total_consumed := !total_consumed + cycle_consumed;
    total_retries := !total_retries + Atomic.get retries;
    let shed1, degraded1 = admission_counts () in
    {
      Fault.Report.index = c.index;
      policy = Nvm.Crash.policy_name c.policy;
      crash_seed = c.crash_seed;
      drill = c.drill;
      acked = cycle_acked;
      consumed = cycle_consumed;
      retries = Atomic.get retries;
      recover_ms =
        Array.fold_left
          (fun m (s : Broker.Recovery.shard_report) ->
            Float.max m s.recover_ms)
          0. heal.recovery.shards;
      wall_ms = heal.recovery.wall_ms;
      quarantined =
        (match victim with Some (_, s) -> [ s ] | None -> [])
        @ heal.newly_quarantined;
      readmitted = heal.readmitted;
      reroute_ok;
      ckpt_epoch = !ckpt_epoch;
      ckpt_retired = !ckpt_retired;
      shed = shed1 - shed0;
      degraded = degraded1 - degraded0;
      check;
    }
  in
  let cycle_reports = Array.to_list (Array.map run_cycle plan.cycles) in
  let total_shed, total_degraded = admission_counts () in
  {
    Fault.Report.seed;
    algorithm = cfg.algorithm;
    shards = cfg.shards;
    producers = cfg.producers;
    consumers = cfg.consumers;
    routing = Broker.Routing.policy_name cfg.routing;
    cycles = cycle_reports;
    total_acked = !total_acked;
    total_consumed = !total_consumed;
    remaining = Broker.Service.total_depth service;
    total_retries = !total_retries;
    quarantine_cycles = !quarantine_cycles;
    total_shed;
    total_degraded;
    elapsed_s = Unix.gettimeofday () -. t0;
  }
