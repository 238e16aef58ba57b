(* The incremental-checkpoint tier (Dq.Checkpoint): the epoch-flip crash
   boundary, contents conservation across checkpointed crashes under
   every crash policy, region recycling without stale resurrection, and
   the broker-level composition — exactly-once delivery across a
   checkpointed recovery plus the supervisor's quarantine-aware
   scheduler. *)

let fresh_tid () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ())

let checkpointed = [ "UnlinkedQ"; "OptUnlinkedQ" ]

(* -- epoch-flip crash boundary ---------------------------------------------- *)

(* The one moment the checkpoint publishes: the movnti+fence of the
   packed (epoch, image-region) word.  Sweep a crash across every NVM
   step of a full checkpoint run — stream, flip and retire — under a
   committed predecessor epoch: whichever side of the flip the crash
   lands on, recovery must reproduce the exact pre-checkpoint contents
   (a checkpoint is contents-neutral), and an un-crashed run must flip
   with at most one fence and zero flushes. *)
let test_flip_boundary ~policy name () =
  match
    Spec.Explore.checkpoint_flip_campaign ~policy (Dq.Registry.find name)
      ~seeds:6
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* -- checkpoint-then-crash conservation ------------------------------------- *)

(* Fill, drain to a window, checkpoint, keep churning (so recovery has a
   post-checkpoint tail to replay), crash under the given policy, and
   compare against the model queue.  Every operation completes (fenced)
   before the crash, so recovery must reproduce the model exactly — in
   FIFO order — and must do it from the image: a bounded region scan,
   not a walk of everything ever allocated.  A second crash re-recovers
   from the same epoch. *)
let test_conservation ~policy name () =
  fresh_tid ();
  let entry = Dq.Registry.find name in
  let heap = Nvm.Heap.create ~mode:Nvm.Heap.Checked () in
  let q = entry.Dq.Registry.make heap in
  let ck =
    match q.Dq.Queue_intf.checkpoint with
    | Some ck -> ck
    | None -> Alcotest.failf "%s has no checkpoint handle" name
  in
  let model = Queue.create () in
  let enq v =
    q.Dq.Queue_intf.enqueue v;
    Queue.push v model
  in
  let deq () =
    let expected =
      if Queue.is_empty model then None else Some (Queue.pop model)
    in
    Alcotest.(check (option int))
      "dequeue agrees with model" expected
      (q.Dq.Queue_intf.dequeue ())
  in
  for i = 1 to 3_000 do
    enq i
  done;
  for _ = 1 to 2_900 do
    deq ()
  done;
  let r = Dq.Checkpoint.run ck in
  Alcotest.(check int) "imaged the live window" (Queue.length model)
    r.Dq.Checkpoint.r_items;
  (* The post-checkpoint tail: ops recovery must replay on top of the
     image. *)
  for i = 1 to 40 do
    enq (100_000 + i)
  done;
  for _ = 1 to 20 do
    deq ()
  done;
  let expected () = List.of_seq (Queue.to_seq model) in
  let crash_and_check seed =
    Nvm.Crash.crash_seeded ~seed ~policy heap;
    fresh_tid ();
    q.Dq.Queue_intf.recover ();
    Alcotest.(check (list int))
      "recovered contents = model (FIFO)" (expected ())
      (q.Dq.Queue_intf.to_list ());
    let s = Dq.Checkpoint.last_recovery ck in
    Alcotest.(check int) "recovered from the committed epoch" 1
      s.Dq.Checkpoint.ckpt_epoch;
    if s.Dq.Checkpoint.scanned_regions > 4 then
      Alcotest.failf "recovery scanned %d regions (expected a bounded scan)"
        s.Dq.Checkpoint.scanned_regions
  in
  crash_and_check 7;
  (* The queue must still work, and survive a second crash from the same
     committed epoch. *)
  for i = 1 to 10 do
    enq (200_000 + i)
  done;
  crash_and_check 8

(* -- region recycling: no stale resurrection -------------------------------- *)

(* Churn/checkpoint cycles with per-cycle disjoint value ranges: retired
   regions get recycled by later allocations, so any stale pointer kept
   across a retire would resurrect an old cycle's values after a crash.
   The live region count must plateau while cumulative allocations grow
   — the compaction is real, not deferred. *)
let test_region_recycling name () =
  fresh_tid ();
  let entry = Dq.Registry.find name in
  let heap = Nvm.Heap.create ~mode:Nvm.Heap.Checked () in
  let q = entry.Dq.Registry.make heap in
  let ck = Option.get q.Dq.Queue_intf.checkpoint in
  let cycles = 6 and per_cycle = 2_000 and window = 16 in
  let plateau = ref 0 in
  for cycle = 1 to cycles do
    let base = cycle * 1_000_000 in
    for i = 1 to per_cycle do
      q.Dq.Queue_intf.enqueue (base + i)
    done;
    for _ = 1 to per_cycle - window do
      ignore (q.Dq.Queue_intf.dequeue ())
    done;
    (* drain the previous cycle's leftover window first *)
    for _ = 1 to if cycle = 1 then 0 else window do
      ignore (q.Dq.Queue_intf.dequeue ())
    done;
    ignore (Dq.Checkpoint.run ck);
    let live = Nvm.Stats.live_regions (Nvm.Heap.occupancy heap) in
    if cycle = 2 then plateau := live
    else if cycle > 2 && live > !plateau + 1 then
      Alcotest.failf "cycle %d: %d live regions, plateau was %d" cycle live
        !plateau;
    Nvm.Crash.crash_seeded ~seed:cycle ~policy:Nvm.Crash.Torn_prefix heap;
    fresh_tid ();
    q.Dq.Queue_intf.recover ();
    let contents = q.Dq.Queue_intf.to_list () in
    Alcotest.(check int) "window survives" window (List.length contents);
    (* the resurrection check: only this cycle's values *)
    List.iter
      (fun v ->
        if v < base || v > base + per_cycle then
          Alcotest.failf "cycle %d resurrected stale value %d" cycle v)
      contents
  done;
  let occ = Nvm.Heap.occupancy heap in
  if occ.Nvm.Stats.regions_retired = 0 then
    Alcotest.fail "no region was ever retired";
  if occ.Nvm.Stats.regions_allocated < occ.Nvm.Stats.regions_retired then
    Alcotest.fail "retired more regions than were allocated"

(* -- broker: exactly-once across checkpointed recovery ----------------------- *)

(* The committed consumer offsets and the queue contents, from which
   recovery derives the dedup index, live on the same shard heaps the
   checkpoint compacts: after checkpoint passes, two crash/recovery
   cycles must still deliver every sequence exactly once, refuse every
   republish, and report the committed epoch in the recovery report. *)
let test_exactly_once_checkpointed () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:2 ~offsets:true () in
  let enc = Spec.Durable_check.encode in
  let producers = 3 and seqs = 40 in
  let publish_all ~expect_fresh =
    for producer = 0 to producers - 1 do
      for seq = 1 to seqs do
        match
          (Broker.Service.enqueue_once service ~stream:producer
             (enc ~producer ~seq),
           expect_fresh)
        with
        | Broker.Service.Enqueued, true | Broker.Service.Duplicate, false -> ()
        | Broker.Service.Enqueued, false ->
            Alcotest.failf "producer %d seq %d re-accepted" producer seq
        | Broker.Service.Duplicate, true ->
            Alcotest.failf "producer %d seq %d wrongly deduplicated" producer
              seq
        | Broker.Service.Rejected v, _ ->
            Alcotest.failf "producer %d seq %d rejected: %s" producer seq
              (Broker.Backpressure.verdict_name v)
      done
    done
  in
  let delivered = Hashtbl.create 64 in
  let deliver_n ~stream n =
    for _ = 1 to n do
      match Broker.Service.dequeue_committed service ~stream ~group:1 with
      | Broker.Service.Item v ->
          let key =
            (Spec.Durable_check.producer_of v, Spec.Durable_check.seq_of v)
          in
          if Hashtbl.mem delivered key then
            Alcotest.failf "producer %d seq %d delivered twice" (fst key)
              (snd key);
          Hashtbl.add delivered key ()
      | _ -> Alcotest.fail "expected an item"
    done
  in
  let checkpoint_pass () =
    Array.iteri
      (fun i d ->
        match d with
        | Broker.Supervisor.Checkpointed _ -> ()
        | Broker.Supervisor.Skipped why ->
            Alcotest.failf "shard %d skipped: %s" i why)
      (Broker.Supervisor.checkpoint_all service)
  in
  let crash seed =
    let report =
      Broker.Recovery.crash_and_recover
        ~rng:(Random.State.make [| seed |])
        ~producer_of:Spec.Durable_check.producer_of service
    in
    if not (Broker.Recovery.ok report) then
      Alcotest.fail "broker recovery validation failed";
    report
  in
  publish_all ~expect_fresh:true;
  for stream = 0 to producers - 1 do
    deliver_n ~stream (seqs / 2)
  done;
  checkpoint_pass ();
  let report = crash 21 in
  (* the report carries the checkpointed-recovery stats *)
  Array.iter
    (fun (r : Broker.Recovery.shard_report) ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d recovered from epoch 1" r.Broker.Recovery.shard)
        1 r.Broker.Recovery.ckpt_epoch)
    report.Broker.Recovery.shards;
  (* retries after the checkpointed recovery: the index derived from
     the compacted queue and the commit offsets must still refuse
     everything *)
  publish_all ~expect_fresh:false;
  for stream = 0 to producers - 1 do
    deliver_n ~stream (seqs / 4)
  done;
  checkpoint_pass ();
  ignore (crash 22);
  (* drain the rest: nothing lost, nothing re-delivered *)
  for stream = 0 to producers - 1 do
    let rec drain () =
      match Broker.Service.dequeue_committed service ~stream ~group:1 with
      | Broker.Service.Item v ->
          let key =
            (Spec.Durable_check.producer_of v, Spec.Durable_check.seq_of v)
          in
          if Hashtbl.mem delivered key then
            Alcotest.failf "producer %d seq %d re-delivered" (fst key)
              (snd key);
          Hashtbl.add delivered key ();
          drain ()
      | Broker.Service.Empty -> ()
      | _ -> Alcotest.fail "unexpected dequeue verdict"
    in
    drain ()
  done;
  Alcotest.(check int) "every sequence delivered exactly once"
    (producers * seqs) (Hashtbl.length delivered)

(* -- supervisor: quarantine-aware scheduling and re-admission ---------------- *)

let enc_i stream i = Spec.Durable_check.encode ~producer:stream ~seq:i

let test_scheduler_quarantine () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:3 () in
  for stream = 0 to 2 do
    for i = 1 to 200 do
      match Broker.Service.enqueue service ~stream (enc_i stream i) with
      | Broker.Backpressure.Accepted -> ()
      | v -> Alcotest.failf "enqueue: %s" (Broker.Backpressure.verdict_name v)
    done
  done;
  Broker.Service.quarantine service ~shard:1 ~reason:"drill";
  (* the direct pass must refuse the quarantined shard *)
  (match Broker.Supervisor.checkpoint_shard service ~shard:1 with
  | Broker.Supervisor.Skipped _ -> ()
  | Broker.Supervisor.Checkpointed _ ->
      Alcotest.fail "checkpointed a quarantined shard");
  let decisions = Broker.Supervisor.checkpoint_all service in
  Array.iteri
    (fun i d ->
      match (i, d) with
      | 1, Broker.Supervisor.Checkpointed _ ->
          Alcotest.fail "checkpoint_all checkpointed the quarantined shard"
      | 1, Broker.Supervisor.Skipped _ | _, Broker.Supervisor.Checkpointed _ ->
          ()
      | _, Broker.Supervisor.Skipped why ->
          Alcotest.failf "healthy shard %d skipped: %s" i why)
    decisions;
  (* a clean crash/recovery cycle re-admits the shard; checkpointed
     recovery on the healthy shards must not confuse the verdicts *)
  let heal =
    Broker.Supervisor.recover_and_heal ~policy:Nvm.Crash.Only_persisted
      ~rng:(Random.State.make [| 5 |])
      ~producer_of:Spec.Durable_check.producer_of service
  in
  Alcotest.(check (list int))
    "shard re-admitted after checkpointed recovery" [ 1 ]
    heal.Broker.Supervisor.readmitted;
  (* once re-admitted it is eligible again *)
  (match Broker.Supervisor.checkpoint_shard service ~shard:1 with
  | Broker.Supervisor.Checkpointed _ -> ()
  | Broker.Supervisor.Skipped why ->
      Alcotest.failf "re-admitted shard still skipped: %s" why);
  (* the threshold scheduler: a tiny region floor is immediately due, a
     huge one is not *)
  let eager = Broker.Supervisor.scheduler ~min_live_regions:1 service in
  Alcotest.(check bool) "eager scheduler is due" true
    (Broker.Supervisor.due eager service ~shard:0);
  let lazy_s =
    Broker.Supervisor.scheduler ~min_live_regions:1_000_000 service
  in
  Alcotest.(check bool) "lazy scheduler is not due" false
    (Broker.Supervisor.due lazy_s service ~shard:0);
  let ticked = Broker.Supervisor.checkpoint_tick eager service in
  (match ticked.(0) with
  | Broker.Supervisor.Checkpointed _ -> ()
  | Broker.Supervisor.Skipped why -> Alcotest.failf "tick skipped: %s" why);
  ignore (Broker.Service.to_lists service)

let policies =
  [
    (Nvm.Crash.Only_persisted, "only-persisted");
    (Nvm.Crash.All_flushed, "all-flushed");
    (Nvm.Crash.Torn_prefix, "torn-prefix");
  ]

let () =
  Alcotest.run "checkpoint"
    [
      ( "flip-boundary",
        List.concat_map
          (fun (policy, pname) ->
            List.map
              (fun name ->
                Alcotest.test_case
                  (Printf.sprintf "%s/%s" name pname)
                  `Slow
                  (test_flip_boundary ~policy name))
              checkpointed)
          [
            (Nvm.Crash.Only_persisted, "only-persisted");
            (Nvm.Crash.Torn_prefix, "torn-prefix");
          ] );
      ( "conservation",
        List.concat_map
          (fun (policy, pname) ->
            List.map
              (fun name ->
                Alcotest.test_case
                  (Printf.sprintf "%s/%s" name pname)
                  `Quick
                  (test_conservation ~policy name))
              checkpointed)
          policies );
      ( "region-recycling",
        List.map
          (fun name ->
            Alcotest.test_case name `Quick (test_region_recycling name))
          checkpointed );
      ( "broker",
        [
          Alcotest.test_case "exactly-once across checkpointed recovery"
            `Quick test_exactly_once_checkpointed;
          Alcotest.test_case "quarantine-aware scheduler and re-admission"
            `Quick test_scheduler_quarantine;
        ] );
    ]
