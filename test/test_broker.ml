(* Tests for the sharded durable broker (lib/broker): routing stability,
   backpressure, batched-fence amortization, and — the load-bearing part —
   full-system crashes recovered in parallel across shards with the
   durable-linearizability conditions checked per shard, including a
   crash landing in the middle of a batch. *)

let fresh_tid () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ())

let enc = Spec.Durable_check.encode

let accept what v =
  if v <> Broker.Backpressure.Accepted then
    Alcotest.failf "%s: %s" what (Broker.Backpressure.verdict_name v)

(* Lift a drill with the one operator lift; it must succeed. *)
let lift service ~shard =
  match Broker.Service.clear_quarantine service ~shard with
  | Ok () -> ()
  | Error e -> Alcotest.failf "lift refused: %s" e

(* Fill [per_stream] items on each of [streams] streams, batched. *)
let fill service ~streams ~per_stream ~batch =
  for stream = 0 to streams - 1 do
    let seq = ref 1 in
    while !seq <= per_stream do
      let n = min batch (per_stream - !seq + 1) in
      let items = List.init n (fun i -> enc ~producer:stream ~seq:(!seq + i)) in
      seq := !seq + n;
      match Broker.Service.enqueue_batch service ~stream items with
      | m, Broker.Backpressure.Accepted when m = n -> ()
      | _, v ->
          Alcotest.failf "fill: batch rejected with %s"
            (Broker.Backpressure.verdict_name v)
    done
  done

(* -- routing ----------------------------------------------------------------- *)

let test_routing_stability () =
  (* Key_hash: stateless and stable; Round_robin: first touch pins, later
     touches reuse the pin. *)
  List.iter
    (fun policy ->
      let r = Broker.Routing.create policy ~shards:4 in
      let first = List.init 64 (fun s -> Broker.Routing.shard_for r ~stream:s) in
      let again = List.init 64 (fun s -> Broker.Routing.shard_for r ~stream:s) in
      Alcotest.(check (list int))
        (Broker.Routing.policy_name policy ^ " stable")
        first again;
      List.iter
        (fun shard -> Alcotest.(check bool) "in range" true (shard >= 0 && shard < 4))
        first)
    [ Broker.Routing.Key_hash; Broker.Routing.Round_robin ]

let test_round_robin_balance () =
  let r = Broker.Routing.create Broker.Routing.Round_robin ~shards:4 in
  let counts = Array.make 4 0 in
  for s = 0 to 15 do
    let shard = Broker.Routing.shard_for r ~stream:s in
    counts.(shard) <- counts.(shard) + 1
  done;
  Alcotest.(check (array int)) "16 streams spread 4-4-4-4" [| 4; 4; 4; 4 |] counts;
  Alcotest.(check int) "pin table size" 16
    (List.length (Broker.Routing.pinned_streams r))

let test_key_hash_spread () =
  let r = Broker.Routing.create Broker.Routing.Key_hash ~shards:4 in
  let counts = Array.make 4 0 in
  for s = 0 to 255 do
    let shard = Broker.Routing.shard_for r ~stream:s in
    counts.(shard) <- counts.(shard) + 1
  done;
  Array.iteri
    (fun i c ->
      if c = 0 then Alcotest.failf "shard %d got no streams out of 256" i)
    counts

(* -- backpressure ------------------------------------------------------------- *)

let test_gauge () =
  let g = Broker.Backpressure.create ~bound:10 in
  Alcotest.(check int) "full grant" 8 (Broker.Backpressure.try_acquire g 8);
  Alcotest.(check int) "partial grant" 2 (Broker.Backpressure.try_acquire g 5);
  Alcotest.(check int) "no grant at bound" 0 (Broker.Backpressure.try_acquire g 1);
  Broker.Backpressure.release g 4;
  Alcotest.(check int) "space after release" 4 (Broker.Backpressure.try_acquire g 9);
  Alcotest.(check int) "depth" 10 (Broker.Backpressure.depth g)

let test_service_overflow () =
  fresh_tid ();
  let service =
    Broker.Service.create ~shards:2 ~depth_bound:16 ()
  in
  for seq = 1 to 16 do
    Alcotest.(check bool) "accepted below bound" true
      (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq)
      = Broker.Backpressure.Accepted)
  done;
  Alcotest.(check bool) "overflow at bound" true
    (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:17)
    = Broker.Backpressure.Overflow);
  (* Stream 1 pins to the other shard: unaffected. *)
  Alcotest.(check bool) "other shard unaffected" true
    (Broker.Service.enqueue service ~stream:1 (enc ~producer:1 ~seq:1)
    = Broker.Backpressure.Accepted);
  (* Draining frees capacity. *)
  (match Broker.Service.dequeue service ~stream:0 with
  | Broker.Service.Item v ->
      Alcotest.(check int) "fifo head" (enc ~producer:0 ~seq:1) v
  | _ -> Alcotest.fail "expected an item");
  Alcotest.(check bool) "accepted after drain" true
    (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:17)
    = Broker.Backpressure.Accepted)

let test_retry_while_recovering () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:2 () in
  Broker.Service.quiesce service;
  Alcotest.(check bool) "enqueue -> Retry" true
    (Broker.Service.enqueue service ~stream:0 1 = Broker.Backpressure.Retry);
  Alcotest.(check bool) "dequeue -> Busy" true
    (Broker.Service.dequeue service ~stream:0 = Broker.Service.Busy);
  Alcotest.(check bool) "batch -> Retry" true
    (snd (Broker.Service.enqueue_batch service ~stream:0 [ 1; 2 ])
    = Broker.Backpressure.Retry);
  Broker.Service.resume service;
  Alcotest.(check bool) "serving again" true
    (Broker.Service.enqueue service ~stream:0 1 = Broker.Backpressure.Accepted)

(* Every refusal leaves the depth gauge where it was.  Each operation
   runs against a 1-shard service refusing it for one reason: mid-
   recovery, quarantined, or at the depth bound (where dequeues are not
   refused, so only the enqueue side and the sync boundary run). *)
let outcome_of_deq = function
  | Broker.Service.Item _ -> "item"
  | Broker.Service.Empty -> "empty"
  | Broker.Service.Busy -> "busy"
  | Broker.Service.Unavailable -> "unavailable"

let refusal_ops =
  [
    ( "enqueue",
      fun svc ->
        Broker.Backpressure.verdict_name
          (Broker.Service.enqueue svc ~stream:0 (enc ~producer:0 ~seq:100)) );
    ( "enqueue_batch",
      fun svc ->
        let n, v =
          Broker.Service.enqueue_batch svc ~stream:0
            [ enc ~producer:0 ~seq:100; enc ~producer:0 ~seq:101 ]
        in
        Printf.sprintf "%d %s" n (Broker.Backpressure.verdict_name v) );
    ( "enqueue_once",
      fun svc ->
        match
          Broker.Service.enqueue_once svc ~stream:0 (enc ~producer:0 ~seq:100)
        with
        | Broker.Service.Enqueued -> "enqueued"
        | Broker.Service.Duplicate -> "duplicate"
        | Broker.Service.Rejected v -> Broker.Backpressure.verdict_name v );
    ("dequeue", fun svc -> outcome_of_deq (Broker.Service.dequeue svc ~stream:0));
    ("dequeue_any", fun svc -> outcome_of_deq (Broker.Service.dequeue_any svc));
    ( "dequeue_batch",
      fun svc ->
        match Broker.Service.dequeue_batch svc ~stream:0 ~max:4 with
        | Broker.Service.Items l -> Printf.sprintf "%d items" (List.length l)
        | Broker.Service.Busy_batch -> "busy"
        | Broker.Service.Unavailable_batch -> "unavailable" );
    ( "sync_stream",
      fun svc ->
        Broker.Backpressure.verdict_name
          (Broker.Service.sync_stream svc ~stream:0) );
  ]

let test_refusals_keep_depth () =
  let depth_bound = 4 in
  let states =
    [
      ( "recovering",
        Broker.Service.quiesce,
        [
          ("enqueue", "retry");
          ("enqueue_batch", "0 retry");
          ("enqueue_once", "retry");
          ("dequeue", "busy");
          ("dequeue_any", "busy");
          ("dequeue_batch", "busy");
          ("sync_stream", "retry");
        ] );
      ( "quarantined",
        (fun svc -> Broker.Service.quarantine svc ~shard:0 ~reason:"test"),
        [
          ("enqueue", "unavailable");
          ("enqueue_batch", "0 unavailable");
          ("enqueue_once", "unavailable");
          ("dequeue", "unavailable");
          ("dequeue_any", "empty");
          ("dequeue_batch", "unavailable");
          ("sync_stream", "unavailable");
        ] );
      ( "at the bound",
        (fun svc ->
          for seq = 3 to depth_bound do
            accept "fill"
              (Broker.Service.enqueue svc ~stream:0 (enc ~producer:0 ~seq))
          done),
        [
          ("enqueue", "overflow");
          ("enqueue_batch", "0 overflow");
          ("enqueue_once", "overflow");
          ("sync_stream", "accepted");
        ] );
    ]
  in
  List.iter
    (fun (state, enter, expected) ->
      List.iter
        (fun (op, want) ->
          fresh_tid ();
          let svc =
            Broker.Service.create ~shards:1 ~depth_bound ~offsets:true
              ~buffered:true ()
          in
          List.iter
            (fun seq ->
              accept "setup"
                (Broker.Service.enqueue svc ~stream:0 (enc ~producer:0 ~seq)))
            [ 1; 2 ];
          enter svc;
          let before = Broker.Service.depths svc in
          let what = Printf.sprintf "%s: %s" state op in
          Alcotest.(check string) what want ((List.assoc op refusal_ops) svc);
          Alcotest.(check (array int)) (what ^ " keeps the depth") before
            (Broker.Service.depths svc))
        expected)
    states

(* A full buffered journal is an Overflow like a full gauge, and the
   room taken for the refused items goes back: the gauge keeps counting
   exactly the items the journal holds. *)
let test_journal_full_keeps_depth () =
  fresh_tid ();
  let svc =
    Broker.Service.create ~shards:1 ~acks:Broker.Service.Acks_none
      ~mode:Nvm.Heap.Fast ()
  in
  let capacity = 1 lsl 16 in
  for seq = 1 to capacity do
    accept "fill" (Broker.Service.enqueue svc ~stream:0 (enc ~producer:0 ~seq))
  done;
  Alcotest.(check string) "journal full" "overflow"
    (Broker.Backpressure.verdict_name
       (Broker.Service.enqueue svc ~stream:0
          (enc ~producer:0 ~seq:(capacity + 1))));
  Alcotest.(check (array int)) "depth after a refused enqueue" [| capacity |]
    (Broker.Service.depths svc);
  let n, v =
    Broker.Service.enqueue_batch svc ~stream:0
      [ enc ~producer:0 ~seq:(capacity + 1); enc ~producer:0 ~seq:(capacity + 2) ]
  in
  Alcotest.(check (pair int string)) "batch refused" (0, "overflow")
    (n, Broker.Backpressure.verdict_name v);
  Alcotest.(check (array int)) "depth after a refused batch" [| capacity |]
    (Broker.Service.depths svc)

(* -- batched-fence amortization ----------------------------------------------- *)

(* A batch of n enqueues (or dequeues) over a 1-fence-per-op shard costs
   exactly one blocking fence: the queue's own fences are absorbed and
   the closing fence drains the whole batch. *)
let test_batch_one_fence () =
  fresh_tid ();
  let service = Broker.Service.create ~algorithm:"OptUnlinkedQ" ~shards:1 () in
  let shard = (Broker.Service.shards service).(0) in
  let stats = Nvm.Heap.stats (Broker.Shard.heap shard) in
  let fences () = (Nvm.Stats.total stats).Nvm.Stats.fences in
  let f0 = fences () in
  let _, v =
    Broker.Service.enqueue_batch service ~stream:0
      (List.init 32 (fun i -> enc ~producer:0 ~seq:(i + 1)))
  in
  Alcotest.(check bool) "batch accepted" true (v = Broker.Backpressure.Accepted);
  Alcotest.(check int) "32 enqueues, one fence" 1 (fences () - f0);
  let f1 = fences () in
  (match Broker.Service.dequeue_batch service ~stream:0 ~max:32 with
  | Broker.Service.Items items ->
      Alcotest.(check int) "all dequeued" 32 (List.length items);
      Alcotest.(check (list int)) "fifo order"
        (List.init 32 (fun i -> enc ~producer:0 ~seq:(i + 1)))
        items
  | Broker.Service.Busy_batch | Broker.Service.Unavailable_batch ->
      Alcotest.fail "unexpected Busy");
  Alcotest.(check int) "32 dequeues, one fence" 1 (fences () - f1)

(* -- crash recovery ----------------------------------------------------------- *)

(* Deterministic full-survival crash: every batch was fenced, so under
   Only_persisted all shards recover exactly their contents, in parallel,
   with per-shard validation and cross-shard leakage checks passing. *)
let test_crash_recover_all_shards () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:4 () in
  fill service ~streams:8 ~per_stream:60 ~batch:6;
  let expected = Broker.Service.to_lists service in
  let report =
    Broker.Recovery.crash_and_recover ~policy:Nvm.Crash.Only_persisted
      ~domains:3 ~producer_of:Spec.Durable_check.producer_of service
  in
  Alcotest.(check bool) "report ok" true (Broker.Recovery.ok report);
  Alcotest.(check int) "domains used" 3 report.Broker.Recovery.domains_used;
  Array.iteri
    (fun i items ->
      Alcotest.(check (list int))
        (Printf.sprintf "shard %d contents survive" i)
        expected.(i) items)
    (Broker.Service.to_lists service);
  Alcotest.(check bool) "serving after recovery" true
    (Broker.Service.serving service);
  (* Gauges were re-seated from the recovered lengths. *)
  Array.iteri
    (fun i s ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d gauge" i)
        (List.length expected.(i))
        (Broker.Shard.depth s))
    (Broker.Service.shards service)

(* A crash in the middle of a batch: the batch's fences were absorbed and
   the closing fence never ran, so any subset of the batch may vanish —
   each dropped item counts as a pending enqueue.  The recovered state
   must still satisfy the per-producer suffix condition. *)
let test_crash_mid_batch () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:3 () in
  let streams = 3 and per_stream = 40 in
  fill service ~streams ~per_stream ~batch:8;
  (* Stream 1's next batch is interrupted: the plug is pulled after the
     enqueues but before the closing fence. *)
  let pending = List.init 5 (fun i -> enc ~producer:1 ~seq:(per_stream + 1 + i)) in
  let victim =
    (Broker.Service.shards service).(Broker.Service.shard_of_stream service
                                       ~stream:1)
  in
  let heap = Broker.Shard.heap victim in
  Nvm.Heap.with_batched_fences heap (fun () ->
      List.iter
        (fun v ->
          ignore
            (Broker.Shard.enqueue victim ~acks:Broker.Shard.Acks_all_synced
               ~on_buffered:false [ v ]))
        pending;
      Nvm.Crash.crash ~policy:Nvm.Crash.Only_persisted heap);
  let report =
    Broker.Recovery.crash_and_recover ~policy:Nvm.Crash.Only_persisted
      ~domains:2 ~producer_of:Spec.Durable_check.producer_of service
  in
  Alcotest.(check bool) "report ok" true (Broker.Recovery.ok report);
  (* Fenced batches all survive; the interrupted batch may be any prefix
     of its stores, so check the suffix condition with it pending. *)
  let enqueued_per_producer = Hashtbl.create 8 in
  for p = 0 to streams - 1 do
    Hashtbl.replace enqueued_per_producer p
      (List.init per_stream (fun i -> enc ~producer:p ~seq:(i + 1))
      @ if p = 1 then pending else [])
  done;
  let recovered =
    List.concat (Array.to_list (Broker.Service.to_lists service))
  in
  (match
     Spec.Durable_check.check_recovered_suffix ~enqueued_per_producer
       ~recovered ~pending
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Streams 0 and 2 were untouched by the interrupted batch. *)
  List.iter
    (fun stream ->
      let shard = Broker.Service.shard_of_stream service ~stream in
      Alcotest.(check int)
        (Printf.sprintf "stream %d intact" stream)
        per_stream
        (List.length (Broker.Service.to_lists service).(shard)))
    [ 0; 2 ];
  (* The victim shard recovered a prefix: 40 fenced plus at most the
     pending 5. *)
  let victim_items = List.length (Broker.Shard.to_list victim) in
  Alcotest.(check bool) "victim recovered a plausible prefix" true
    (victim_items >= per_stream && victim_items <= per_stream + 5)

(* Randomized evictions, several cycles: the broker keeps serving across
   repeated full-system crashes, with validation on every recovery. *)
let test_crash_cycles policy () =
  fresh_tid ();
  let rng = Random.State.make [| 11 |] in
  let service = Broker.Service.create ~shards:2 ~policy:Broker.Routing.Key_hash () in
  let seqs = Array.make 4 0 in
  for _cycle = 1 to 5 do
    for stream = 0 to 3 do
      let items =
        List.init 12 (fun i -> enc ~producer:stream ~seq:(seqs.(stream) + 1 + i))
      in
      seqs.(stream) <- seqs.(stream) + 12;
      match Broker.Service.enqueue_batch service ~stream items with
      | 12, Broker.Backpressure.Accepted -> ()
      | _ -> Alcotest.fail "batch rejected"
    done;
    let report =
      Broker.Recovery.crash_and_recover ~rng ~policy ~domains:2
        ~producer_of:Spec.Durable_check.producer_of service
    in
    if not (Broker.Recovery.ok report) then
      Alcotest.failf "cycle failed:@.%a" (fun ppf -> Broker.Recovery.pp ppf)
        report
  done;
  Alcotest.(check int) "everything fenced survived every crash"
    (4 * 5 * 12)
    (Broker.Service.total_depth service)

(* The validators must fire on bad state, not just pass on good state.
   A value enqueued on two different shards is cross-shard leakage: the
   default [check_unique] rejects it, and opting out with
   [~check_unique:false] (a workload with legitimately repeated values)
   accepts it. *)
let test_leakage_validator_fires () =
  fresh_tid ();
  let dup = enc ~producer:0 ~seq:1 in
  let run ~check_unique =
    fresh_tid ();
    let service = Broker.Service.create ~shards:2 () in
    (* Streams 0 and 1 pin to shards 0 and 1; the same value lands on
       both. *)
    List.iter
      (fun stream ->
        match Broker.Service.enqueue service ~stream dup with
        | Broker.Backpressure.Accepted -> ()
        | v -> Alcotest.failf "setup: %s" (Broker.Backpressure.verdict_name v))
      [ 0; 1 ];
    Broker.Recovery.crash_and_recover ~policy:Nvm.Crash.All_flushed
      ~domains:2 ~check_unique service
  in
  let strict = run ~check_unique:true in
  Alcotest.(check bool) "duplicate across shards rejected" false
    (Broker.Recovery.ok strict);
  (match strict.Broker.Recovery.leakage with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "leakage validator did not fire");
  let lax = run ~check_unique:false in
  Alcotest.(check bool) "check_unique:false accepts repeats" true
    (Broker.Recovery.ok lax)

(* A [producer_of] that disagrees with the routing must trip the
   routing-consistency validator: items whose claimed stream is pinned
   elsewhere read as cross-shard leaks. *)
let test_producer_of_mismatch_fires () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:2 () in
  (* Pin streams 0 -> shard 0 and 1 -> shard 1, then enqueue stream 0's
     items normally. *)
  ignore (Broker.Service.shard_of_stream service ~stream:0);
  ignore (Broker.Service.shard_of_stream service ~stream:1);
  for seq = 1 to 8 do
    match Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq) with
    | Broker.Backpressure.Accepted -> ()
    | v -> Alcotest.failf "setup: %s" (Broker.Backpressure.verdict_name v)
  done;
  (* A producer_of claiming every item belongs to stream 1 (pinned to
     the other shard) must fail shard 0's validation. *)
  let report =
    Broker.Recovery.crash_and_recover ~policy:Nvm.Crash.All_flushed ~domains:2
      ~producer_of:(fun _ -> 1)
      service
  in
  Alcotest.(check bool) "mismatching producer_of rejected" false
    (Broker.Recovery.ok report);
  let shard0 = report.Broker.Recovery.shards.(0) in
  (match shard0.Broker.Recovery.check with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "routing validator did not fire");
  (* The failed verdict fences shard 0 off before the service resumes,
     and neither the lift nor a drill over it lets it serve. *)
  Alcotest.(check (list int)) "failed shard quarantined" [ 0 ]
    (Broker.Service.quarantined_shards service);
  let stream0 () =
    Broker.Backpressure.verdict_name
      (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:9))
  in
  Alcotest.(check string) "its stream is unavailable" "unavailable"
    (stream0 ());
  let lift_refused what =
    match Broker.Service.clear_quarantine service ~shard:0 with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: the lift readmitted a failed recovery" what
  in
  lift_refused "after the failed recovery";
  Broker.Service.quarantine service ~shard:0 ~reason:"drill";
  lift_refused "after a drill over it";
  (* The honest producer_of accepts the same state (after re-recovery),
     and that passing verdict alone readmits the shard. *)
  let report =
    Broker.Recovery.crash_and_recover ~policy:Nvm.Crash.All_flushed ~domains:2
      ~producer_of:Spec.Durable_check.producer_of service
  in
  Alcotest.(check bool) "honest producer_of accepts" true
    (Broker.Recovery.ok report);
  Alcotest.(check (list int)) "readmitted by the passing recovery" []
    (Broker.Service.quarantined_shards service);
  Alcotest.(check string) "its stream serves again" "accepted" (stream0 ())

(* The supervisor's view of a failed verdict: the shard lands in
   [newly_quarantined], [pp] names it with its reason, and the next
   passing cycle readmits it.  A drilled shard whose recovery fails is
   not newly quarantined, but the supervisor still reads degraded. *)
let test_heal_failed_verdict () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:2 () in
  ignore (Broker.Service.shard_of_stream service ~stream:0);
  ignore (Broker.Service.shard_of_stream service ~stream:1);
  for seq = 1 to 4 do
    accept "setup"
      (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq))
  done;
  let heal producer_of =
    Broker.Supervisor.recover_and_heal ~policy:Nvm.Crash.All_flushed
      ~domains:2 ~producer_of service
  in
  let failed = heal (fun _ -> 1) in
  Alcotest.(check (list int)) "newly quarantined" [ 0 ]
    failed.Broker.Supervisor.newly_quarantined;
  Alcotest.(check bool) "degraded" false (Broker.Supervisor.healthy failed);
  let reason =
    match failed.Broker.Supervisor.recovery.Broker.Recovery.shards.(0)
            .Broker.Recovery.check
    with
    | Error reason -> reason
    | Ok () -> Alcotest.fail "shard 0 passed"
  in
  let line = Printf.sprintf "shard 0 QUARANTINED: %s" reason in
  Alcotest.(check bool)
    (Printf.sprintf "pp prints %S" line)
    true
    (List.mem line
       (String.split_on_char '\n'
          (Format.asprintf "%a" Broker.Supervisor.pp failed)));
  let healed = heal Spec.Durable_check.producer_of in
  Alcotest.(check bool) "healthy" true (Broker.Supervisor.healthy healed);
  Alcotest.(check (list int)) "readmitted" [ 0 ]
    healed.Broker.Supervisor.readmitted;
  Alcotest.(check (list int)) "nothing quarantined" []
    (Broker.Service.quarantined_shards service);
  Broker.Service.quarantine service ~shard:0 ~reason:"drill";
  let drilled = heal (fun _ -> 1) in
  Alcotest.(check (list int)) "a drilled shard is not newly quarantined" []
    drilled.Broker.Supervisor.newly_quarantined;
  Alcotest.(check bool) "a drilled shard's failed recovery is degraded"
    false
    (Broker.Supervisor.healthy drilled);
  Alcotest.(check bool) "pp prints degraded" true
    (List.mem "supervisor: degraded"
       (String.split_on_char '\n'
          (Format.asprintf "%a" Broker.Supervisor.pp drilled)));
  Alcotest.(check (list int)) "still quarantined" [ 0 ]
    (Broker.Service.quarantined_shards service)

(* A crash the NVM model refuses raises before any shard is touched, and
   leaves the service serving: a randomized policy without an rng, and a
   Fast-mode heap. *)
let test_refused_crash_keeps_serving () =
  List.iter
    (fun (what, mode) ->
      fresh_tid ();
      let service = Broker.Service.create ~shards:2 ~mode () in
      accept (what ^ ": before")
        (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:1));
      (match Broker.Recovery.crash_and_recover service with
      | _ -> Alcotest.failf "%s: the crash was not refused" what
      | exception Nvm.Crash.Error _ -> ());
      Alcotest.(check bool) (what ^ ": serving") true
        (Broker.Service.serving service);
      accept (what ^ ": after")
        (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:2)))
    [ ("no rng", Nvm.Heap.Checked); ("fast heap", Nvm.Heap.Fast) ]

(* -- quarantine ---------------------------------------------------------------- *)

let test_quarantine_verdicts () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:3 () in
  (* Pin three streams across the shards, then fence off stream 0's. *)
  List.iter
    (fun s -> ignore (Broker.Service.shard_of_stream service ~stream:s))
    [ 0; 1; 2 ];
  let victim = Broker.Service.shard_of_stream service ~stream:0 in
  Broker.Service.quarantine service ~shard:victim ~reason:"test";
  Alcotest.(check (list int)) "listed" [ victim ]
    (Broker.Service.quarantined_shards service);
  Alcotest.(check bool) "enqueue unavailable" true
    (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:1)
    = Broker.Backpressure.Unavailable);
  Alcotest.(check bool) "dequeue unavailable" true
    (Broker.Service.dequeue service ~stream:0 = Broker.Service.Unavailable);
  Alcotest.(check bool) "batch unavailable" true
    (snd (Broker.Service.enqueue_batch service ~stream:0 [ 1; 2 ])
    = Broker.Backpressure.Unavailable);
  Alcotest.(check bool) "batch dequeue unavailable" true
    (Broker.Service.dequeue_batch service ~stream:0 ~max:4
    = Broker.Service.Unavailable_batch);
  (* Other pinned streams are untouched. *)
  Alcotest.(check bool) "other stream accepted" true
    (Broker.Service.enqueue service ~stream:1 (enc ~producer:1 ~seq:1)
    = Broker.Backpressure.Accepted);
  (* dequeue_any skips the quarantined shard: only stream 1's item is
     reachable. *)
  (match Broker.Service.dequeue_any service with
  | Broker.Service.Item v ->
      Alcotest.(check int) "reachable item" (enc ~producer:1 ~seq:1) v
  | _ -> Alcotest.fail "expected stream 1's item");
  (* New streams route around the quarantine (Round_robin). *)
  for s = 10 to 15 do
    Alcotest.(check bool)
      (Printf.sprintf "stream %d avoids quarantined shard" s)
      true
      (Broker.Service.shard_of_stream service ~stream:s <> victim)
  done;
  lift service ~shard:victim;
  Alcotest.(check bool) "serves after clearing" true
    (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:1)
    = Broker.Backpressure.Accepted)

let test_supervisor_quarantine_readmit () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:2 () in
  fill service ~streams:4 ~per_stream:20 ~batch:5;
  let victim = Broker.Service.shard_of_stream service ~stream:0 in
  Broker.Service.quarantine service ~shard:victim ~reason:"drill";
  Alcotest.(check bool) "pinned stream unavailable" true
    (Broker.Service.dequeue service ~stream:0 = Broker.Service.Unavailable);
  (* A clean crash-recovery cycle auto-readmits the drilled shard. *)
  let heal =
    Broker.Supervisor.recover_and_heal ~policy:Nvm.Crash.Only_persisted
      ~domains:2 ~producer_of:Spec.Durable_check.producer_of service
  in
  Alcotest.(check bool) "healthy" true (Broker.Supervisor.healthy heal);
  Alcotest.(check (list int)) "victim readmitted" [ victim ]
    heal.Broker.Supervisor.readmitted;
  Alcotest.(check (list int)) "nothing newly quarantined" []
    heal.Broker.Supervisor.newly_quarantined;
  Alcotest.(check int) "no items lost across the drill" (4 * 20)
    (Broker.Service.total_depth service);
  (match Broker.Service.dequeue service ~stream:0 with
  | Broker.Service.Item v ->
      Alcotest.(check int) "pinned stream serves its FIFO head again"
        (enc ~producer:0 ~seq:1) v
  | _ -> Alcotest.fail "pinned stream did not serve after readmission");
  (* Manual path: the operator lifts a second drill. *)
  Broker.Service.quarantine service ~shard:victim ~reason:"again";
  lift service ~shard:victim;
  Alcotest.(check (list int)) "quarantine lifted" []
    (Broker.Service.quarantined_shards service)

(* Drill flapping: quarantine / lift cycled on one shard while producer
   domains keep the other shard's combining front-end hot.  Nothing may
   leak across the flaps — every announce slot must return to idle, a
   second lift must be refused on every cycle, and the items accepted
   while the drills ran must survive in per-stream FIFO order. *)
let test_quarantine_flapping () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:2 ~combining:true () in
  let victim = Broker.Service.shard_of_stream service ~stream:0 in
  (* Two live streams pinned to the shard that stays in service. *)
  let live =
    List.filter
      (fun s -> Broker.Service.shard_of_stream service ~stream:s <> victim)
      [ 1; 2; 3; 4 ]
    |> fun l -> [ List.nth l 0; List.nth l 1 ]
  in
  let per_stream = 300 in
  let producer stream () =
    for seq = 1 to per_stream do
      let rec go () =
        match Broker.Service.enqueue service ~stream (enc ~producer:stream ~seq) with
        | Broker.Backpressure.Accepted -> ()
        | _ ->
            Unix.sleepf 0.0002;
            go ()
      in
      go ()
    done
  in
  let domains = List.map (fun s -> Domain.spawn (producer s)) live in
  let victim_seq = ref 0 in
  for cycle = 1 to 12 do
    Broker.Service.quarantine service ~shard:victim
      ~reason:(Printf.sprintf "flap %d" cycle);
    Alcotest.(check bool)
      (Printf.sprintf "cycle %d: victim fenced" cycle)
      true
      (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:9999)
      = Broker.Backpressure.Unavailable);
    (match Broker.Service.clear_quarantine service ~shard:victim with
    | Ok () -> ()
    | Error e -> Alcotest.failf "cycle %d: lift failed: %s" cycle e);
    (match Broker.Service.clear_quarantine service ~shard:victim with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "cycle %d: double lift slipped through" cycle);
    (* Between flaps the victim serves again: grow its FIFO a little. *)
    incr victim_seq;
    Alcotest.(check bool)
      (Printf.sprintf "cycle %d: victim serves after readmit" cycle)
      true
      (Broker.Service.enqueue service ~stream:0
         (enc ~producer:0 ~seq:!victim_seq)
      = Broker.Backpressure.Accepted)
  done;
  (* Lifting a shard that was never quarantined is an error too. *)
  (match Broker.Service.clear_quarantine service ~shard:(1 - victim) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "lift of a healthy shard slipped through");
  List.iter Domain.join domains;
  Alcotest.(check (list int)) "no shard left quarantined" []
    (Broker.Service.quarantined_shards service);
  (* Quiescent audit: no announce slot leaked across the flapping. *)
  Array.iter
    (fun sh ->
      Alcotest.(check (option bool)) "combining slots all idle" (Some true)
        (Broker.Shard.combining_idle sh))
    (Broker.Service.shards service);
  (* Conservation and order: every accepted item is still there, FIFO
     per stream. *)
  Alcotest.(check int) "accepted items conserved"
    ((2 * per_stream) + !victim_seq)
    (Broker.Service.total_depth service);
  let contents = Broker.Service.to_lists service in
  List.iter
    (fun stream ->
      Alcotest.(check (list int))
        (Printf.sprintf "stream %d FIFO intact" stream)
        (List.init per_stream (fun i -> enc ~producer:stream ~seq:(i + 1)))
        (List.filter
           (fun v -> Spec.Durable_check.producer_of v = stream)
           contents.(Broker.Service.shard_of_stream service ~stream)))
    live

(* -- consumer fence budget ---------------------------------------------------- *)

let service_fences service =
  Array.fold_left
    (fun acc s ->
      acc
      + (Nvm.Stats.total (Nvm.Heap.stats (Broker.Shard.heap s)))
          .Nvm.Stats.fences)
    0 (Broker.Service.shards service)

let fences_during service f =
  let f0 = service_fences service in
  f ();
  service_fences service - f0

let publish service ~stream n =
  for seq = 1 to n do
    accept "publish"
      (Broker.Service.enqueue service ~stream (enc ~producer:stream ~seq))
  done

let consume service ~stream n =
  for _ = 1 to n do
    match Broker.Service.dequeue service ~stream with
    | Broker.Service.Item _ -> ()
    | _ -> Alcotest.fail "expected an item"
  done

(* Dequeue until the stream's shard reports no item; the seqs, in order. *)
let drain_seqs service ~stream =
  let rec go acc =
    match Broker.Service.dequeue service ~stream with
    | Broker.Service.Item v -> go (Spec.Durable_check.seq_of v :: acc)
    | _ -> List.rev acc
  in
  go []

(* Blocking fences a consumer pays.  A strict dequeue persists its
   removal behind one fence; a buffered dequeue persists nothing, and
   neither does a probe of a strict tier that every earlier emptying
   dequeue has already persisted — so neither may fence. *)
let test_consumer_fence_budget () =
  fresh_tid ();
  let leader =
    Broker.Service.create ~shards:1 ~acks:Broker.Service.Acks_leader ()
  in
  publish leader ~stream:0 10;
  Broker.Service.sync_all leader;
  Alcotest.(check int) "10 buffered dequeues: no fence" 0
    (fences_during leader (fun () -> consume leader ~stream:0 10));
  fresh_tid ();
  let strict = Broker.Service.create ~shards:1 () in
  publish strict ~stream:0 10;
  Alcotest.(check int) "10 strict dequeues: one fence each" 10
    (fences_during strict (fun () -> consume strict ~stream:0 10));
  Alcotest.(check int) "strict-only dequeue after a returned emptying one" 0
    (fences_during strict (fun () ->
         match Broker.Service.dequeue strict ~stream:0 with
         | Broker.Service.Empty -> ()
         | _ -> Alcotest.fail "expected Empty"));
  fresh_tid ();
  let empty = Broker.Service.create ~shards:2 ~buffered:true () in
  Alcotest.(check int) "dequeue_any over two empty shards: no fence" 0
    (fences_during empty (fun () ->
         for _ = 1 to 4 do
           match Broker.Service.dequeue_any empty with
           | Broker.Service.Empty -> ()
           | _ -> Alcotest.fail "expected Empty"
         done))

(* [max <= 0] asks for nothing: no item leaves either tier. *)
let test_dequeue_batch_max_zero () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:1 () in
  publish service ~stream:0 2;
  List.iter
    (fun max ->
      match Broker.Service.dequeue_batch service ~stream:0 ~max with
      | Broker.Service.Items [] -> ()
      | Broker.Service.Items l ->
          Alcotest.failf "max:%d removed %d items" max (List.length l)
      | Broker.Service.Busy_batch | Broker.Service.Unavailable_batch ->
          Alcotest.fail "unexpected verdict")
    [ 0; -1 ];
  Alcotest.(check int) "depth" 2 (Broker.Service.total_depth service);
  Alcotest.(check (list int)) "contents"
    [ enc ~producer:0 ~seq:1; enc ~producer:0 ~seq:2 ]
    (Broker.Service.to_lists service).(0)

(* -- the empty-tier skip is crash-safe ---------------------------------------- *)

type _ Effect.t += Power_cut : unit Effect.t

(* Run [f] until it performs [Power_cut].  The continuation is dropped,
   so the interrupted thread never runs another step — not even its
   unwinders (the batch's closing fence among them).  Returns whether
   the cut happened. *)
let run_until_power_cut f =
  Effect.Deep.match_with f ()
    {
      retc = (fun _ -> false);
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Power_cut ->
              Some (fun (_ : (a, bool) Effect.Deep.continuation) -> true)
          | _ -> None);
    }

(* A batch takes the strict tier's last item x, and the power fails
   before its closing fence: x's removal is not yet durable.  A second
   consumer that meanwhile found the tier empty has returned, so its
   empty verdict must survive the crash — x must not come back.  The
   batch must therefore keep the bound positive until its closing fence,
   so the second consumer probes and persists the head index itself. *)
let test_skip_crash_safe_batch () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:1 () in
  let shard = (Broker.Service.shards service).(0) in
  let heap = Broker.Shard.heap shard in
  let x = enc ~producer:0 ~seq:1 in
  accept "enqueue x" (Broker.Service.enqueue service ~stream:0 x);
  let spans = Nvm.Heap.spans heap in
  let dequeues () =
    match Nvm.Span.find_aggregate spans Dq.Instrumented.deq_label with
    | Some a -> a.Nvm.Span.count
    | None -> 0
  in
  let d0 = dequeues () and cut = ref false in
  (* Cut at the batch's first memory step after the dequeue that took x
     returned: its next probe, or its closing fence. *)
  Nvm.Heap.set_step_hook heap
    (Some
       (fun () ->
         if (not !cut) && dequeues () > d0 then begin
           cut := true;
           Effect.perform Power_cut
         end));
  let stopped =
    run_until_power_cut (fun () -> Broker.Shard.dequeue_batch shard ~max:2)
  in
  Nvm.Heap.set_step_hook heap None;
  Alcotest.(check bool) "batch cut before its closing fence" true stopped;
  Nvm.Tid.set (Nvm.Tid.get () + 1);
  let second = Broker.Shard.dequeue shard in
  Alcotest.(check (option int)) "second consumer finds the tier empty" None
    second;
  let report =
    Broker.Recovery.crash_and_recover ~policy:Nvm.Crash.Only_persisted
      ~domains:1 ~producer_of:Spec.Durable_check.producer_of service
  in
  Alcotest.(check bool) "report ok" true (Broker.Recovery.ok report);
  Alcotest.(check (list int)) "x stays dequeued" []
    (Broker.Shard.to_list shard);
  Alcotest.(check int) "bound re-seated" 0 (Broker.Shard.strict_bound shard)

(* Random sequential schedules on 2 two-tier shards against an exact
   model, enqueueing singly and in batches.  Streams 0 and 1 publish at
   acks=all-synced, 2 and 3 at acks=leader; Round_robin pins stream s to
   shard s mod 2, so each shard holds one stream per tier.  Between
   crashes every operation's outcome is exact: strict first, FIFO per
   tier, [dequeue_any] sweeping from its rotating cursor.  A crash must
   keep the strict tier exactly (no acknowledged item lost, no delivered
   one back) and revert the buffered tier to some commit's snapshot no
   older than the last sync.  At every quiescent point the strict bound
   equals the strict tier's length and the depth gauge the shard's item
   count. *)
type tier_model = {
  strict : int Queue.t;
  mutable journal : int list;  (* buffered items since the last recovery *)
  mutable consumed : int;  (* journal items dequeued *)
  mutable synced_floor : int;  (* journal length at the last sync *)
  mutable synced_consumed : int;
}

let strict_stream stream = stream < 2

let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l)

let take_model m =
  if not (Queue.is_empty m.strict) then Some (Queue.pop m.strict)
  else if m.consumed < List.length m.journal then begin
    let v = List.nth m.journal m.consumed in
    m.consumed <- m.consumed + 1;
    Some v
  end
  else None

let model_contents m =
  List.of_seq (Queue.to_seq m.strict) @ drop m.consumed m.journal

(* The recovered buffered tier is a commit's snapshot: the journal slice
   [c, f) with c and f no older than the last sync and no newer than
   now. *)
let check_cut m recovered =
  let n = List.length m.journal and k = List.length recovered in
  let fits c =
    c >= m.synced_consumed && c <= m.consumed
    && c + k >= m.synced_floor && c + k <= n
    && List.filteri (fun i _ -> i >= c && i < c + k) m.journal = recovered
  in
  List.exists fits (List.init (n + 1) Fun.id)

let run_schedule ~seed ~steps =
  fresh_tid ();
  let rng = Random.State.make [| seed |] in
  let service = Broker.Service.create ~shards:2 ~buffered:true () in
  for stream = 0 to 3 do
    ignore (Broker.Service.shard_of_stream service ~stream);
    if not (strict_stream stream) then
      Broker.Service.set_stream_acks service ~stream
        Broker.Service.Acks_leader
  done;
  let models =
    Array.init 2 (fun _ ->
        {
          strict = Queue.create ();
          journal = [];
          consumed = 0;
          synced_floor = 0;
          synced_consumed = 0;
        })
  in
  let seqs = Array.make 4 0 and sweeps = ref 0 in
  let shard_of stream = Broker.Service.shard_of_stream service ~stream in
  let fail fmt = QCheck.Test.fail_reportf ("seed %d: " ^^ fmt) seed in
  let expect what exp got =
    if exp <> got then
      fail "%s: expected [%s], got [%s]" what
        (String.concat ";" (List.map string_of_int exp))
        (String.concat ";" (List.map string_of_int got))
  in
  for step = 1 to steps do
    let stream = Random.State.int rng 4 in
    let m = models.(shard_of stream) in
    (match Random.State.int rng 100 with
    | r when r < 35 ->
        let n = 1 + Random.State.int rng 3 in
        let items =
          List.init n (fun i ->
              enc ~producer:stream ~seq:(seqs.(stream) + 1 + i))
        in
        seqs.(stream) <- seqs.(stream) + n;
        (match items with
        | [ v ] -> accept "enqueue" (Broker.Service.enqueue service ~stream v)
        | _ ->
            let k, v = Broker.Service.enqueue_batch service ~stream items in
            accept "enqueue_batch" v;
            if k <> n then fail "enqueue_batch took %d of %d" k n);
        if strict_stream stream then
          List.iter (fun v -> Queue.push v m.strict) items
        else m.journal <- m.journal @ items
    | r when r < 55 ->
        let got =
          match Broker.Service.dequeue service ~stream with
          | Broker.Service.Item v -> [ v ]
          | _ -> []
        in
        expect "dequeue" (Option.to_list (take_model m)) got
    | r when r < 70 ->
        let max = Random.State.int rng 6 - 1 in
        let exp =
          List.filter_map take_model (List.init (Int.max max 0) (fun _ -> m))
        in
        let got =
          match Broker.Service.dequeue_batch service ~stream ~max with
          | Broker.Service.Items l -> l
          | _ -> fail "dequeue_batch refused"
        in
        expect (Printf.sprintf "dequeue_batch ~max:%d" max) exp got
    | r when r < 80 ->
        let start = !sweeps in
        incr sweeps;
        let exp =
          List.find_map
            (fun i -> take_model models.((start + i) mod 2))
            [ 0; 1 ]
        in
        let got =
          match Broker.Service.dequeue_any service with
          | Broker.Service.Item v -> [ v ]
          | _ -> []
        in
        expect "dequeue_any" (Option.to_list exp) got
    | r when r < 90 ->
        Broker.Service.sync_all service;
        Array.iter
          (fun m ->
            m.synced_floor <- List.length m.journal;
            m.synced_consumed <- m.consumed)
          models
    | _ ->
        let policy =
          if Random.State.bool rng then Nvm.Crash.Only_persisted
          else Nvm.Crash.Random_evictions
        in
        let report =
          Broker.Recovery.crash_and_recover
            ~rng:(Random.State.make [| seed; step |])
            ~policy ~domains:1 ~producer_of:Spec.Durable_check.producer_of
            service
        in
        if not (Broker.Recovery.ok report) then
          fail "step %d: recovery check failed" step;
        Array.iteri
          (fun i sh ->
            let m = models.(i) in
            let contents = Broker.Shard.to_list sh in
            (match
               Spec.Durable_check.check_producer_order "recovered" contents
             with
            | Ok () -> ()
            | Error e -> fail "step %d: %s" step e);
            let strict, buffered =
              List.partition
                (fun v -> strict_stream (Spec.Durable_check.producer_of v))
                contents
            in
            expect "tier order" (strict @ buffered) contents;
            expect
              (Printf.sprintf "step %d: shard %d strict tier after %s" step i
                 (Nvm.Crash.policy_name policy))
              (List.of_seq (Queue.to_seq m.strict))
              strict;
            if not (check_cut m buffered) then
              fail "step %d: shard %d buffered tier is no synced snapshot"
                step i;
            m.journal <- buffered;
            m.consumed <- 0;
            m.synced_floor <- List.length buffered;
            m.synced_consumed <- 0)
          (Broker.Service.shards service));
    Array.iteri
      (fun i sh ->
        let m = models.(i) in
        expect (Printf.sprintf "step %d: shard %d contents" step i)
          (model_contents m) (Broker.Shard.to_list sh);
        if Broker.Shard.strict_bound sh <> Queue.length m.strict then
          fail "step %d: shard %d bound %d, strict tier %d" step i
            (Broker.Shard.strict_bound sh) (Queue.length m.strict);
        let items = List.length (model_contents m) in
        if Broker.Shard.depth sh <> items then
          fail "step %d: shard %d depth %d, %d items" step i
            (Broker.Shard.depth sh) items;
        (* Every journal line commits inside the append that fills it. *)
        if Broker.Shard.durability_lag sh >= 7 then
          fail "step %d: shard %d durability lag %d, a whole line" step i
            (Broker.Shard.durability_lag sh))
      (Broker.Service.shards service)
  done;
  true

let prop_bound_schedules =
  QCheck.Test.make ~count:60
    ~name:"random two-tier schedules with crashes keep the strict bound exact"
    QCheck.(
      make
        ~print:(fun (seed, steps) ->
          Printf.sprintf "seed=%d steps=%d" seed steps)
        Gen.(pair (int_bound 100_000) (int_range 10 60)))
    (fun (seed, steps) -> run_schedule ~seed ~steps)

(* A quarantined shard keeps its strict items; once re-admitted (after a
   drill alone, and after a crash recovered while it was fenced off) it
   must deliver them, strict tier first. *)
let test_readmit_delivers_strict () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:2 ~buffered:true () in
  ignore (Broker.Service.shard_of_stream service ~stream:0);
  ignore (Broker.Service.shard_of_stream service ~stream:1);
  Broker.Service.set_stream_acks service ~stream:2 Broker.Service.Acks_leader;
  let victim = Broker.Service.shard_of_stream service ~stream:0 in
  Alcotest.(check int) "leader stream shares the shard" victim
    (Broker.Service.shard_of_stream service ~stream:2);
  publish service ~stream:2 3;
  publish service ~stream:0 6;
  Broker.Service.sync_all service;
  consume service ~stream:0 2;
  let deliver what seqs =
    List.iter
      (fun seq ->
        match Broker.Service.dequeue service ~stream:0 with
        | Broker.Service.Item v ->
            Alcotest.(check int) what (enc ~producer:0 ~seq) v
        | _ -> Alcotest.failf "%s: seq %d not delivered" what seq)
      seqs
  in
  Broker.Service.quarantine service ~shard:victim ~reason:"drill";
  lift service ~shard:victim;
  deliver "after a drill" [ 3; 4 ];
  Broker.Service.quarantine service ~shard:victim ~reason:"again";
  let report =
    Broker.Recovery.crash_and_recover ~policy:Nvm.Crash.Only_persisted
      ~domains:1 ~producer_of:Spec.Durable_check.producer_of service
  in
  Alcotest.(check bool) "report ok" true (Broker.Recovery.ok report);
  Alcotest.(check bool) "a drill outlives a passing recovery" true
    (Broker.Service.shard_quarantined service ~shard:victim);
  let shard = (Broker.Service.shards service).(victim) in
  Alcotest.(check int) "bound re-seated by the recovery" 2
    (Broker.Shard.strict_bound shard);
  lift service ~shard:victim;
  deliver "after a crash" [ 5; 6 ];
  match Broker.Service.dequeue service ~stream:0 with
  | Broker.Service.Item v ->
      Alcotest.(check int) "then the buffered tier" (enc ~producer:2 ~seq:1) v
  | _ -> Alcotest.fail "buffered items stranded"

(* Demoting a live stream (strict to buffered) keeps its FIFO: its older
   items sit on the strict tier, which drains first.  Singles and a batch
   after the demotion, then a crash that keeps only what was persisted,
   must still deliver 1..8 in order. *)
let test_demotion_keeps_fifo () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:1 ~buffered:true () in
  publish service ~stream:0 3;
  Broker.Service.set_stream_acks service ~stream:0 Broker.Service.Acks_leader;
  List.iter
    (fun seq ->
      accept "leader enqueue"
        (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq)))
    [ 4; 5; 6 ];
  let n, v =
    Broker.Service.enqueue_batch service ~stream:0
      [ enc ~producer:0 ~seq:7; enc ~producer:0 ~seq:8 ]
  in
  accept "leader batch" v;
  Alcotest.(check int) "batch taken whole" 2 n;
  Broker.Service.sync_all service;
  let report =
    Broker.Recovery.crash_and_recover ~policy:Nvm.Crash.Only_persisted
      ~domains:1 ~producer_of:Spec.Durable_check.producer_of service
  in
  Alcotest.(check bool) "report ok" true (Broker.Recovery.ok report);
  Alcotest.(check (list int)) "1..8 in order" (List.init 8 succ)
    (drain_seqs service ~stream:0)

(* Promoting a stream (buffered to strict) keeps its FIFO too: items 1
   and 2 sit synced on the buffered tier when the stream goes back to
   all-synced, so item 3 must join them there, durable on return. *)
let test_promotion_keeps_fifo () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:1 ~buffered:true () in
  Broker.Service.set_stream_acks service ~stream:0 Broker.Service.Acks_leader;
  publish service ~stream:0 2;
  Broker.Service.sync_all service;
  Broker.Service.set_stream_acks service ~stream:0
    Broker.Service.Acks_all_synced;
  accept "promoted enqueue"
    (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:3));
  Alcotest.(check int) "durable on return" 0
    (Broker.Service.total_durability_lag service);
  Alcotest.(check (list int)) "1 2 3" [ 1; 2; 3 ] (drain_seqs service ~stream:0)

(* The costs behind DESIGN §12.3 "One tier per shard?": persists per
   enqueue, 64 enqueues on one shard (Latency.off), for an all-synced
   stream on the strict tier, for one placed on the journal (each item
   appended, then synced) and, for reference, for a leader stream.  A
   sync seals the tail line, so an all-synced item costs one fence and
   one flush on either tier; on the journal each append but a fresh
   line's first also writes the line the previous sync flushed. *)
let test_all_synced_cost_per_tier () =
  let per_op ~acks ~placed =
    fresh_tid ();
    let service = Broker.Service.create ~shards:1 ~buffered:true () in
    if placed then begin
      Broker.Service.set_stream_acks service ~stream:0 Broker.Service.Acks_none;
      accept "placing enqueue"
        (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:0));
      Broker.Service.sync_all service
    end;
    Broker.Service.set_stream_acks service ~stream:0 acks;
    let heap = Broker.Shard.heap (Broker.Service.shards service).(0) in
    let before = Nvm.Stats.snapshot (Nvm.Heap.stats heap) in
    for seq = 1 to 64 do
      accept "enqueue"
        (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq))
    done;
    let d = Nvm.Stats.diff_total (Nvm.Heap.stats heap) ~since:before in
    List.map
      (fun n -> float_of_int n /. 64.)
      [
        d.Nvm.Stats.fences;
        d.Nvm.Stats.flushes;
        Nvm.Stats.post_flush_accesses d;
      ]
  in
  let row = Alcotest.(list (float 1e-9)) in
  Alcotest.check row "all-synced, strict tier: fences, flushes, post-flush"
    [ 1.; 1.; 0. ]
    (per_op ~acks:Broker.Service.Acks_all_synced ~placed:false);
  Alcotest.check row "all-synced, journal (append + sync)"
    [ 1.; 1.; 55. /. 64. ]
    (per_op ~acks:Broker.Service.Acks_all_synced ~placed:true);
  Alcotest.check row "leader, journal"
    [ 9. /. 64.; 9. /. 64.; 0. ]
    (per_op ~acks:Broker.Service.Acks_leader ~placed:false)

(* A drained buffered tier is not enough to move a stream back to the
   strict tier: the dequeues of 1 and 2 are not committed, so a crash
   brings them back, and they must still come out ahead of 3. *)
let test_promotion_after_drain_crash policy () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:1 ~buffered:true () in
  Broker.Service.set_stream_acks service ~stream:0 Broker.Service.Acks_leader;
  publish service ~stream:0 2;
  Broker.Service.sync_all service;
  consume service ~stream:0 2;
  Broker.Service.set_stream_acks service ~stream:0
    Broker.Service.Acks_all_synced;
  accept "promoted enqueue"
    (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:3));
  let report =
    Broker.Recovery.crash_and_recover ~policy ~domains:1
      ~producer_of:Spec.Durable_check.producer_of service
  in
  if not (Broker.Recovery.ok report) then
    Alcotest.failf "%a" Broker.Recovery.pp report;
  Alcotest.(check (list int)) "3" [ 3 ] (drain_seqs service ~stream:0)

(* Tier changes keep per-stream FIFO under any schedule.  Random
   single-writer schedules on a 1- or 2-shard two-tier service with two
   streams mix enqueues, batches, level changes in both directions,
   dequeues, syncs and crashes.  Three checks: within each crash epoch
   each stream's dequeues come out in seq order (a crash may bring back
   buffered dequeues no commit covered, so the order restarts with each
   epoch); every recovery report is OK; and no item acknowledged at
   all-synced, or covered by a returned sync, is lost — after each crash
   it is recovered or was dequeued before. *)
type tier_step =
  | T_enq of int
  | T_batch of int * int
  | T_acks of int * Broker.Service.acks
  | T_deq of int
  | T_sync of int
  | T_sync_all
  | T_crash of Nvm.Crash.policy

let show_tier_step = function
  | T_enq s -> Printf.sprintf "enq %d" s
  | T_batch (s, n) -> Printf.sprintf "batch %d x%d" s n
  | T_acks (s, l) -> Printf.sprintf "acks %d %s" s (Broker.Service.acks_name l)
  | T_deq s -> Printf.sprintf "deq %d" s
  | T_sync s -> Printf.sprintf "sync %d" s
  | T_sync_all -> "sync_all"
  | T_crash p -> "crash " ^ Nvm.Crash.policy_name p

let arb_tier_schedule =
  let step =
    QCheck.Gen.(
      let stream = int_bound 1 in
      frequency
        [
          (4, map (fun s -> T_enq s) stream);
          (2, map2 (fun s n -> T_batch (s, n)) stream (int_range 2 3));
          ( 3,
            map2
              (fun s l -> T_acks (s, l))
              stream
              (oneofl
                 Broker.Service.[ Acks_none; Acks_leader; Acks_all_synced ]) );
          (4, map (fun s -> T_deq s) stream);
          (1, map (fun s -> T_sync s) stream);
          (1, return T_sync_all);
          ( 1,
            map
              (fun p -> T_crash p)
              (oneofl Nvm.Crash.[ All_flushed; Only_persisted ]) );
        ])
  in
  QCheck.make
    ~print:(fun (shards, steps) ->
      Printf.sprintf "%d shard(s): %s" shards
        (String.concat "; " (List.map show_tier_step steps)))
    ~shrink:(fun (shards, steps) yield ->
      (* The stock list shrinker never drops a single step from the
         back half; trying each step in turn reaches a minimal
         schedule. *)
      QCheck.Shrink.list steps (fun l -> yield (shards, l));
      List.iteri
        (fun i _ -> yield (shards, List.filteri (fun j _ -> j <> i) steps))
        steps;
      if shards = 2 then yield (1, steps))
    QCheck.Gen.(pair (int_range 1 2) (list_size (int_range 1 40) step))

let run_tier_schedule (shards, steps) =
  fresh_tid ();
  let service = Broker.Service.create ~shards ~buffered:true () in
  let seqs = Array.make 2 0 in
  let unsynced = Array.make 2 [] in
  let acked = Hashtbl.create 64 and delivered = Hashtbl.create 64 in
  let epoch = ref [] in
  let ack v = Hashtbl.replace acked v () in
  let fail i fmt = QCheck.Test.fail_reportf ("step %d: " ^^ fmt) i in
  let enqueue i stream n =
    let items =
      List.init n (fun k -> enc ~producer:stream ~seq:(seqs.(stream) + 1 + k))
    in
    seqs.(stream) <- seqs.(stream) + n;
    let level = Broker.Service.stream_acks service ~stream in
    (match Broker.Service.enqueue_batch service ~stream items with
    | k, Broker.Backpressure.Accepted when k = n -> ()
    | k, v ->
        fail i "enqueue took %d of %d: %s" k n
          (Broker.Backpressure.verdict_name v));
    if level = Broker.Service.Acks_all_synced then List.iter ack items
    else unsynced.(stream) <- items @ unsynced.(stream)
  in
  let synced stream =
    List.iter ack unsynced.(stream);
    unsynced.(stream) <- []
  in
  List.iteri
    (fun i step ->
      let i = i + 1 in
      match step with
      | T_enq s -> enqueue i s 1
      | T_batch (s, n) -> enqueue i s n
      | T_acks (s, l) -> Broker.Service.set_stream_acks service ~stream:s l
      | T_deq s -> (
          match Broker.Service.dequeue service ~stream:s with
          | Broker.Service.Item v -> (
              Hashtbl.replace delivered v ();
              epoch := v :: !epoch;
              match
                Spec.Durable_check.check_producer_order "dequeues"
                  (List.rev !epoch)
              with
              | Ok () -> ()
              | Error e -> fail i "%s" e)
          | _ -> ())
      | T_sync s ->
          if Broker.Service.sync_stream service ~stream:s
             = Broker.Backpressure.Accepted
          then synced s
      | T_sync_all ->
          Broker.Service.sync_all service;
          synced 0;
          synced 1
      | T_crash policy ->
          let report =
            Broker.Recovery.crash_and_recover ~policy ~domains:1
              ~producer_of:Spec.Durable_check.producer_of service
          in
          if not (Broker.Recovery.ok report) then
            fail i "%a" Broker.Recovery.pp report;
          let contents =
            List.concat (Array.to_list (Broker.Service.to_lists service))
          in
          Hashtbl.iter
            (fun v () ->
              if not (Hashtbl.mem delivered v || List.mem v contents) then
                fail i "acknowledged %d/%d lost"
                  (Spec.Durable_check.producer_of v)
                  (Spec.Durable_check.seq_of v))
            acked;
          epoch := [];
          unsynced.(0) <- [];
          unsynced.(1) <- [])
    steps;
  true

let prop_tier_changes =
  QCheck.Test.make ~count:200
    ~name:"random tier changes keep per-stream FIFO across crashes"
    arb_tier_schedule run_tier_schedule

(* Recovery allocates no region.  A two-shard service with a strict and
   a leader stream on each shard runs a thousand cycles of publish 10
   per stream, drain, sync, crash and [recover_and_heal]: every cycle
   must heal cleanly and leave each shard's live-region count where
   cycle 1 left it. *)
let test_heal_cycles_bounded_heap () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:2 ~buffered:true () in
  for stream = 0 to 3 do
    ignore (Broker.Service.shard_of_stream service ~stream)
  done;
  Broker.Service.set_stream_acks service ~stream:2 Broker.Service.Acks_leader;
  Broker.Service.set_stream_acks service ~stream:3 Broker.Service.Acks_leader;
  let live () =
    Array.map
      (fun s -> Nvm.Stats.live_regions (Broker.Shard.occupancy s))
      (Broker.Service.shards service)
  in
  let after_first = ref [||] in
  for cycle = 1 to 1_000 do
    for stream = 0 to 3 do
      for i = 1 to 10 do
        accept "publish"
          (Broker.Service.enqueue service ~stream
             (enc ~producer:stream ~seq:((10 * (cycle - 1)) + i)))
      done
    done;
    for stream = 0 to 3 do
      consume service ~stream 10
    done;
    Broker.Service.sync_all service;
    let heal =
      Broker.Supervisor.recover_and_heal
        ~rng:(Random.State.make [| cycle |])
        ~policy:Nvm.Crash.All_flushed ~domains:1
        ~producer_of:Spec.Durable_check.producer_of service
    in
    if not (Broker.Supervisor.healthy heal) then
      Alcotest.failf "cycle %d: %a" cycle Broker.Supervisor.pp heal;
    if cycle = 1 then after_first := live ()
    else if live () <> !after_first then
      Alcotest.failf "cycle %d: live regions per shard [%s], [%s] after cycle 1"
        cycle
        (String.concat "; " (Array.to_list (Array.map string_of_int (live ()))))
        (String.concat "; "
           (Array.to_list (Array.map string_of_int !after_first)))
  done

(* -- sharded harness runner ---------------------------------------------------- *)

let test_sharded_runner_smoke () =
  let cfg =
    {
      Load.Sharded.default_config with
      threads = 2;
      shards = 2;
      ops_per_thread = 400;
      batch = 4;
    }
  in
  let r = Load.Sharded.run cfg in
  Alcotest.(check int) "ops" 800 r.Load.Sharded.total_ops;
  (* ~1 fence per batch; cold allocator area growth may add a couple. *)
  Alcotest.(check bool) "about one fence per batch" true
    (r.Load.Sharded.fences_per_op >= 0.25
    && r.Load.Sharded.fences_per_op <= 0.26);
  Alcotest.(check (float 0.001)) "no post-flush" 0.
    r.Load.Sharded.post_flush_per_op;
  Alcotest.(check bool) "modeled throughput positive" true
    (r.Load.Sharded.model_mops > 0.)

(* -- exactly-once: the derived dedup index ------------------------------------ *)

(* One shard with the offset maps; stream 0 (producer 0) publishes at
   [acks]. *)
let once_service acks =
  fresh_tid ();
  let svc =
    Broker.Service.create ~shards:1 ~offsets:true
      ~buffered:(acks <> Broker.Service.Acks_all_synced)
      ()
  in
  Broker.Service.set_stream_acks svc ~stream:0 acks;
  svc

let once_name = function
  | Broker.Service.Enqueued -> "enqueued"
  | Broker.Service.Duplicate -> "duplicate"
  | Broker.Service.Rejected v -> "rejected " ^ Broker.Backpressure.verdict_name v

let publish svc ~seq =
  once_name (Broker.Service.enqueue_once svc ~stream:0 (enc ~producer:0 ~seq))

let crash_ok what ~policy ~rng svc =
  let report =
    Broker.Recovery.crash_and_recover ~rng ~policy ~domains:1
      ~producer_of:Spec.Durable_check.producer_of svc
  in
  if not (Broker.Recovery.ok report) then
    Alcotest.failf "%s: %a" what Broker.Recovery.pp report

(* Stream 0's sequences as [group] receives them. *)
let drain_committed ?(group = 1) svc =
  let rec go acc =
    match Broker.Service.dequeue_committed svc ~stream:0 ~group with
    | Broker.Service.Item v -> go (Spec.Durable_check.seq_of v :: acc)
    | Broker.Service.Empty -> List.rev acc
    | _ -> Alcotest.fail "unexpected dequeue verdict"
  in
  go []

(* An item the crash kept reads Duplicate on retry, however it was
   published: seq 3 goes in by a plain enqueue, which never touches the
   index.  Recovery derives the index from the items the shard holds,
   so the retry reads Duplicate and the next recovery finds one copy of
   seq 3, not two. *)
let test_recordless_survivor () =
  let svc = once_service Broker.Service.Acks_all_synced in
  let policy = Nvm.Crash.Only_persisted and rng = Random.State.make [| 1 |] in
  List.iter
    (fun seq -> Alcotest.(check string) "publish" "enqueued" (publish svc ~seq))
    [ 1; 2 ];
  accept "record-less seq 3"
    (Broker.Service.enqueue svc ~stream:0 (enc ~producer:0 ~seq:3));
  crash_ok "first recovery" ~policy ~rng svc;
  Alcotest.(check string) "retry of the survivor" "duplicate"
    (publish svc ~seq:3);
  crash_ok "second recovery" ~policy ~rng svc;
  Alcotest.(check (list int)) "each delivered once" [ 1; 2; 3 ]
    (drain_committed svc)

(* The index is derived, not stored: recovering five record-less items
   of two producers, twice, puts nothing into the offset map, and both
   producers' retries still read Duplicate. *)
let test_recovery_puts_nothing () =
  let svc = once_service Broker.Service.Acks_all_synced in
  let heap = Broker.Shard.heap (Broker.Service.shards svc).(0) in
  let puts () =
    match
      Nvm.Span.find_aggregate (Nvm.Heap.spans heap) Dset.Instrumented.ins_label
    with
    | Some a -> a.Nvm.Span.count
    | None -> 0
  in
  List.iter
    (fun (stream, seq) ->
      accept "record-less item"
        (Broker.Service.enqueue svc ~stream (enc ~producer:stream ~seq)))
    [ (0, 1); (0, 2); (0, 3); (1, 1); (1, 2) ];
  let policy = Nvm.Crash.Only_persisted and rng = Random.State.make [| 1 |] in
  let p0 = puts () in
  crash_ok "first recovery" ~policy ~rng svc;
  crash_ok "second recovery" ~policy ~rng svc;
  Alcotest.(check int) "ins spans across two recoveries" 0 (puts () - p0);
  Alcotest.(check (list string)) "retries read Duplicate"
    [ "duplicate"; "duplicate" ]
    [
      once_name
        (Broker.Service.enqueue_once svc ~stream:0 (enc ~producer:0 ~seq:3));
      once_name
        (Broker.Service.enqueue_once svc ~stream:1 (enc ~producer:1 ~seq:2));
    ]

(* Once consumed through dequeue_committed, an item has left the queue,
   and only its group's durable commit offset remembers it: another
   thread consumes it, an only-persisted crash follows, and the retry
   must still read Duplicate. *)
let test_consumed_retry_duplicate () =
  let svc = once_service Broker.Service.Acks_all_synced in
  Alcotest.(check string) "publish" "enqueued" (publish svc ~seq:1);
  Nvm.Tid.set (Nvm.Tid.get () + 1);
  Alcotest.(check (list int)) "consumed on another thread" [ 1 ]
    (drain_committed svc);
  crash_ok "recovery" ~policy:Nvm.Crash.Only_persisted
    ~rng:(Random.State.make [| 1 |]) svc;
  Alcotest.(check string) "retry after the crash" "duplicate"
    (publish svc ~seq:1);
  Alcotest.(check (list int)) "nothing delivered twice" []
    (drain_committed svc)

(* Two groups take one item each, leaving the queue empty: the rebuilt
   index must read both groups' commit offsets, whichever group took
   the higher sequence. *)
let test_index_reads_every_group () =
  List.iter
    (fun (first, second) ->
      let what = Printf.sprintf "groups %d then %d" first second in
      let svc = once_service Broker.Service.Acks_all_synced in
      List.iter
        (fun seq ->
          Alcotest.(check string) "publish" "enqueued" (publish svc ~seq))
        [ 1; 2 ];
      let take group =
        match Broker.Service.dequeue_committed svc ~stream:0 ~group with
        | Broker.Service.Item v -> Spec.Durable_check.seq_of v
        | _ -> Alcotest.failf "%s: group %d got no item" what group
      in
      let a = take first in
      let b = take second in
      Alcotest.(check (list int)) (what ^ ": one item each") [ 1; 2 ] [ a; b ];
      crash_ok what ~policy:Nvm.Crash.Only_persisted
        ~rng:(Random.State.make [| 1 |]) svc;
      let r1 = publish svc ~seq:1 in
      let r2 = publish svc ~seq:2 in
      Alcotest.(check (list string)) (what ^ ": retries read Duplicate")
        [ "duplicate"; "duplicate" ] [ r1; r2 ];
      Alcotest.(check (list int)) (what ^ ": nothing left") []
        (drain_committed ~group:first svc @ drain_committed ~group:second svc))
    [ (1, 2); (2, 1) ]

(* A leader publish returns before its group commit; a crash before the
   commit takes the item, and with no durable trace of it left the
   retry is accepted and delivered. *)
let test_leader_lost_reaccepted () =
  List.iter
    (fun policy ->
      let what = Nvm.Crash.policy_name policy in
      let svc = once_service Broker.Service.Acks_leader in
      Alcotest.(check string) (what ^ ": publish") "enqueued"
        (publish svc ~seq:1);
      crash_ok what ~policy ~rng:(Random.State.make [| 1 |]) svc;
      Alcotest.(check string) (what ^ ": retry") "enqueued" (publish svc ~seq:1);
      accept "sync" (Broker.Service.sync_stream svc ~stream:0);
      Alcotest.(check (list int)) (what ^ ": delivered") [ 1 ]
        (drain_committed svc))
    Nvm.Crash.[ Only_persisted; All_flushed ]

(* The index is raised after the enqueue, so a refused publish leaves it
   where it was: the retry, once there is room, is accepted. *)
let test_refused_retry_accepted () =
  fresh_tid ();
  let svc = Broker.Service.create ~shards:1 ~depth_bound:1 ~offsets:true () in
  Alcotest.(check string) "publish" "enqueued" (publish svc ~seq:1);
  Alcotest.(check string) "at the bound" "rejected overflow"
    (publish svc ~seq:2);
  Alcotest.(check (list int)) "room made" [ 1 ] (drain_committed svc);
  Alcotest.(check string) "retry" "enqueued" (publish svc ~seq:2)

(* The index writes nothing: an all-synced publish persists its queue
   node and nothing else.  A first publish and a commit warm both the
   queue and the offset map, so no allocation is counted. *)
let test_once_cost () =
  let svc = once_service Broker.Service.Acks_all_synced in
  Alcotest.(check string) "warm-up publish" "enqueued" (publish svc ~seq:1);
  Alcotest.(check (list int)) "warm-up commit" [ 1 ] (drain_committed svc);
  let heap = Broker.Shard.heap (Broker.Service.shards svc).(0) in
  let before = Nvm.Stats.snapshot (Nvm.Heap.stats heap) in
  for seq = 2 to 65 do
    Alcotest.(check string) "publish" "enqueued" (publish svc ~seq)
  done;
  let d = Nvm.Stats.diff_total (Nvm.Heap.stats heap) ~since:before in
  Alcotest.(check (pair (float 1e-9) (float 1e-9)))
    "fences and flushes per publish" (1., 1.)
    (float_of_int d.Nvm.Stats.fences /. 64.,
     float_of_int d.Nvm.Stats.flushes /. 64.)

(* A shard whose recovery raised serves again only after a recovery
   passes.  Three leader publishes are left unsynced, so an
   only-persisted crash takes them all; the first recovery raises at its
   first heap step, before the shard's tiers, offset map or index are
   rebuilt.  The shard is quarantined and the operator lift must refuse
   it: serving it would answer the retries from the index of before the
   crash, as Duplicate, and the three items would never be delivered.
   The next recovery passes and readmits it, and the retries are
   accepted and delivered once each. *)
let test_raised_recovery_stays_quarantined () =
  let svc = once_service Broker.Service.Acks_leader in
  List.iter
    (fun seq -> Alcotest.(check string) "publish" "enqueued" (publish svc ~seq))
    [ 1; 2; 3 ];
  let heap = Broker.Shard.heap (Broker.Service.shards svc).(0) in
  let fired = Atomic.make false in
  Nvm.Heap.set_step_hook heap
    (Some
       (fun () ->
         if not (Atomic.exchange fired true) then failwith "injected fault"));
  let heal () =
    Broker.Supervisor.recover_and_heal ~policy:Nvm.Crash.Only_persisted
      ~domains:1 ~producer_of:Spec.Durable_check.producer_of svc
  in
  let failed = heal () in
  Nvm.Heap.set_step_hook heap None;
  (match failed.Broker.Supervisor.recovery.Broker.Recovery.shards.(0)
           .Broker.Recovery.check
   with
  | Error e when String.starts_with ~prefix:"recovery raised" e -> ()
  | Error e -> Alcotest.failf "unexpected verdict: %s" e
  | Ok () -> Alcotest.fail "the injected fault did not fail the recovery");
  Alcotest.(check (list int)) "quarantined" [ 0 ]
    failed.Broker.Supervisor.newly_quarantined;
  (match Broker.Service.clear_quarantine svc ~shard:0 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "the lift readmitted a shard whose recovery raised");
  Alcotest.(check string) "a retry is refused while quarantined"
    "rejected unavailable" (publish svc ~seq:1);
  let healed = heal () in
  Alcotest.(check (list int)) "readmitted by the passing recovery" [ 0 ]
    healed.Broker.Supervisor.readmitted;
  Alcotest.(check (list string)) "the lost publishes' retries"
    [ "enqueued"; "enqueued"; "enqueued" ]
    (List.map (fun seq -> publish svc ~seq) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "each delivered once" [ 1; 2; 3 ]
    (drain_committed svc);
  Alcotest.(check (list int)) "nothing more" [] (drain_committed svc)

(* Directed crash sweep across one enqueue_once: the power fails at the
   entry of its k-th heap primitive, for every k, and once after it
   returns.  Recovery, a retry of the same sequence, a second crash and
   a committed drain must then deliver every sequence exactly once,
   with both recoveries ok.

   At all-synced the swept publish is seq 2 on the strict tier.  At
   leader it is the publish whose append fills a journal line (seqs 1-6
   are published and synced first), so the sweep crosses the line's
   commit.  The retry is synced before the second crash: a leader
   retry the crash let in is durable only at its group commit.  The
   sweep must see the retry both enqueued (a crash before the item
   persisted) and dropped as a duplicate. *)
let test_once_crash_sweep acks policy () =
  let seq = if acks = Broker.Service.Acks_all_synced then 2 else 7 in
  let retries = Hashtbl.create 2 in
  let rec at k =
    let svc = once_service acks in
    for s = 1 to seq - 1 do
      Alcotest.(check string) "setup publish" "enqueued" (publish svc ~seq:s)
    done;
    accept "setup sync" (Broker.Service.sync_stream svc ~stream:0);
    let heap = Broker.Shard.heap (Broker.Service.shards svc).(0) in
    let steps = ref 0 in
    Nvm.Heap.set_step_hook heap
      (Some
         (fun () ->
           if !steps = k then Effect.perform Power_cut;
           incr steps));
    let cut = run_until_power_cut (fun () -> publish svc ~seq) in
    Nvm.Heap.set_step_hook heap None;
    let rng = Random.State.make [| k |] in
    let what = Printf.sprintf "crash at step %d" k in
    crash_ok (what ^ ": first recovery") ~policy ~rng svc;
    (match publish svc ~seq with
    | ("enqueued" | "duplicate") as r -> Hashtbl.replace retries r k
    | r -> Alcotest.failf "%s: retry %s" what r);
    accept "retry sync" (Broker.Service.sync_stream svc ~stream:0);
    crash_ok (what ^ ": second recovery") ~policy ~rng svc;
    Alcotest.(check (list int)) (what ^ ": each delivered once")
      (List.init seq succ) (drain_committed svc);
    if cut then at (k + 1) else k
  in
  let points = at 0 + 1 in
  Alcotest.(check (list string))
    (Printf.sprintf "retry outcomes over %d crash points" points)
    [ "duplicate"; "enqueued" ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys retries)))

let () =
  Alcotest.run "broker"
    [
      ( "routing",
        [
          Alcotest.test_case "policies are stable" `Quick test_routing_stability;
          Alcotest.test_case "round-robin balances" `Quick
            test_round_robin_balance;
          Alcotest.test_case "key-hash spreads" `Quick test_key_hash_spread;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "gauge semantics" `Quick test_gauge;
          Alcotest.test_case "overflow at the bound" `Quick
            test_service_overflow;
          Alcotest.test_case "retry while recovering" `Quick
            test_retry_while_recovering;
          Alcotest.test_case "refusals keep the depth" `Quick
            test_refusals_keep_depth;
          Alcotest.test_case "a full journal keeps the depth" `Quick
            test_journal_full_keeps_depth;
        ] );
      ( "batching",
        [
          Alcotest.test_case "one fence per batch" `Quick test_batch_one_fence;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "parallel recovery, exact contents" `Quick
            test_crash_recover_all_shards;
          Alcotest.test_case "crash mid-batch" `Quick test_crash_mid_batch;
          Alcotest.test_case "randomized crash cycles" `Quick
            (test_crash_cycles Nvm.Crash.Random_evictions);
          Alcotest.test_case "only-persisted crash cycles" `Quick
            (test_crash_cycles Nvm.Crash.Only_persisted);
          Alcotest.test_case "torn-prefix crash cycles" `Quick
            (test_crash_cycles Nvm.Crash.Torn_prefix);
          Alcotest.test_case "leakage validator fires" `Quick
            test_leakage_validator_fires;
          Alcotest.test_case "producer_of mismatch fires" `Quick
            test_producer_of_mismatch_fires;
          Alcotest.test_case "a failed verdict is newly quarantined" `Quick
            test_heal_failed_verdict;
          Alcotest.test_case "a refused crash leaves the service serving"
            `Quick test_refused_crash_keeps_serving;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "verdicts and rerouting" `Quick
            test_quarantine_verdicts;
          Alcotest.test_case "supervisor drill and readmission" `Quick
            test_supervisor_quarantine_readmit;
          Alcotest.test_case "flapping under live combining load" `Slow
            test_quarantine_flapping;
        ] );
      ( "consumer",
        [
          Alcotest.test_case "fence budget" `Quick test_consumer_fence_budget;
          Alcotest.test_case "dequeue_batch ~max:0 removes nothing" `Quick
            test_dequeue_batch_max_zero;
        ] );
      ( "empty-skip",
        [
          Alcotest.test_case "batch cut before its closing fence" `Quick
            test_skip_crash_safe_batch;
          QCheck_alcotest.to_alcotest prop_bound_schedules;
          Alcotest.test_case "readmitted shard delivers strict items" `Quick
            test_readmit_delivers_strict;
        ] );
      ( "acks-levels",
        [
          Alcotest.test_case "demotion keeps FIFO across a crash" `Quick
            test_demotion_keeps_fifo;
          Alcotest.test_case "promotion keeps FIFO" `Quick
            test_promotion_keeps_fifo;
          Alcotest.test_case "promotion after a drain survives a crash \
                              (all-flushed)"
            `Quick
            (test_promotion_after_drain_crash Nvm.Crash.All_flushed);
          Alcotest.test_case "promotion after a drain survives a crash \
                              (only-persisted)"
            `Quick
            (test_promotion_after_drain_crash Nvm.Crash.Only_persisted);
          QCheck_alcotest.to_alcotest prop_tier_changes;
          Alcotest.test_case "an all-synced item costs one fence per tier"
            `Quick test_all_synced_cost_per_tier;
          Alcotest.test_case "1,000 heal cycles keep the heap bounded" `Slow
            test_heal_cycles_bounded_heap;
        ] );
      ( "exactly-once",
        [
          Alcotest.test_case "a record-less survivor reads Duplicate" `Quick
            test_recordless_survivor;
          Alcotest.test_case "recovery writes no offset-map entry" `Quick
            test_recovery_puts_nothing;
          Alcotest.test_case "a consumed item's retry reads Duplicate" `Quick
            test_consumed_retry_duplicate;
          Alcotest.test_case "the rebuilt index reads every group" `Quick
            test_index_reads_every_group;
          Alcotest.test_case
            "a leader publish lost before its group commit is re-accepted \
             after a crash"
            `Quick test_leader_lost_reaccepted;
          Alcotest.test_case "a refused publish's retry is accepted" `Quick
            test_refused_retry_accepted;
          Alcotest.test_case "an all-synced enqueue_once costs one fence and \
                              one flush"
            `Quick test_once_cost;
          Alcotest.test_case
            "a shard whose recovery raised serves only after a recovery passes"
            `Quick test_raised_recovery_stays_quarantined;
        ]
        @ List.concat_map
            (fun acks ->
              List.map
                (fun policy ->
                  Alcotest.test_case
                    (Printf.sprintf "crash sweep across enqueue_once (%s, %s)"
                       (Broker.Service.acks_name acks)
                       (Nvm.Crash.policy_name policy))
                    `Quick
                    (test_once_crash_sweep acks policy))
                Nvm.Crash.
                  [ All_flushed; Only_persisted; Torn_prefix; Random_evictions ])
            Broker.Service.[ Acks_all_synced; Acks_leader ] );
      ( "harness",
        [
          Alcotest.test_case "sharded runner smoke" `Quick
            test_sharded_runner_smoke;
        ] );
    ]
