(* Tests for the buffered-durability tier: the group-commit wrapper
   (lib/core/buffered_q.ml) — watermark commits, the explicit [sync]
   boundary, journal-floor recovery, ring-full refusal — and the broker's
   per-stream acks levels mapped onto it: tier routing, level validation,
   sync verdicts, and a full-system crash recovering exactly the synced
   floor. *)

let fresh_tid () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ())

let fresh_heap ?(mode = Nvm.Heap.Checked) () =
  fresh_tid ();
  Nvm.Heap.create ~mode ~latency:Nvm.Latency.off ()

let opt_unlinked = Dq.Registry.find "OptUnlinkedQ"

let make_buffered ?watermark ?capacity ?join_commits ?(mode = Nvm.Heap.Checked)
    () =
  let heap = fresh_heap ~mode () in
  ( heap,
    Dq.Buffered_q.create ?watermark ?capacity ?join_commits heap
      opt_unlinked.Dq.Registry.make )

(* -- Buffered_q: group commits ---------------------------------------------- *)

let test_watermark_commit () =
  let _, b = make_buffered ~watermark:4 () in
  for v = 1 to 3 do
    Dq.Buffered_q.enqueue b v
  done;
  Alcotest.(check int) "below watermark: no commit" 0
    (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "lag is the uncommitted tail" 3
    (Dq.Buffered_q.durability_lag b);
  Dq.Buffered_q.enqueue b 4;
  Alcotest.(check int) "watermark trips the commit" 4
    (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "lag paid down" 0 (Dq.Buffered_q.durability_lag b);
  let s = Dq.Buffered_q.stats b in
  Alcotest.(check int) "one commit" 1 s.Dq.Buffered_q.s_commits;
  Alcotest.(check int) "no explicit sync" 0 s.Dq.Buffered_q.s_syncs

let test_sync_boundary () =
  let _, b = make_buffered ~watermark:64 () in
  Dq.Buffered_q.enqueue b 1;
  Dq.Buffered_q.enqueue b 2;
  Alcotest.(check int) "unsynced" 2 (Dq.Buffered_q.durability_lag b);
  Dq.Buffered_q.sync b;
  Alcotest.(check int) "sync commits everything" 2
    (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "lag zero after sync" 0 (Dq.Buffered_q.durability_lag b);
  let s = Dq.Buffered_q.stats b in
  Alcotest.(check int) "sync counted" 1 s.Dq.Buffered_q.s_syncs;
  (* A sync with nothing new still covers the consumed counter. *)
  ignore (Dq.Buffered_q.dequeue b);
  Dq.Buffered_q.sync b;
  Alcotest.(check int) "consumed covered" 1
    (Dq.Buffered_q.committed_consumed b)

let test_join_override () =
  (* join only changes whether the producer waits for the drain; the
     commit itself (and the floor) is identical either way. *)
  let _, b = make_buffered ~watermark:4 ~join_commits:false () in
  for v = 1 to 4 do
    Dq.Buffered_q.enqueue ~join:(v mod 2 = 0) b v
  done;
  Alcotest.(check int) "floor advanced regardless of join" 4
    (Dq.Buffered_q.committed_floor b)

let test_mirror_semantics () =
  let _, b = make_buffered ~watermark:8 () in
  for v = 10 to 15 do
    Dq.Buffered_q.enqueue b v
  done;
  Alcotest.(check (option int)) "FIFO head" (Some 10) (Dq.Buffered_q.dequeue b);
  Alcotest.(check (option int)) "FIFO next" (Some 11) (Dq.Buffered_q.dequeue b);
  let q = Dq.Buffered_q.instance b in
  Alcotest.(check (list int)) "mirror to_list" [ 12; 13; 14; 15 ]
    (q.Dq.Queue_intf.to_list ());
  Alcotest.(check string) "suffixed name"
    (opt_unlinked.Dq.Registry.name ^ Dq.Buffered_q.name_suffix)
    (q.Dq.Queue_intf.name)

let test_journal_full () =
  let _, b = make_buffered ~watermark:1024 ~capacity:8 () in
  for v = 1 to 8 do
    Dq.Buffered_q.enqueue b v
  done;
  (* Nothing consumed: the 9th append would overwrite a live slot. *)
  (try
     Dq.Buffered_q.enqueue b 9;
     Alcotest.fail "full ring accepted an append"
   with Dq.Buffered_q.Journal_full -> ());
  (* Consuming and committing (so the *committed* consumed floor moves)
     frees the slot. *)
  ignore (Dq.Buffered_q.dequeue b);
  Dq.Buffered_q.sync b;
  Dq.Buffered_q.enqueue b 9;
  Alcotest.(check int) "append resumed" 9 (Dq.Buffered_q.appended b)

(* Ring slots must line up with cache lines: a line-full append writes
   its line behind, and the meta word needs a line of its own. *)
let test_capacity_line_aligned () =
  List.iter
    (fun capacity ->
      match make_buffered ~capacity () with
      | _ -> Alcotest.failf "capacity %d accepted" capacity
      | exception Invalid_argument _ -> ())
    [ 4; 12; 20 ];
  let _, b = make_buffered ~capacity:16 () in
  for v = 1 to 16 do
    Dq.Buffered_q.enqueue b v
  done;
  Alcotest.(check int) "16-entry ring takes 16" 16 (Dq.Buffered_q.appended b)

(* A thread whose fences are absorbed (a combining pass over the tier)
   writes nothing behind: another thread's commit must then persist the
   line itself rather than trust a fence that has not been issued. *)
let test_absorbed_write_behind () =
  let heap, b = make_buffered ~watermark:64 () in
  let spans = Nvm.Heap.spans heap in
  let tid0 = Nvm.Tid.get () in
  Nvm.Heap.with_batched_fences heap (fun () ->
      for v = 1 to 8 do
        Dq.Buffered_q.enqueue b v
      done;
      Alcotest.(check bool) "no write-behind under absorbed fences" true
        (Nvm.Span.find_aggregate spans Dq.Instrumented.write_behind_label
        = None);
      Nvm.Tid.set (Nvm.Tid.register ());
      Dq.Buffered_q.sync b;
      Nvm.Tid.set tid0);
  match Nvm.Span.find_aggregate spans Dq.Instrumented.sync_label with
  | None -> Alcotest.fail "no commit span"
  | Some a ->
      Alcotest.(check int) "the commit flushes the line and the meta word" 2
        a.Nvm.Span.sum.Nvm.Stats.flushes;
      Alcotest.(check int) "and fences both" 2 a.Nvm.Span.sum.Nvm.Stats.fences

let test_on_commit_callback () =
  let _, b = make_buffered ~watermark:2 () in
  let seen = ref [] in
  Dq.Buffered_q.set_on_commit b
    (Some (fun ~floor ~consumed ~drain:_ -> seen := (floor, consumed) :: !seen));
  for v = 1 to 4 do
    Dq.Buffered_q.enqueue b v
  done;
  ignore (Dq.Buffered_q.dequeue b);
  Dq.Buffered_q.sync b;
  Alcotest.(check (list (pair int int)))
    "snapshots in commit order"
    [ (4, 1); (4, 0); (2, 0) ]
    !seen

(* -- Buffered_q: crash keeps exactly the synced floor ------------------------ *)

let crash heap seed =
  let rng = Random.State.make [| seed |] in
  Nvm.Crash.crash ~rng ~policy:Nvm.Crash.Only_persisted heap;
  fresh_tid ()

let test_recover_floor () =
  let heap, b = make_buffered ~watermark:4 () in
  for v = 1 to 6 do
    Dq.Buffered_q.enqueue b v
  done;
  (* floor 4 (one watermark commit); 5 and 6 are the unsynced tail. *)
  crash heap 42;
  Dq.Buffered_q.recover b;
  let q = Dq.Buffered_q.instance b in
  Alcotest.(check (list int)) "exactly the committed prefix" [ 1; 2; 3; 4 ]
    (q.Dq.Queue_intf.to_list ());
  Alcotest.(check int) "appended reset to floor" 4 (Dq.Buffered_q.appended b);
  Alcotest.(check int) "no residual lag" 0 (Dq.Buffered_q.durability_lag b)

let test_recover_consumed () =
  (* A synced dequeue must not be replayed; an unsynced one must be. *)
  let heap, b = make_buffered ~watermark:64 () in
  for v = 1 to 4 do
    Dq.Buffered_q.enqueue b v
  done;
  ignore (Dq.Buffered_q.dequeue b);
  Dq.Buffered_q.sync b (* covers enqueues 1-4 and the dequeue of 1 *);
  ignore (Dq.Buffered_q.dequeue b) (* unsynced: crash replays 2 *);
  crash heap 7;
  Dq.Buffered_q.recover b;
  let q = Dq.Buffered_q.instance b in
  Alcotest.(check (list int)) "synced dequeue stays consumed" [ 2; 3; 4 ]
    (q.Dq.Queue_intf.to_list ())

let test_recover_after_sync_keeps_all () =
  let heap, b = make_buffered ~watermark:1024 () in
  for v = 1 to 10 do
    Dq.Buffered_q.enqueue b v
  done;
  Dq.Buffered_q.sync b;
  crash heap 3;
  Dq.Buffered_q.recover b;
  let q = Dq.Buffered_q.instance b in
  Alcotest.(check (list int)) "sync means survives"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (q.Dq.Queue_intf.to_list ())

(* -- Service: per-stream acks levels ----------------------------------------- *)

let enc = Spec.Durable_check.encode

let weak_service ?(acks = Broker.Service.Acks_leader) () =
  fresh_tid ();
  Broker.Service.create ~shards:2 ~mode:Nvm.Heap.Checked ~acks ()

let test_acks_names () =
  List.iter
    (fun l ->
      Alcotest.(check bool) "name roundtrip" true
        (Broker.Service.acks_of_name (Broker.Service.acks_name l) = l))
    [
      Broker.Service.Acks_none;
      Broker.Service.Acks_leader;
      Broker.Service.Acks_all_synced;
    ];
  (try
     ignore (Broker.Service.acks_of_name "bogus");
     Alcotest.fail "bogus level accepted"
   with Invalid_argument _ -> ())

let test_tier_wiring () =
  let strict = (fresh_tid (); Broker.Service.create ~shards:1 ()) in
  Alcotest.(check bool) "strict default: no tier" false
    (Broker.Service.buffered_tier strict);
  (* Weak default level without the tier is refused outright. *)
  (try
     fresh_tid ();
     ignore (Broker.Service.create ~acks:Broker.Service.Acks_leader
               ~buffered:false ());
     Alcotest.fail "weak acks without tier accepted"
   with Invalid_argument _ -> ());
  let weak = weak_service () in
  Alcotest.(check bool) "weak default: tier present" true
    (Broker.Service.buffered_tier weak);
  (* Per-stream overrides on a strict service need the tier too. *)
  (try
     Broker.Service.set_stream_acks strict ~stream:0 Broker.Service.Acks_none;
     Alcotest.fail "weak stream level without tier accepted"
   with Invalid_argument _ -> ());
  Broker.Service.set_stream_acks weak ~stream:3 Broker.Service.Acks_all_synced;
  Alcotest.(check string) "stream override" "all-synced"
    (Broker.Service.acks_name (Broker.Service.stream_acks weak ~stream:3));
  Alcotest.(check string) "others keep the default" "leader"
    (Broker.Service.acks_name (Broker.Service.stream_acks weak ~stream:4))

let test_tiered_fifo_and_sync () =
  let service = weak_service () in
  for seq = 1 to 20 do
    match Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq) with
    | Broker.Backpressure.Accepted -> ()
    | v -> Alcotest.failf "enqueue: %s" (Broker.Backpressure.verdict_name v)
  done;
  Alcotest.(check bool) "buffered tier carries a lag" true
    (Broker.Service.total_durability_lag service > 0);
  (match Broker.Service.sync_stream service ~stream:0 with
  | Broker.Backpressure.Accepted -> ()
  | v -> Alcotest.failf "sync_stream: %s" (Broker.Backpressure.verdict_name v));
  Alcotest.(check int) "stream's shard synced" 0
    (Broker.Service.durability_lags service).(Broker.Service.shard_of_stream
                                                service ~stream:0);
  Broker.Service.sync_all service;
  Alcotest.(check int) "all synced" 0
    (Broker.Service.total_durability_lag service);
  (* FIFO through the buffered tier. *)
  for seq = 1 to 20 do
    match Broker.Service.dequeue service ~stream:0 with
    | Broker.Service.Item v ->
        Alcotest.(check int) "FIFO seq" seq (Spec.Durable_check.seq_of v)
    | _ -> Alcotest.fail "expected an item"
  done

let test_sync_quarantined () =
  let service = weak_service () in
  ignore (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:1));
  let shard = Broker.Service.shard_of_stream service ~stream:0 in
  Broker.Service.quarantine service ~shard ~reason:"drill";
  (match Broker.Service.sync_stream service ~stream:0 with
  | Broker.Backpressure.Unavailable -> ()
  | v ->
      Alcotest.failf "quarantined sync: %s" (Broker.Backpressure.verdict_name v));
  Broker.Service.sync_all service (* must skip the quarantined shard *);
  Broker.Service.clear_quarantine service ~shard;
  Broker.Service.sync_all service;
  Alcotest.(check int) "synced after readmission" 0
    (Broker.Service.total_durability_lag service)

(* The durability census counts every journal persist.  A fresh tier
   at watermark 64: 128 appends fill 16 journal lines, each written
   behind as it fills (one flush and one fence apiece), and trip two
   commits that end on a line boundary, so each publishes only its
   meta word.  18 flushes, as when a commit flushed the group's lines
   itself; 18 fences instead of that design's 4. *)
let test_census_counts_write_behind () =
  fresh_tid ();
  let service =
    Broker.Service.create ~shards:1 ~acks:Broker.Service.Acks_none ()
  in
  for seq = 1 to 128 do
    match Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq) with
    | Broker.Backpressure.Accepted -> ()
    | v -> Alcotest.failf "enqueue: %s" (Broker.Backpressure.verdict_name v)
  done;
  let j = Broker.Census.journal_persists service in
  Alcotest.(check int) "two watermark commits" 2 j.Broker.Census.j_commits;
  Alcotest.(check int) "16 lines + 2 meta words flushed" 18
    j.Broker.Census.j_flushes;
  Alcotest.(check int) "16 write-behinds + 2 meta fences" 18
    j.Broker.Census.j_fences

let test_service_crash_recovers_synced_floor () =
  let service = weak_service () in
  let streams = 4 and per_stream = 30 in
  for stream = 0 to streams - 1 do
    for seq = 1 to per_stream do
      match Broker.Service.enqueue service ~stream (enc ~producer:stream ~seq)
      with
      | Broker.Backpressure.Accepted -> ()
      | v -> Alcotest.failf "enqueue: %s" (Broker.Backpressure.verdict_name v)
    done
  done;
  Broker.Service.sync_all service;
  let depths = Broker.Service.depths service in
  let rng = Random.State.make [| 99 |] in
  let report =
    Broker.Recovery.crash_and_recover ~rng
      ~producer_of:Spec.Durable_check.producer_of service
  in
  if not (Broker.Recovery.ok report) then
    Alcotest.fail "recovery validation failed";
  Alcotest.(check (array int)) "synced floor survives in full" depths
    (Broker.Service.depths service);
  (* Drain everything; each producer's values must come out in seq
     order (dequeue drains the stream's *shard*, which interleaves the
     streams pinned to it, so check FIFO per producer). *)
  let next = Array.make streams 1 in
  let drained = ref 0 in
  let rec drain () =
    match Broker.Service.dequeue_any service with
    | Broker.Service.Item v ->
        let p = Spec.Durable_check.producer_of v in
        Alcotest.(check int)
          (Printf.sprintf "producer %d FIFO" p)
          next.(p)
          (Spec.Durable_check.seq_of v);
        next.(p) <- next.(p) + 1;
        incr drained;
        drain ()
    | Broker.Service.Empty -> ()
    | _ -> Alcotest.fail "shard unavailable mid-drain"
  in
  drain ();
  Alcotest.(check int) "every synced item drained" (streams * per_stream)
    !drained

let () =
  Alcotest.run "buffered"
    [
      ( "group-commit",
        [
          Alcotest.test_case "watermark trips a commit" `Quick
            test_watermark_commit;
          Alcotest.test_case "sync is the boundary" `Quick test_sync_boundary;
          Alcotest.test_case "join is per-call" `Quick test_join_override;
          Alcotest.test_case "mirror keeps queue semantics" `Quick
            test_mirror_semantics;
          Alcotest.test_case "full ring refuses" `Quick test_journal_full;
          Alcotest.test_case "ring is line-aligned" `Quick
            test_capacity_line_aligned;
          Alcotest.test_case "absorbed fences write nothing behind" `Quick
            test_absorbed_write_behind;
          Alcotest.test_case "commit callback snapshots" `Quick
            test_on_commit_callback;
        ] );
      ( "crash-floor",
        [
          Alcotest.test_case "unsynced tail drops as a unit" `Quick
            test_recover_floor;
          Alcotest.test_case "synced dequeue stays consumed" `Quick
            test_recover_consumed;
          Alcotest.test_case "sync means survives" `Quick
            test_recover_after_sync_keeps_all;
        ] );
      ( "service-acks",
        [
          Alcotest.test_case "level names" `Quick test_acks_names;
          Alcotest.test_case "tier wiring and validation" `Quick
            test_tier_wiring;
          Alcotest.test_case "tiered FIFO and sync verdicts" `Quick
            test_tiered_fifo_and_sync;
          Alcotest.test_case "sync vs quarantine" `Quick test_sync_quarantined;
          Alcotest.test_case "crash recovers the synced floor" `Quick
            test_service_crash_recovers_synced_floor;
          Alcotest.test_case "census counts write-behinds" `Quick
            test_census_counts_write_behind;
        ] );
    ]
