(* Unit tests for the simulated persistent-memory substrate: addressing,
   cache-invalidation semantics of flushes, persist watermarks, movnti,
   statistics, and the Assumption-1 prefix property of crashes. *)

module H = Nvm.Heap

let fresh ?(mode = Nvm.Heap.Checked) ?(latency = Nvm.Latency.off) () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ());
  H.create ~mode ~latency ()

let node_region heap ~lines =
  H.alloc_region heap ~tag:Nvm.Region.Node_area
    ~words:(lines * Nvm.Line.words_per_line)

let counters heap = Nvm.Stats.total (H.stats heap)

(* -- Addressing ----------------------------------------------------------- *)

let test_addressing () =
  let heap = fresh () in
  let r1 = node_region heap ~lines:4 in
  let r2 = node_region heap ~lines:4 in
  Alcotest.(check bool) "distinct regions" true (r1.Nvm.Region.id <> r2.Nvm.Region.id);
  let a = Nvm.Region.line_addr r1 2 in
  Alcotest.(check int) "line-aligned" 0 (a land (Nvm.Line.words_per_line - 1));
  H.write heap a 42;
  H.write heap (a + 7) 43;
  Alcotest.(check int) "roundtrip w0" 42 (H.read heap a);
  Alcotest.(check int) "roundtrip w7" 43 (H.read heap (a + 7));
  Alcotest.(check int) "zero-initialised" 0 (H.read heap (a + 1));
  Alcotest.check_raises "invalid address"
    (Invalid_argument "Nvm: invalid address 0xff000000") (fun () ->
      ignore (H.read heap (255 lsl 24)))

let test_null () =
  Alcotest.(check bool) "null is 0" true (H.is_null H.null);
  let heap = fresh () in
  let r = node_region heap ~lines:1 in
  Alcotest.(check bool) "addresses are never null" false
    (H.is_null (Nvm.Region.line_addr r 0))

(* -- CAS ------------------------------------------------------------------ *)

let test_cas () =
  let heap = fresh () in
  let r = node_region heap ~lines:1 in
  let a = Nvm.Region.line_addr r 0 in
  H.write heap a 1;
  Alcotest.(check bool) "cas succeeds" true (H.cas heap a ~expected:1 ~desired:2);
  Alcotest.(check int) "cas applied" 2 (H.read heap a);
  Alcotest.(check bool) "cas fails" false (H.cas heap a ~expected:1 ~desired:3);
  Alcotest.(check int) "failed cas leaves value" 2 (H.read heap a)

(* -- Flush / invalidation ------------------------------------------------- *)

let test_flush_invalidates () =
  let heap = fresh () in
  let r = node_region heap ~lines:1 in
  let a = Nvm.Region.line_addr r 0 in
  H.write heap a 7;
  Alcotest.(check bool) "valid before flush" false (H.line_invalid heap a);
  H.flush heap a;
  Alcotest.(check bool) "invalid after flush" true (H.line_invalid heap a);
  let before = (counters heap).Nvm.Stats.post_flush_reads in
  ignore (H.read heap a);
  let mid = (counters heap).Nvm.Stats.post_flush_reads in
  Alcotest.(check int) "first read pays the miss" (before + 1) mid;
  Alcotest.(check bool) "read revalidates" false (H.line_invalid heap a);
  ignore (H.read heap a);
  Alcotest.(check int) "second read free"
    mid
    (counters heap).Nvm.Stats.post_flush_reads

let test_write_miss () =
  let heap = fresh () in
  let r = node_region heap ~lines:1 in
  let a = Nvm.Region.line_addr r 0 in
  H.flush heap a;
  let before = (counters heap).Nvm.Stats.post_flush_writes in
  H.write heap a 9;
  Alcotest.(check int) "write to flushed line fetches" (before + 1)
    (counters heap).Nvm.Stats.post_flush_writes;
  Alcotest.(check bool) "write revalidates" false (H.line_invalid heap a)

let test_movnti_no_miss () =
  let heap = fresh () in
  let r = node_region heap ~lines:1 in
  let a = Nvm.Region.line_addr r 0 in
  H.flush heap a;
  let before = Nvm.Stats.copy (counters heap) in
  H.movnti heap a 5;
  let after = counters heap in
  Alcotest.(check int) "movnti pays no miss" 0
    (Nvm.Stats.post_flush_accesses (Nvm.Stats.sub after before));
  Alcotest.(check int) "movnti counted" 1
    (Nvm.Stats.sub after before).Nvm.Stats.movntis;
  Alcotest.(check int) "movnti stores the value" 5 (H.peek heap a);
  Alcotest.(check bool) "movnti invalidates the cached line" true
    (H.line_invalid heap a)

let test_alloc_touch () =
  let heap = fresh () in
  let r = node_region heap ~lines:1 in
  let a = Nvm.Region.line_addr r 0 in
  H.flush heap a;
  let before = Nvm.Stats.copy (counters heap) in
  H.alloc_touch heap a;
  let d = Nvm.Stats.sub (counters heap) before in
  Alcotest.(check int) "no post-flush counted" 0 (Nvm.Stats.post_flush_accesses d);
  Alcotest.(check bool) "line revalidated" false (H.line_invalid heap a)

(* -- Persist watermarks --------------------------------------------------- *)

let test_persist_watermark () =
  let heap = fresh () in
  let r = node_region heap ~lines:1 in
  let a = Nvm.Region.line_addr r 0 in
  H.write heap a 1;
  H.write heap (a + 1) 2;
  let p, v = H.line_persisted_version heap a in
  Alcotest.(check bool) "stores unpersisted before fence" true (p < v);
  H.flush heap a;
  let p, _ = H.line_persisted_version heap a in
  Alcotest.(check int) "flush alone does not persist" 0 p;
  H.sfence heap;
  let p, v = H.line_persisted_version heap a in
  Alcotest.(check int) "fence drains the flush" v p

let test_fence_counts () =
  let heap = fresh () in
  let r = node_region heap ~lines:2 in
  let before = Nvm.Stats.copy (counters heap) in
  H.flush heap (Nvm.Region.line_addr r 0);
  H.flush heap (Nvm.Region.line_addr r 1);
  H.sfence heap;
  let d = Nvm.Stats.sub (counters heap) before in
  Alcotest.(check int) "two flushes" 2 d.Nvm.Stats.flushes;
  Alcotest.(check int) "one fence" 1 d.Nvm.Stats.fences

(* The device queue.  Under an enabled wall-clock-drain profile a split
   fence's drain is queued on the heap's device: it completes one
   per-flush drain after the device frees up, so two drains issued back
   to back complete in issue order, the second a full drain after the
   first, and joining a ticket returns only once its deadline passed.
   Under any other profile nothing queues: a cost-free heap hands out
   the already-complete ticket. *)
let test_device_queue () =
  let line_ms = 50 in
  let line_s = float_of_int line_ms *. 1e-3 in
  let wall =
    fresh
      ~latency:
        {
          Nvm.Latency.dimm_wall with
          Nvm.Latency.fence_per_flush_ns = line_ms * 1_000_000;
        }
      ()
  in
  let r = node_region wall ~lines:2 in
  let issued = Unix.gettimeofday () in
  H.flush wall (Nvm.Region.line_addr r 0);
  let d1 = H.sfence_split wall in
  H.flush wall (Nvm.Region.line_addr r 1);
  let d2 = H.sfence_split wall in
  Alcotest.(check bool) "the first drain takes a line" true
    (H.drain_deadline d1 >= issued +. line_s);
  Alcotest.(check bool) "the second queues behind it" true
    (H.drain_deadline d2 >= H.drain_deadline d1 +. line_s -. 1e-9);
  H.drain_join wall d2;
  Alcotest.(check bool) "a join returns after its deadline" true
    (Unix.gettimeofday () >= H.drain_deadline d2);
  let heap = fresh ~latency:Nvm.Latency.off () in
  let r = node_region heap ~lines:1 in
  H.flush heap (Nvm.Region.line_addr r 0);
  Alcotest.(check (float 0.)) "off: nothing queues" 0.
    (H.drain_deadline (H.sfence_split heap))

(* -- Crash semantics (Assumption 1) --------------------------------------- *)

let test_crash_only_persisted () =
  let heap = fresh () in
  let r = node_region heap ~lines:1 in
  let a = Nvm.Region.line_addr r 0 in
  H.write heap a 1;
  H.flush heap a;
  H.sfence heap;
  H.write heap a 2 (* unpersisted *);
  Nvm.Crash.crash ~policy:Nvm.Crash.Only_persisted heap;
  Alcotest.(check int) "watermark survives, tail lost" 1 (H.peek heap a)

let test_crash_all_flushed () =
  let heap = fresh () in
  let r = node_region heap ~lines:1 in
  let a = Nvm.Region.line_addr r 0 in
  H.write heap a 1;
  H.write heap a 2;
  Nvm.Crash.crash ~policy:Nvm.Crash.All_flushed heap;
  Alcotest.(check int) "everything reached memory" 2 (H.peek heap a)

(* Random crashes must always materialise a *prefix* of the line's stores
   (Assumption 1), never a mix. *)
let test_crash_prefix_property () =
  for seed = 0 to 199 do
    let heap = fresh () in
    let r = node_region heap ~lines:1 in
    let a = Nvm.Region.line_addr r 0 in
    (* Stores: w0=1; w1=2; w0=3.  Valid prefixes of (w0,w1):
       (0,0) (1,0) (1,2) (3,2). *)
    H.write heap a 1;
    H.write heap (a + 1) 2;
    H.write heap a 3;
    let rng = Random.State.make [| seed |] in
    Nvm.Crash.crash ~rng ~policy:Nvm.Crash.Random_evictions heap;
    let w0 = H.peek heap a and w1 = H.peek heap (a + 1) in
    let valid =
      List.mem (w0, w1) [ (0, 0); (1, 0); (1, 2); (3, 2) ]
    in
    if not valid then
      Alcotest.failf "seed %d: (%d,%d) is not a prefix of the store order"
        seed w0 w1
  done

let test_crash_respects_watermark () =
  for seed = 0 to 99 do
    let heap = fresh () in
    let r = node_region heap ~lines:1 in
    let a = Nvm.Region.line_addr r 0 in
    H.write heap a 1;
    H.flush heap a;
    H.sfence heap;
    H.write heap a 2;
    let rng = Random.State.make [| seed |] in
    Nvm.Crash.crash ~rng ~policy:Nvm.Crash.Random_evictions heap;
    let w0 = H.peek heap a in
    if w0 <> 1 && w0 <> 2 then
      Alcotest.failf "seed %d: persisted store lost (w0=%d)" seed w0
  done

let test_crash_zeroed_region () =
  let heap = fresh () in
  let r = node_region heap ~lines:8 in
  Nvm.Crash.crash ~policy:Nvm.Crash.Only_persisted heap;
  for li = 0 to 7 do
    let a = Nvm.Region.line_addr r li in
    for w = 0 to Nvm.Line.words_per_line - 1 do
      Alcotest.(check int) "region zeros are persisted" 0 (H.peek heap (a + w))
    done
  done

let test_crash_fast_mode_rejected () =
  let heap = fresh ~mode:Nvm.Heap.Fast () in
  Alcotest.check_raises "fast mode cannot crash"
    (Nvm.Crash.Error (Nvm.Crash.Fast_mode_heap "Crash.crash")) (fun () ->
      Nvm.Crash.crash ~rng:(Random.State.make [| 1 |]) heap)

let test_crash_missing_rng_rejected () =
  let heap = fresh () in
  Alcotest.check_raises "randomized policy without rng"
    (Nvm.Crash.Error (Nvm.Crash.Missing_rng "random-evictions")) (fun () ->
      Nvm.Crash.crash ~policy:Nvm.Crash.Random_evictions heap);
  Alcotest.check_raises "torn-prefix without rng"
    (Nvm.Crash.Error (Nvm.Crash.Missing_rng "torn-prefix")) (fun () ->
      Nvm.Crash.crash ~policy:Nvm.Crash.Torn_prefix heap)

(* Torn_prefix keeps at most one store past the watermark of each line. *)
let test_crash_torn_prefix () =
  let heap = fresh () in
  let r = node_region heap ~lines:1 in
  let a = Nvm.Region.line_addr r 0 in
  H.write heap a 1;
  H.flush heap a;
  H.sfence heap;
  (* Three unflushed stores past the watermark. *)
  H.write heap a 2;
  H.write heap a 3;
  H.write heap a 4;
  Nvm.Crash.crash_seeded ~seed:7 ~policy:Nvm.Crash.Torn_prefix heap;
  let v = H.peek heap a in
  if v <> 1 && v <> 2 then
    Alcotest.failf "torn prefix kept %d (want persisted 1 or torn 2)" v

(* Same-line store order is preserved through flush/compaction cycles. *)
let test_compaction_keeps_values () =
  let heap = fresh () in
  let r = node_region heap ~lines:1 in
  let a = Nvm.Region.line_addr r 0 in
  for i = 1 to 50 do
    H.write heap a i;
    H.flush heap a;
    H.sfence heap
  done;
  Nvm.Crash.crash ~policy:Nvm.Crash.Only_persisted heap;
  Alcotest.(check int) "last persisted value survives" 50 (H.peek heap a)

(* -- Tid ------------------------------------------------------------------ *)

let test_tid () =
  Nvm.Tid.reset ();
  Nvm.Tid.set 5;
  Alcotest.(check int) "set/get" 5 (Nvm.Tid.get ());
  Alcotest.(check bool) "count covers explicit ids" true (Nvm.Tid.count () >= 6);
  let d =
    Domain.spawn (fun () ->
        let id = Nvm.Tid.get () in
        Alcotest.(check bool) "fresh domain gets a fresh id" true (id >= 6);
        id)
  in
  ignore (Domain.join d);
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ());
  Alcotest.(check int) "reset restarts ids" 0 (Nvm.Tid.get ())

let test_latency_spin () =
  let t0 = Unix.gettimeofday () in
  Nvm.Latency.spin_ns 2_000_000;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "2ms spin took %.1fms" (dt *. 1e3))
    true
    (dt > 0.2e-3)

let () =
  Alcotest.run "nvm"
    [
      ( "addressing",
        [
          Alcotest.test_case "regions and roundtrips" `Quick test_addressing;
          Alcotest.test_case "null" `Quick test_null;
          Alcotest.test_case "cas" `Quick test_cas;
        ] );
      ( "cache",
        [
          Alcotest.test_case "flush invalidates" `Quick test_flush_invalidates;
          Alcotest.test_case "write miss on flushed line" `Quick test_write_miss;
          Alcotest.test_case "movnti bypasses cache" `Quick test_movnti_no_miss;
          Alcotest.test_case "alloc_touch is neutral" `Quick test_alloc_touch;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "watermark" `Quick test_persist_watermark;
          Alcotest.test_case "fence counts" `Quick test_fence_counts;
          Alcotest.test_case "device queue" `Quick test_device_queue;
        ] );
      ( "crash",
        [
          Alcotest.test_case "only persisted survives" `Quick
            test_crash_only_persisted;
          Alcotest.test_case "all flushed survives" `Quick test_crash_all_flushed;
          Alcotest.test_case "prefix property (Assumption 1)" `Quick
            test_crash_prefix_property;
          Alcotest.test_case "watermark respected" `Quick
            test_crash_respects_watermark;
          Alcotest.test_case "fresh region zeros persisted" `Quick
            test_crash_zeroed_region;
          Alcotest.test_case "fast mode rejected" `Quick
            test_crash_fast_mode_rejected;
          Alcotest.test_case "missing rng rejected" `Quick
            test_crash_missing_rng_rejected;
          Alcotest.test_case "torn prefix keeps at most one extra store"
            `Quick test_crash_torn_prefix;
          Alcotest.test_case "compaction keeps values" `Quick
            test_compaction_keeps_values;
        ] );
      ( "misc",
        [
          Alcotest.test_case "tid registry" `Quick test_tid;
          Alcotest.test_case "latency spin" `Quick test_latency_spin;
        ] );
    ]
