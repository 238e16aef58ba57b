(* Tests for the correctness machinery itself: the sequential spec, the
   exact linearizability checker (including its treatment of pending
   operations, which encodes durable linearizability's latitude), and the
   large-run invariant checks — then an end-to-end application: recording
   real concurrent histories from the queues and checking them. *)

open Spec

let op ?persist ?res ~id ~tid ~inv kind =
  { History.id; tid; kind; inv; res; persist }

let enq ?persist ?res ~id ~tid ~inv v =
  op ?persist ?res ~id ~tid ~inv (History.Enqueue v)

let deq ?persist ?res ~id ~tid ~inv v =
  op ?persist ?res ~id ~tid ~inv (History.Dequeue v)

(* -- Seq_queue ------------------------------------------------------------ *)

let test_seq_queue () =
  let q = Seq_queue.empty in
  Alcotest.(check bool) "empty" true (Seq_queue.is_empty q);
  let q = Seq_queue.enqueue (Seq_queue.enqueue q 1) 2 in
  (match Seq_queue.dequeue q with
  | Some (1, q') ->
      Alcotest.(check (list int)) "rest" [ 2 ] (Seq_queue.to_list q')
  | Some _ | None -> Alcotest.fail "expected Some (1, _)");
  Alcotest.(check (list int)) "of_list/to_list" [ 3; 4 ]
    (Seq_queue.to_list (Seq_queue.of_list [ 3; 4 ]))

(* -- Lin_check: sequential histories -------------------------------------- *)

let test_lin_sequential_ok () =
  let h =
    [
      enq ~id:0 ~tid:0 ~inv:0 ~res:1 10;
      enq ~id:1 ~tid:0 ~inv:2 ~res:3 20;
      deq ~id:2 ~tid:0 ~inv:4 ~res:5 (Some 10);
      deq ~id:3 ~tid:0 ~inv:6 ~res:7 (Some 20);
      deq ~id:4 ~tid:0 ~inv:8 ~res:9 None;
    ]
  in
  Alcotest.(check bool) "valid FIFO" true (Lin_check.check h)

let test_lin_wrong_order () =
  let h =
    [
      enq ~id:0 ~tid:0 ~inv:0 ~res:1 10;
      enq ~id:1 ~tid:0 ~inv:2 ~res:3 20;
      deq ~id:2 ~tid:0 ~inv:4 ~res:5 (Some 20);
    ]
  in
  Alcotest.(check bool) "LIFO order rejected" false (Lin_check.check h)

let test_lin_phantom_value () =
  let h = [ deq ~id:0 ~tid:0 ~inv:0 ~res:1 (Some 99) ] in
  Alcotest.(check bool) "phantom dequeue rejected" false (Lin_check.check h)

let test_lin_false_empty () =
  let h =
    [
      enq ~id:0 ~tid:0 ~inv:0 ~res:1 10;
      deq ~id:1 ~tid:0 ~inv:2 ~res:3 None;
    ]
  in
  Alcotest.(check bool) "empty after completed enqueue rejected" false
    (Lin_check.check h)

(* -- Lin_check: concurrency ----------------------------------------------- *)

(* Two overlapping enqueues may linearize in either order. *)
let test_lin_overlap () =
  let h =
    [
      enq ~id:0 ~tid:0 ~inv:0 ~res:5 10;
      enq ~id:1 ~tid:1 ~inv:1 ~res:4 20;
      deq ~id:2 ~tid:0 ~inv:6 ~res:7 (Some 20);
      deq ~id:3 ~tid:0 ~inv:8 ~res:9 (Some 10);
    ]
  in
  Alcotest.(check bool) "overlapping enqueues reorder" true (Lin_check.check h)

(* Real-time order must still be respected: e1 finished before e2 began. *)
let test_lin_realtime () =
  let h =
    [
      enq ~id:0 ~tid:0 ~inv:0 ~res:1 10;
      enq ~id:1 ~tid:1 ~inv:2 ~res:3 20;
      deq ~id:2 ~tid:0 ~inv:4 ~res:5 (Some 20);
      deq ~id:3 ~tid:0 ~inv:6 ~res:7 (Some 10);
    ]
  in
  Alcotest.(check bool) "real-time precedence enforced" false (Lin_check.check h)

(* A dequeue concurrent with the enqueue of its value is fine. *)
let test_lin_concurrent_transfer () =
  let h =
    [
      enq ~id:0 ~tid:0 ~inv:0 ~res:4 10;
      deq ~id:1 ~tid:1 ~inv:1 ~res:3 (Some 10);
    ]
  in
  Alcotest.(check bool) "concurrent hand-off" true (Lin_check.check h)

(* -- Lin_check: pending operations (durable linearizability) -------------- *)

(* A pending enqueue may be dropped... *)
let test_lin_pending_dropped () =
  let h =
    [
      enq ~id:0 ~tid:0 ~inv:0 10 (* never responded: crash *);
      deq ~id:1 ~tid:1 ~inv:1 ~res:2 None;
    ]
  in
  Alcotest.(check bool) "pending enqueue may vanish" true (Lin_check.check h)

(* ... or take effect (its value was dequeued after the crash). *)
let test_lin_pending_effective () =
  let h =
    [
      enq ~id:0 ~tid:0 ~inv:0 10 (* pending *);
      deq ~id:1 ~tid:1 ~inv:1 ~res:2 (Some 10);
    ]
  in
  Alcotest.(check bool) "pending enqueue may take effect" true
    (Lin_check.check h)

(* But a pending enqueue cannot justify the impossible. *)
let test_lin_pending_not_magic () =
  let h =
    [
      enq ~id:0 ~tid:0 ~inv:0 10 (* pending *);
      deq ~id:1 ~tid:1 ~inv:1 ~res:2 (Some 10);
      deq ~id:2 ~tid:1 ~inv:3 ~res:4 (Some 10);
    ]
  in
  Alcotest.(check bool) "value dequeued twice rejected" false (Lin_check.check h)

(* -- Lin_check: crash cuts (buffered durable linearizability) -------------- *)

(* A persist-stamped operation was covered by a group commit: it must
   survive the crash.  Un-stamped operations may vanish, but only as a
   contiguous suffix. *)

let test_cut_stamped_survives () =
  let h =
    [
      enq ~id:0 ~tid:0 ~inv:0 ~res:1 ~persist:2 10;
      enq ~id:1 ~tid:0 ~inv:3 ~res:4 20 (* unsynced *);
    ]
  in
  Alcotest.(check bool) "stamped prefix kept" true
    (Lin_check.check_crash_cut h ~recovered:[ 10 ]);
  Alcotest.(check bool) "unsynced tail may also survive" true
    (Lin_check.check_crash_cut h ~recovered:[ 10; 20 ]);
  Alcotest.(check bool) "stamped enqueue cannot vanish" false
    (Lin_check.check_crash_cut h ~recovered:[])

let test_cut_suffix_only () =
  (* Both enqueues completed and un-stamped: either may be lost, but a
     dropped operation never precedes a kept one. *)
  let h =
    [ enq ~id:0 ~tid:0 ~inv:0 ~res:1 10; enq ~id:1 ~tid:0 ~inv:2 ~res:3 20 ]
  in
  List.iter
    (fun (expected, recovered) ->
      Alcotest.(check bool)
        (Printf.sprintf "recovered [%s]"
           (String.concat ";" (List.map string_of_int recovered)))
        expected
        (Lin_check.check_crash_cut h ~recovered))
    [ (true, [ 10; 20 ]); (true, [ 10 ]); (true, []); (false, [ 20 ]) ]

let test_cut_stamped_dequeue () =
  (* A commit covered the dequeue too: its consumption is durable, so
     recovery replaying the value would duplicate it. *)
  let h =
    [
      enq ~id:0 ~tid:0 ~inv:0 ~res:1 ~persist:4 10;
      deq ~id:1 ~tid:1 ~inv:2 ~res:3 ~persist:4 (Some 10);
    ]
  in
  Alcotest.(check bool) "consumed stays consumed" true
    (Lin_check.check_crash_cut h ~recovered:[]);
  Alcotest.(check bool) "stamped dequeue cannot be replayed" false
    (Lin_check.check_crash_cut h ~recovered:[ 10 ])

let test_cut_pending_stamped () =
  (* Crash-interrupted enqueue whose commit nonetheless covered it (the
     journal append preceded the crash): it must be in the recovered
     state even though it never responded. *)
  let h = [ enq ~id:0 ~tid:0 ~inv:0 ~persist:1 10 ] in
  Alcotest.(check bool) "covered pending op survives" true
    (Lin_check.check_crash_cut h ~recovered:[ 10 ]);
  Alcotest.(check bool) "covered pending op cannot vanish" false
    (Lin_check.check_crash_cut h ~recovered:[])

(* -- Lin_check: capacity and tractability ---------------------------------- *)

(* The packed (mask, queue-hash) memo key is what affords max_ops = 32:
   a full-width concurrent history must check in bounded time.  Two
   threads of 16 operations each, every pair of cross-thread operations
   overlapping — the worst realistic shape for the DFS. *)
let test_lin_full_width_bounded () =
  Alcotest.(check int) "max_ops is 32" 32 Lin_check.max_ops;
  let ops = Lin_check.max_ops in
  let half = ops / 2 in
  let h =
    List.init half (fun i ->
        enq ~id:i ~tid:0 ~inv:(2 * i) ~res:((2 * i) + 1) (100 + i))
    @ List.init half (fun i ->
        deq ~id:(half + i) ~tid:1 ~inv:(2 * i) ~res:((2 * i) + 1)
          (Some (100 + i)))
  in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "32-op history linearizes" true (Lin_check.check h);
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 10.0 then
    Alcotest.failf "full-width check took %.1fs (memoisation regressed?)"
      elapsed;
  (* One past the bound is refused, not mis-checked. *)
  let too_many =
    List.init (ops + 1) (fun i ->
        enq ~id:i ~tid:0 ~inv:(2 * i) ~res:((2 * i) + 1) i)
  in
  try
    ignore (Lin_check.check too_many);
    Alcotest.fail "33-op history accepted"
  with Invalid_argument _ -> ()

(* -- Durable_check -------------------------------------------------------- *)

let v ~producer ~seq = Durable_check.encode ~producer ~seq

let test_durable_check_ok () =
  let logs =
    [|
      { Durable_check.enqueued = [ v ~producer:0 ~seq:1; v ~producer:0 ~seq:2 ];
        dequeued = [ v ~producer:1 ~seq:1 ] };
      { Durable_check.enqueued = [ v ~producer:1 ~seq:1 ];
        dequeued = [ v ~producer:0 ~seq:1 ] };
    |]
  in
  (match Durable_check.check ~remaining:[ v ~producer:0 ~seq:2 ] logs with
  | Ok () -> ()
  | Error e -> Alcotest.fail e)

let test_durable_check_duplicate () =
  let logs =
    [|
      { Durable_check.enqueued = [ v ~producer:0 ~seq:1 ];
        dequeued = [ v ~producer:0 ~seq:1; v ~producer:0 ~seq:1 ] };
    |]
  in
  (match Durable_check.check logs with
  | Ok () -> Alcotest.fail "duplicate dequeue not caught"
  | Error _ -> ())

let test_durable_check_order () =
  let logs =
    [|
      {
        Durable_check.enqueued = [ v ~producer:0 ~seq:1; v ~producer:0 ~seq:2 ];
        dequeued = [ v ~producer:0 ~seq:2; v ~producer:0 ~seq:1 ];
      };
    |]
  in
  (match Durable_check.check logs with
  | Ok () -> Alcotest.fail "order violation not caught"
  | Error _ -> ())

let test_durable_check_vanished () =
  let logs =
    [| { Durable_check.enqueued = [ v ~producer:0 ~seq:1 ]; dequeued = [] } |]
  in
  (match Durable_check.check ~remaining:[] logs with
  | Ok () -> Alcotest.fail "vanished item not caught"
  | Error _ -> ())

(* The remaining snapshot is checked against the dequeues too: a value
   may not be both, a survivor must have been enqueued, and a producer's
   dequeues come before its survivors. *)
let rejects_with_remaining name ~enqueued ~dequeued ~remaining () =
  let logs = [| { Durable_check.enqueued; dequeued } |] in
  match Durable_check.check ~remaining logs with
  | Ok () -> Alcotest.failf "%s not caught" name
  | Error _ -> ()

let test_durable_check_dequeued_and_remaining =
  rejects_with_remaining "value both dequeued and remaining"
    ~enqueued:[ v ~producer:0 ~seq:1; v ~producer:0 ~seq:2 ]
    ~dequeued:[ v ~producer:0 ~seq:1 ]
    ~remaining:[ v ~producer:0 ~seq:1; v ~producer:0 ~seq:2 ]

let test_durable_check_phantom_survivor =
  rejects_with_remaining "phantom survivor"
    ~enqueued:[ v ~producer:0 ~seq:1 ]
    ~dequeued:[ v ~producer:0 ~seq:1 ]
    ~remaining:[ v ~producer:1 ~seq:1 ]

let test_durable_check_dequeue_past_survivor =
  rejects_with_remaining "seq 3 dequeued while seq 2 remains"
    ~enqueued:[ v ~producer:0 ~seq:1; v ~producer:0 ~seq:2; v ~producer:0 ~seq:3 ]
    ~dequeued:[ v ~producer:0 ~seq:1; v ~producer:0 ~seq:3 ]
    ~remaining:[ v ~producer:0 ~seq:2 ]

(* -- End to end: record real concurrent histories and check them ---------- *)

let record_and_check entry () =
  (* Small op counts keep the exact checker tractable; repeat with several
     seeds for interleaving coverage. *)
  for seed = 1 to 8 do
    Nvm.Tid.reset ();
    ignore (Nvm.Tid.register ());
    let heap =
      Nvm.Heap.create ~mode:Nvm.Heap.Checked ~latency:Nvm.Latency.off ()
    in
    let q = entry.Dq.Registry.make heap in
    let h = History.create () in
    let worker w =
      Domain.spawn (fun () ->
          Nvm.Tid.set (1 + w);
          let rng = Random.State.make [| seed; w |] in
          for i = 1 to 5 do
            if Random.State.bool rng then
              History.record_enqueue h ~tid:w ((w * 100) + i) (fun () ->
                  q.Dq.Queue_intf.enqueue ((w * 100) + i))
            else
              ignore
                (History.record_dequeue h ~tid:w (fun () ->
                     q.Dq.Queue_intf.dequeue ()))
          done)
    in
    let ds = [ worker 0; worker 1 ] in
    List.iter Domain.join ds;
    match Lin_check.check_report (History.ops h) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

let () =
  Alcotest.run "spec"
    [
      ("seq-queue", [ Alcotest.test_case "model" `Quick test_seq_queue ]);
      ( "lin-check",
        [
          Alcotest.test_case "sequential ok" `Quick test_lin_sequential_ok;
          Alcotest.test_case "wrong order" `Quick test_lin_wrong_order;
          Alcotest.test_case "phantom value" `Quick test_lin_phantom_value;
          Alcotest.test_case "false empty" `Quick test_lin_false_empty;
          Alcotest.test_case "overlap reorders" `Quick test_lin_overlap;
          Alcotest.test_case "real-time respected" `Quick test_lin_realtime;
          Alcotest.test_case "concurrent hand-off" `Quick
            test_lin_concurrent_transfer;
          Alcotest.test_case "pending dropped" `Quick test_lin_pending_dropped;
          Alcotest.test_case "pending effective" `Quick
            test_lin_pending_effective;
          Alcotest.test_case "pending not magic" `Quick
            test_lin_pending_not_magic;
        ] );
      ( "crash-cut",
        [
          Alcotest.test_case "stamped ops survive" `Quick
            test_cut_stamped_survives;
          Alcotest.test_case "only a suffix may drop" `Quick
            test_cut_suffix_only;
          Alcotest.test_case "stamped dequeue stays consumed" `Quick
            test_cut_stamped_dequeue;
          Alcotest.test_case "covered pending op survives" `Quick
            test_cut_pending_stamped;
          Alcotest.test_case "full-width history in bounded time" `Quick
            test_lin_full_width_bounded;
        ] );
      ( "durable-check",
        [
          Alcotest.test_case "accepts valid run" `Quick test_durable_check_ok;
          Alcotest.test_case "catches duplicates" `Quick
            test_durable_check_duplicate;
          Alcotest.test_case "catches order violation" `Quick
            test_durable_check_order;
          Alcotest.test_case "catches vanished items" `Quick
            test_durable_check_vanished;
          Alcotest.test_case "catches dequeued-and-remaining" `Quick
            test_durable_check_dequeued_and_remaining;
          Alcotest.test_case "catches phantom survivors" `Quick
            test_durable_check_phantom_survivor;
          Alcotest.test_case "catches dequeues past a survivor" `Quick
            test_durable_check_dequeue_past_survivor;
        ] );
      ( "recorded-histories",
        List.map
          (fun entry ->
            Alcotest.test_case
              (entry.Dq.Registry.name ^ " linearizable")
              `Slow (record_and_check entry))
          Dq.Registry.all );
    ]
