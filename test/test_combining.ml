(* The flat-combining enqueue front-end (Dq.Combining_q): sequential
   semantics and fast-path persist shape, combined-batch stats,
   crash/recovery through the instance wrapper, a qcheck multi-domain
   property (conservation + per-producer FIFO through combined batches),
   mid-combine crash exploration under every adversarial policy, and a
   combining crash-storm smoke. *)

let fresh_heap () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ());
  Nvm.Heap.create ~mode:Nvm.Heap.Checked ~latency:Nvm.Latency.off ()

let with_combining ?(algorithm = "OptUnlinkedQ") f =
  let heap = fresh_heap () in
  let entry = Dq.Registry.instrumented (Dq.Registry.find algorithm) in
  let c = Dq.Combining_q.create heap (entry.Dq.Registry.make heap) in
  f heap c (Dq.Combining_q.instance c)

(* -- Sequential ------------------------------------------------------------- *)

let test_name_suffix () =
  with_combining (fun _ _ inst ->
      Alcotest.(check string)
        "suffixed" "OptUnlinkedQ+combining" inst.Dq.Queue_intf.name);
  let e = Dq.Registry.combining (Dq.Registry.find "OptUnlinkedQ") in
  Alcotest.(check string)
    "registry entry suffixed" "OptUnlinkedQ+combining" e.Dq.Registry.name;
  Alcotest.(check bool)
    "suffixed name still audited" true
    (Spec.Fence_audit.audited "OptUnlinkedQ+combining")

let test_fifo_fast_path () =
  with_combining (fun _ _ inst ->
      List.iter inst.Dq.Queue_intf.enqueue [ 1; 2; 3; 4; 5 ];
      Alcotest.(check (list int))
        "contents" [ 1; 2; 3; 4; 5 ]
        (inst.Dq.Queue_intf.to_list ());
      List.iter
        (fun v ->
          Alcotest.(check (option int))
            "dequeue" (Some v)
            (inst.Dq.Queue_intf.dequeue ()))
        [ 1; 2; 3; 4; 5 ];
      Alcotest.(check (option int))
        "drained" None
        (inst.Dq.Queue_intf.dequeue ()))

let test_batch_combines () =
  with_combining (fun heap c inst ->
      (* A multi-op announced batch must run as one combine pass: one
         "combine" span owning exactly one fence. *)
      Dq.Combining_q.enqueue_batch c [ 1; 2; 3; 4; 5; 6; 7; 8 ];
      let st = Dq.Combining_q.stats c in
      Alcotest.(check int) "one pass" 1 st.Dq.Combining_q.s_batches;
      Alcotest.(check int) "eight ops" 8 st.Dq.Combining_q.s_combined_ops;
      Alcotest.(check int) "max batch" 8 st.Dq.Combining_q.s_max_batch;
      (match
         Nvm.Span.find_aggregate (Nvm.Heap.spans heap)
           Dq.Instrumented.combine_label
       with
      | None -> Alcotest.fail "no combine span recorded"
      | Some a ->
          Alcotest.(check int) "combine spans" 1 a.Nvm.Span.count;
          Alcotest.(check bool)
            "combine span fences <= 1" true
            (a.Nvm.Span.max_fences <= 1));
      (* Singleton and empty batches bypass the combine machinery. *)
      Dq.Combining_q.enqueue_batch c [];
      Dq.Combining_q.enqueue_batch c [ 9 ];
      Alcotest.(check int)
        "still one pass" 1 (Dq.Combining_q.stats c).Dq.Combining_q.s_batches;
      Alcotest.(check (list int))
        "contents in order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
        (inst.Dq.Queue_intf.to_list ()))

let test_fast_path_per_op_shape () =
  (* Uncontended, the front-end must keep the exact per-op persist shape
     of the plain queue: 1 fence per op, 0 post-flush for the Opt pair
     (the strict-census certification run through the harness). *)
  let _, verdict =
    Harness.Runner.run_census_checked ~combining:true
      (Dq.Registry.find "OptUnlinkedQ") ~ops:500
  in
  (match verdict with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let c, _ =
    Harness.Runner.run_census_checked ~combining:true
      (Dq.Registry.find "OptUnlinkedQ") ~ops:500
  in
  Alcotest.(check string)
    "census row labelled" "OptUnlinkedQ+combining" c.Harness.Runner.c_queue

let test_crash_recover_instance () =
  with_combining (fun heap _ inst ->
      for i = 1 to 20 do
        inst.Dq.Queue_intf.enqueue i
      done;
      (* Every returned enqueue is durable: even the adversarial policy
         (nothing unflushed survives) must preserve all 20. *)
      Nvm.Crash.crash ~policy:Nvm.Crash.Only_persisted heap;
      Nvm.Tid.reset ();
      ignore (Nvm.Tid.register ());
      inst.Dq.Queue_intf.recover ();
      Alcotest.(check (list int))
        "all acknowledged items survive"
        (List.init 20 (fun i -> i + 1))
        (inst.Dq.Queue_intf.to_list ());
      (* The front-end is reusable after recovery. *)
      inst.Dq.Queue_intf.enqueue 21;
      Alcotest.(check (option int))
        "fifo after recovery" (Some 1)
        (inst.Dq.Queue_intf.dequeue ()))

(* -- Multi-domain property --------------------------------------------------- *)

(* Conservation and per-producer FIFO through combined batches: several
   producer domains push announced batches through one combining
   front-end while contending for the combiner lock; afterwards the
   drain must hold every item exactly once with each producer's items in
   order.  Randomizing producer count, volume and batch size exercises
   singleton announcements, multi-op slots and combiner handoff. *)
let prop_combined_batches =
  QCheck.Test.make ~count:12
    ~name:"combining: conservation + per-producer FIFO (multi-domain)"
    QCheck.(
      triple (int_range 2 4) (* producers *)
        (int_range 10 60) (* items per producer *)
        (int_range 1 6) (* announced batch size *))
    (fun (nproducers, per_thread, batch) ->
      let heap = fresh_heap () in
      let entry = Dq.Registry.instrumented (Dq.Registry.find "OptUnlinkedQ") in
      let c = Dq.Combining_q.create heap (entry.Dq.Registry.make heap) in
      let producers =
        List.init nproducers (fun p ->
            Domain.spawn (fun () ->
                Nvm.Tid.set (1 + p);
                let i = ref 1 in
                while !i <= per_thread do
                  let n = min batch (per_thread - !i + 1) in
                  let items =
                    List.init n (fun k -> (p * 1_000_000) + !i + k)
                  in
                  i := !i + n;
                  if n = 1 then Dq.Combining_q.enqueue c (List.hd items)
                  else Dq.Combining_q.enqueue_batch c items
                done))
      in
      List.iter Domain.join producers;
      let inst = Dq.Combining_q.instance c in
      let rec drain acc =
        match inst.Dq.Queue_intf.dequeue () with
        | Some v -> drain (v :: acc)
        | None -> List.rev acc
      in
      let all = drain [] in
      let conserved =
        List.length all = nproducers * per_thread
        && List.length (List.sort_uniq compare all)
           = nproducers * per_thread
      in
      let last = Hashtbl.create 4 in
      let fifo =
        List.for_all
          (fun v ->
            let p = v / 1_000_000 in
            let prev = Option.value ~default:0 (Hashtbl.find_opt last p) in
            Hashtbl.replace last p v;
            v > prev)
          all
      in
      conserved && fifo)

(* -- Mid-combine crash exploration ------------------------------------------- *)

(* The fiber explorer with enqueues routed through the front-end: the
   injected crash lands inside combine passes — after announce but
   before the batch's fence, or between fence issue and release — and
   the durable-linearizability checker plus the fence audit of the run's
   span aggregates must both stay green under every crash adversary. *)
let explorable_combining = [ "UnlinkedQ"; "OptUnlinkedQ"; "OptLinkedQ" ]

let test_combining_campaign ?policy ?(rounds = 40) name () =
  match
    Spec.Explore.campaign ?policy ~combining:true (Dq.Registry.find name)
      ~rounds
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_combining_crash_sweep name () =
  let entry = Dq.Registry.find name in
  let plans =
    [|
      [ Spec.Explore.Enq 101; Spec.Explore.Enq 102 ];
      [ Spec.Explore.Enq 201; Spec.Explore.Enq 202 ];
      [ Spec.Explore.Enq 301; Spec.Explore.Deq; Spec.Explore.Deq ];
    |]
  in
  for crash_at = 1 to 80 do
    match
      Spec.Explore.explore_once ~combining:true entry ~seed:13 ~plans
        ~crash_at:(Some crash_at)
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "crash at step %d: %s" crash_at e
  done

(* -- Storm smoke -------------------------------------------------------------- *)

let test_combining_storm () =
  let cfg =
    {
      Load.Storm.default_config with
      Load.Storm.shards = 2;
      producers = 3;
      consumers = 1;
      ops_per_cycle = 60;
      batch = 4;
      combining = true;
      drill_every = 2;
    }
  in
  let report = Load.Storm.run ~seed:7 ~cycles:3 cfg in
  Alcotest.(check bool) "storm verified" true (Fault.Report.ok report)

let () =
  Alcotest.run "combining"
    [
      ( "sequential",
        [
          Alcotest.test_case "name suffix" `Quick test_name_suffix;
          Alcotest.test_case "fast-path FIFO" `Quick test_fifo_fast_path;
          Alcotest.test_case "announced batch combines" `Quick
            test_batch_combines;
          Alcotest.test_case "fast path keeps per-op persist shape" `Quick
            test_fast_path_per_op_shape;
          Alcotest.test_case "crash and recover through instance" `Quick
            test_crash_recover_instance;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest ~long:true prop_combined_batches ] );
      ( "explore",
        List.concat_map
          (fun name ->
            [
              Alcotest.test_case (name ^ " random-evictions") `Slow
                (test_combining_campaign name);
              Alcotest.test_case (name ^ " only-persisted") `Slow
                (test_combining_campaign ~policy:Nvm.Crash.Only_persisted
                   ~rounds:30 name);
              Alcotest.test_case (name ^ " all-flushed") `Slow
                (test_combining_campaign ~policy:Nvm.Crash.All_flushed
                   ~rounds:30 name);
              Alcotest.test_case (name ^ " torn-prefix") `Slow
                (test_combining_campaign ~policy:Nvm.Crash.Torn_prefix
                   ~rounds:30 name);
              Alcotest.test_case (name ^ " crash sweep") `Slow
                (test_combining_crash_sweep name);
            ])
          explorable_combining );
      ( "storm",
        [ Alcotest.test_case "combining storm smoke" `Slow test_combining_storm ] );
    ]
