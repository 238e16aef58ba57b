(* Tests for the durable keyed-store tier (lib/dset): sequential
   model conformance, per-op persist bounds, CrashableMap boundary and
   mid-operation crash campaigns across all three policies, multi-domain
   torn-prefix crashes (qcheck, seed-replayable), and the broker's
   exactly-once offsets composition. *)

let fresh_tid () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ())

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* -- sequential model conformance ------------------------------------------- *)

let test_model (entry : Dq.Registry.map_entry) () =
  fresh_tid ();
  let heap = Nvm.Heap.create () in
  let m = entry.make_map heap in
  let model = Hashtbl.create 64 in
  let rng = Random.State.make [| 0xD5E7; 1 |] in
  for _ = 1 to 4_000 do
    let key = Random.State.int rng 48 in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 ->
        let expected = Hashtbl.mem model key in
        let got = m.remove ~key in
        if got <> expected then
          Alcotest.failf "%s: remove(%d) returned %b, model says %b"
            entry.m_name key got expected;
        Hashtbl.remove model key
    | 3 | 4 ->
        let expected = Hashtbl.find_opt model key in
        let got = m.get ~key in
        if got <> expected then
          Alcotest.failf "%s: get(%d) disagrees with model" entry.m_name key
    | _ ->
        let value = Random.State.int rng 10_000 in
        m.put ~key ~value;
        Hashtbl.replace model key value
  done;
  let expected =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int)))
    (entry.m_name ^ " final contents")
    expected
    (List.sort compare (m.to_alist ()));
  Alcotest.(check int)
    (entry.m_name ^ " size")
    (Hashtbl.length model) (m.size ())

(* -- per-op persist bounds (the paper's claims, via spans) ------------------- *)

let test_fence_bounds (entry : Dq.Registry.map_entry) () =
  fresh_tid ();
  let heap = Nvm.Heap.create () in
  let m = (Dq.Registry.instrumented_map entry).make_map heap in
  let rng = Random.State.make [| 0xFE7CE; 2 |] in
  (* warm up, then measure a mixed workload from clean aggregates *)
  for key = 0 to 63 do
    m.put ~key ~value:key
  done;
  Nvm.Span.reset_closed (Nvm.Heap.spans heap);
  for i = 1 to 2_000 do
    let key = Random.State.int rng 96 in
    match i mod 5 with
    | 0 -> ignore (m.remove ~key)
    | 1 | 2 -> ignore (m.get ~key)
    | _ -> m.put ~key ~value:i
  done;
  let aggs = Nvm.Span.aggregates (Nvm.Heap.spans heap) in
  let find label =
    List.find_opt (fun a -> a.Nvm.Span.agg_label = label) aggs
  in
  check_ok
    (entry.m_name ^ " per-op bounds")
    (Spec.Fence_audit.check_aggregates ~name:entry.m_name aggs);
  (* the claims are non-vacuous: all three op labels were observed *)
  List.iter
    (fun label ->
      match find label with
      | Some _ -> ()
      | None -> Alcotest.failf "no %s spans recorded" label)
    Dset.Instrumented.op_labels;
  (* SOFT's delete/lookup claims are exactly zero persistence *)
  if entry.m_name = "SOFTMap" then
    List.iter
      (fun label ->
        match find label with
        | Some a ->
            Alcotest.(check int) (label ^ " fences") 0 a.Nvm.Span.max_fences;
            Alcotest.(check int) (label ^ " flushes") 0 a.Nvm.Span.max_flushes
        | None -> ())
      [ Dset.Instrumented.del_label; Dset.Instrumented.get_label ]

(* -- CrashableMap campaigns -------------------------------------------------- *)

let boundary_script =
  Spec.Crashable_map.
    [
      Put (1, 101);
      Put (2, 102);
      Put (1, 111);
      Remove 2;
      Put (3, 103);
      Sync;
      Remove 1;
      Put (2, 122);
      Put (4, 104);
      Remove 3;
      Put (1, 131);
      Sync;
      Remove 4;
      Put (5, 105);
    ]

let test_exhaustive_boundaries (entry : Dq.Registry.map_entry) () =
  check_ok
    (entry.m_name ^ " exhaustive boundary crashes")
    (Spec.Crashable_map.exhaustive entry ~script:boundary_script ~seed:7)

let test_midop_campaign (entry : Dq.Registry.map_entry) () =
  check_ok
    (entry.m_name ^ " mid-op campaign")
    (Spec.Crashable_map.campaign entry ~rounds:24)

(* Two crash/recover cycles with operations in between: exercises the
   recovery-time neutralisation of stale persisted records. *)
let test_double_crash (entry : Dq.Registry.map_entry) () =
  fresh_tid ();
  let heap = Nvm.Heap.create () in
  let m = entry.make_map heap in
  for key = 0 to 19 do
    m.put ~key ~value:(100 + key)
  done;
  for key = 0 to 9 do
    ignore (m.remove ~key)
  done;
  m.sync ();
  Nvm.Crash.crash_seeded ~seed:41 ~policy:Nvm.Crash.Torn_prefix heap;
  fresh_tid ();
  m.recover ();
  let round1 = List.sort compare (m.to_alist ()) in
  Alcotest.(check (list (pair int int)))
    (entry.m_name ^ " first recovery (synced state)")
    (List.init 10 (fun i -> (10 + i, 110 + i)))
    round1;
  (* overwrite some survivors, delete others, crash again un-synced *)
  for key = 10 to 14 do
    m.put ~key ~value:(200 + key)
  done;
  for key = 15 to 17 do
    ignore (m.remove ~key)
  done;
  Nvm.Crash.crash_seeded ~seed:42 ~policy:Nvm.Crash.Torn_prefix heap;
  fresh_tid ();
  m.recover ();
  let applied =
    Spec.Crashable_map.(
      List.init 20 (fun k -> Put (k, 100 + k))
      @ List.init 10 (fun k -> Remove k)
      @ [ Sync ]
      @ List.init 5 (fun i -> Put (10 + i, 210 + i))
      @ List.init 3 (fun i -> Remove (15 + i)))
  in
  check_ok
    (entry.m_name ^ " second recovery")
    (Spec.Crashable_map.check_recovered ~lazy_remove:entry.lazy_remove
       ~applied ~recovered:(m.to_alist ()) ())

(* -- the view rule, pinned by hand ------------------------------------------ *)

(* Each row: whether the map's removes are lazy (SOFT), the applied ops,
   the op pending at the crash, a recovered state, and whether
   {!Spec.Crashable_map.check_recovered} must accept it. *)
let view_rule_rows =
  Spec.Crashable_map.
    [
      ("SOFT unsynced remove may be undone", true,
       [ Put (1, 10); Remove 1 ], None, [ (1, 10) ], true);
      ("link-free remove may not be undone", false,
       [ Put (1, 10); Remove 1 ], None, [ (1, 10) ], false);
      ("sync pins a SOFT remove", true,
       [ Put (1, 10); Remove 1; Sync ], None, [ (1, 10) ], false);
      ("pending put may land", false, [], Some (Put (1, 10)), [ (1, 10) ],
       true);
      ("pending put may vanish", false, [], Some (Put (1, 10)), [], true);
      ("acknowledged put may not vanish", false, [ Put (1, 10) ], None, [],
       false);
      ("never-written key rejected", false, [ Put (1, 10) ], None,
       [ (1, 10); (2, 20) ], false);
      ("key recovered twice rejected", false, [ Put (1, 10) ], None,
       [ (1, 10); (1, 10) ], false);
      ("value older than its floor rejected", false,
       [ Put (1, 10); Put (1, 11) ], None, [ (1, 10) ], false);
      ("SOFT per-key relaxation: lazy remove kept undone", true,
       [ Put (1, 10); Remove 1; Put (2, 20) ], None, [ (1, 10); (2, 20) ],
       true);
      ("SOFT per-key relaxation: lazy remove landed", true,
       [ Put (1, 10); Remove 1; Put (2, 20) ], None, [ (2, 20) ], true);
      ("pending link-free remove may land", false, [ Put (1, 10) ],
       Some (Remove 1), [], true);
      ("SOFT remove then put pins both", true,
       [ Put (1, 10); Remove 1; Put (1, 12) ], None, [ (1, 10) ], false);
    ]

let test_view_rule_table () =
  List.iter
    (fun (what, lazy_remove, applied, pending, recovered, accept) ->
      let verdict =
        Spec.Crashable_map.check_recovered ~lazy_remove ~applied ?pending
          ~recovered ()
      in
      Alcotest.(check bool) what accept (Result.is_ok verdict))
    view_rule_rows;
  (* The rule itself over a counter: a durable op drops every older view. *)
  let views ops =
    List.sort compare (Spec.Lin_check.views ~init:0 ~apply:( + ) ops)
  in
  Alcotest.(check (list int)) "all durable: only the latest view" [ 6 ]
    (views [ (1, true); (2, true); (3, true) ]);
  Alcotest.(check (list int)) "none durable: every prefix" [ 0; 1; 3; 6 ]
    (views [ (1, false); (2, false); (3, false) ])

(* -- multi-domain torn-prefix crashes (qcheck, seed-replayable) -------------- *)

(* Each domain owns a disjoint key range, so concatenating the thread
   logs preserves every key's operation order and the per-key checker
   applies unchanged. *)
let prop_concurrent_torn (entry : Dq.Registry.map_entry) =
  QCheck.Test.make ~count:12
    ~name:
      (Printf.sprintf "%s: multi-domain ops then Torn_prefix crash"
         entry.m_name)
    QCheck.(
      make
        ~print:(fun (seed, domains, per) ->
          Printf.sprintf "seed=%d domains=%d per_domain=%d" seed domains per)
        Gen.(triple (int_bound 10_000) (int_range 2 3) (int_range 40 120)))
    (fun (seed, domains, per) ->
      fresh_tid ();
      let heap = Nvm.Heap.create () in
      let m = entry.make_map heap in
      let logs = Array.make domains [] in
      let workers =
        List.init domains (fun w ->
            Domain.spawn (fun () ->
                Nvm.Tid.set (1 + w);
                let rng = Random.State.make [| seed; w |] in
                let log = ref [] in
                for _ = 1 to per do
                  let key = (w * 1000) + Random.State.int rng 12 in
                  if Random.State.int rng 4 = 0 then begin
                    ignore (m.remove ~key);
                    log := Spec.Crashable_map.Remove key :: !log
                  end
                  else begin
                    let value = Random.State.int rng 1_000 in
                    m.put ~key ~value;
                    log := Spec.Crashable_map.Put (key, value) :: !log
                  end
                done;
                logs.(w) <- List.rev !log))
      in
      List.iter Domain.join workers;
      Nvm.Crash.crash_seeded ~seed ~policy:Nvm.Crash.Torn_prefix heap;
      fresh_tid ();
      m.recover ();
      let applied = List.concat (Array.to_list logs) in
      match
        Spec.Crashable_map.check_recovered ~lazy_remove:entry.lazy_remove
          ~applied ~recovered:(m.to_alist ()) ()
      with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "%s (seed %d)" msg seed)

(* -- broker exactly-once composition ----------------------------------------- *)

(* Durable offsets under crash cycles: duplicate publishes are refused
   by the dedup index, and across two full crash/recover cycles no
   sequence is ever delivered twice to the same consumer group — and
   none is lost (all operations here complete before each crash, so
   the commit offsets and the queue are durable at the crash point, and
   recovery derives the index from them). *)
let test_broker_exactly_once () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:2 ~offsets:true () in
  let enc = Spec.Durable_check.encode in
  let producers = 3 and seqs = 40 in
  let publish_all ~expect_fresh =
    for producer = 0 to producers - 1 do
      for seq = 1 to seqs do
        let item = enc ~producer ~seq in
        match
          (Broker.Service.enqueue_once service ~stream:producer item,
           expect_fresh)
        with
        | Broker.Service.Enqueued, true | Broker.Service.Duplicate, false ->
            ()
        | Broker.Service.Enqueued, false ->
            Alcotest.failf "producer %d seq %d re-accepted after recovery"
              producer seq
        | Broker.Service.Duplicate, true ->
            Alcotest.failf "producer %d seq %d wrongly deduplicated" producer
              seq
        | Broker.Service.Rejected v, _ ->
            Alcotest.failf "producer %d seq %d rejected: %s" producer seq
              (Broker.Backpressure.verdict_name v)
      done
    done
  in
  publish_all ~expect_fresh:true;
  (* immediate retry storm: every republish must be refused *)
  publish_all ~expect_fresh:false;
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
  for stream = 0 to producers - 1 do
    deliver_n ~stream (seqs / 2)
  done;
  let crash seed =
    let report =
      Broker.Recovery.crash_and_recover
        ~rng:(Random.State.make [| seed |])
        ~producer_of:Spec.Durable_check.producer_of service
    in
    if not (Broker.Recovery.ok report) then
      Alcotest.fail "broker recovery validation failed"
  in
  crash 11;
  (* post-crash producer retries: everything is already published *)
  publish_all ~expect_fresh:false;
  for stream = 0 to producers - 1 do
    deliver_n ~stream (seqs / 4)
  done;
  crash 12;
  (* drain the rest; the two crash cycles must not re-deliver anything *)
  for stream = 0 to producers - 1 do
    let rec drain () =
      match Broker.Service.dequeue_committed service ~stream ~group:1 with
      | Broker.Service.Item v ->
          let key =
            (Spec.Durable_check.producer_of v, Spec.Durable_check.seq_of v)
          in
          if Hashtbl.mem delivered key then
            Alcotest.failf "producer %d seq %d re-delivered after recovery"
              (fst key) (snd key);
          Hashtbl.add delivered key ();
          drain ()
      | Broker.Service.Empty -> ()
      | _ -> Alcotest.fail "unexpected dequeue verdict"
    in
    drain ()
  done;
  (* exactly-once AND no loss: every sequence delivered exactly once *)
  Alcotest.(check int) "total deliveries" (producers * seqs)
    (Hashtbl.length delivered);
  for producer = 0 to producers - 1 do
    for seq = 1 to seqs do
      if not (Hashtbl.mem delivered (producer, seq)) then
        Alcotest.failf "producer %d seq %d lost" producer seq
    done
  done;
  (* the offset tier's map spans stay within their variant's bounds *)
  check_ok "broker strict audit (queue + offsets)"
    (Broker.Census.strict_audit service);
  (* the dedup index writes nothing: the only map puts are the
     commits of delivered items *)
  match
    List.find_opt
      (fun (a : Nvm.Span.agg) ->
        a.Nvm.Span.agg_label = Dset.Instrumented.ins_label)
      (Broker.Census.span_aggregates service)
  with
  | Some a ->
      Alcotest.(check int) "ins spans equal the committed deliveries"
        (Hashtbl.length delivered) a.Nvm.Span.count
  | None -> Alcotest.fail "no ins span"

(* -- registry ---------------------------------------------------------------- *)

let test_registry () =
  Alcotest.(check int) "two map variants" 2 (List.length Dq.Registry.maps);
  let lf = Dq.Registry.find_map "LinkFreeMap" in
  let soft = Dq.Registry.find_map "SOFTMap" in
  Alcotest.(check bool) "link-free removes are immediate" false lf.lazy_remove;
  Alcotest.(check bool) "SOFT removes are lazy" true soft.lazy_remove;
  Alcotest.(check bool) "both audited" true
    (Spec.Fence_audit.audited "LinkFreeMap"
    && Spec.Fence_audit.audited "SOFTMap");
  match Dq.Registry.find_map "NoSuchMap" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "find_map accepted an unknown name"

let () =
  let q = QCheck_alcotest.to_alcotest in
  let per_map mk = List.map mk Dq.Registry.maps in
  Alcotest.run "dset"
    [
      ( "model",
        per_map (fun e ->
            Alcotest.test_case (e.Dq.Registry.m_name ^ " vs Hashtbl") `Quick
              (test_model e)) );
      ( "bounds",
        per_map (fun e ->
            Alcotest.test_case (e.Dq.Registry.m_name ^ " persist bounds")
              `Quick (test_fence_bounds e)) );
      ( "crashable-map",
        per_map (fun e ->
            Alcotest.test_case
              (e.Dq.Registry.m_name ^ " boundary x policies")
              `Quick
              (test_exhaustive_boundaries e))
        @ per_map (fun e ->
              Alcotest.test_case (e.Dq.Registry.m_name ^ " mid-op campaign")
                `Quick (test_midop_campaign e))
        @ per_map (fun e ->
              Alcotest.test_case (e.Dq.Registry.m_name ^ " double crash")
                `Quick (test_double_crash e))
        @ [ Alcotest.test_case "view rule table" `Quick test_view_rule_table ]
      );
      ( "concurrent-torn",
        per_map (fun e -> q (prop_concurrent_torn e)) );
      ( "broker-offsets",
        [
          Alcotest.test_case "exactly-once across crash cycles" `Quick
            test_broker_exactly_once;
        ] );
      ("registry", [ Alcotest.test_case "map registry" `Quick test_registry ]);
    ]
