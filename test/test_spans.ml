(* The op-scoped persist-span spine (Nvm.Span) and the per-operation
   fence audit built on it.

   Three layers of coverage:
   - span mechanics: deltas, nesting, the exclusion rule for setup spans,
     trace ring wrap-around, abandonment on crash, export formats;
   - the paper's per-op worst-case bounds as a qcheck property over
     randomized multi-domain runs of the five audited queues (max fences
     per operation = 1, zero post-flush accesses for the Opt variants) —
     per operation, not on average: one violating op fails;
   - batched-fence span ownership through the broker: every batch span
     owns exactly one closing fence, the op spans inside it own zero, and
     the steady-state sharded census reports exactly 1.0000 fences/op
     unbatched (setup persists attributed to setup spans). *)

let audited_queues =
  [ "UnlinkedQ"; "LinkedQ"; "OptUnlinkedQ"; "OptLinkedQ"; "ONLL-Q" ]

let fresh_heap () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ());
  Nvm.Heap.create ~mode:Nvm.Heap.Fast ~latency:Nvm.Latency.off ()

(* -- Span mechanics ------------------------------------------------------- *)

let test_delta () =
  let heap = fresh_heap () in
  let spans = Nvm.Heap.spans heap in
  let r = Nvm.Heap.alloc_region heap ~tag:Nvm.Region.Meta ~words:8 in
  let addr = Nvm.Region.line_addr r 0 in
  let sp =
    Nvm.Span.open_span spans "op";
    Nvm.Heap.write heap addr 7;
    ignore (Nvm.Heap.read heap addr);
    Nvm.Heap.flush heap addr;
    Nvm.Heap.sfence heap;
    Nvm.Span.close_span spans
  in
  Alcotest.(check string) "label" "op" sp.Nvm.Span.label;
  Alcotest.(check int) "writes" 1 sp.Nvm.Span.delta.Nvm.Stats.writes;
  Alcotest.(check int) "reads" 1 sp.Nvm.Span.delta.Nvm.Stats.reads;
  Alcotest.(check int) "flushes" 1 sp.Nvm.Span.delta.Nvm.Stats.flushes;
  Alcotest.(check int) "fences" 1 sp.Nvm.Span.delta.Nvm.Stats.fences;
  (* The totals the spans feed are the same array Heap.stats returns. *)
  Alcotest.(check int) "totals fences"
    2 (* alloc_region's setup fence + the span's *)
    (Nvm.Stats.total (Nvm.Heap.stats heap)).Nvm.Stats.fences

let test_nesting_and_exclusion () =
  let heap = fresh_heap () in
  let spans = Nvm.Heap.spans heap in
  let r = Nvm.Heap.alloc_region heap ~tag:Nvm.Region.Meta ~words:8 in
  let addr = Nvm.Region.line_addr r 0 in
  Nvm.Span.open_span spans "outer";
  (* A plain child: its work stays visible to the parent. *)
  Nvm.Span.with_span spans "child" (fun () -> Nvm.Heap.persist_line heap addr);
  (* An excluded child (setup): invisible to the parent. *)
  Nvm.Span.with_span ~exclude:true spans "setup:x" (fun () ->
      Nvm.Heap.persist_line heap addr;
      Nvm.Heap.persist_line heap addr);
  let outer = Nvm.Span.close_span spans in
  Alcotest.(check int) "parent sees plain child only" 1
    outer.Nvm.Span.delta.Nvm.Stats.fences;
  (match Nvm.Span.find_aggregate spans "setup:x" with
  | Some a ->
      Alcotest.(check int) "excluded child self-reports" 2
        a.Nvm.Span.sum.Nvm.Stats.fences
  | None -> Alcotest.fail "setup:x aggregate missing");
  match Nvm.Span.find_aggregate spans "outer" with
  | Some a ->
      Alcotest.(check int) "outer max fences" 1 a.Nvm.Span.max_fences;
      Alcotest.(check int) "outer count" 1 a.Nvm.Span.count
  | None -> Alcotest.fail "outer aggregate missing"

(* A span opened inside an excluded span is excluded too: the sink sees
   it excluded, it aggregates under its own label, and no enclosing span
   is charged for it — not even its excluded parent, so each counter
   lands in exactly one span.  The shape of setup work: the excluded
   "setup:alloc" spans of the regions a constructor allocates open
   inside its excluded "setup:create" span. *)
let test_nested_in_excluded () =
  let heap = fresh_heap () in
  let spans = Nvm.Heap.spans heap in
  let r = Nvm.Heap.alloc_region heap ~tag:Nvm.Region.Meta ~words:8 in
  let addr = Nvm.Region.line_addr r 0 in
  let sunk = ref [] in
  Nvm.Span.set_sink spans
    (Some
       (fun c ->
         if not c.Nvm.Span.instant then
           sunk := (c.Nvm.Span.label, c.Nvm.Span.excluded) :: !sunk));
  let before = Nvm.Stats.total (Nvm.Heap.stats heap) in
  Nvm.Span.open_span spans "op";
  Nvm.Heap.persist_line heap addr;
  Nvm.Span.with_span ~exclude:true spans "behind" (fun () ->
      Nvm.Span.with_span spans "inner" (fun () ->
          Nvm.Heap.flush heap addr;
          Nvm.Heap.flush heap addr);
      Nvm.Heap.sfence heap);
  let op = Nvm.Span.close_span spans in
  Nvm.Span.set_sink spans None;
  let after = Nvm.Stats.total (Nvm.Heap.stats heap) in
  Alcotest.(check (list (pair string bool)))
    "sink: the inner span is excluded"
    [ ("inner", true); ("behind", true); ("op", false) ]
    (List.rev !sunk);
  Alcotest.(check (pair int int)) "op: its own flush and fence only" (1, 1)
    (op.Nvm.Span.delta.Nvm.Stats.flushes, op.Nvm.Span.delta.Nvm.Stats.fences);
  let agg label =
    match Nvm.Span.find_aggregate spans label with
    | Some a -> (a.Nvm.Span.sum.Nvm.Stats.flushes, a.Nvm.Span.sum.Nvm.Stats.fences)
    | None -> Alcotest.failf "%s aggregate missing" label
  in
  Alcotest.(check (pair int int)) "inner: its own two flushes" (2, 0)
    (agg "inner");
  Alcotest.(check (pair int int)) "behind: its fence, not inner's flushes"
    (0, 1) (agg "behind");
  (* No double count: the three spans' deltas add up to the totals. *)
  Alcotest.(check (pair int int)) "spans sum to the totals"
    ( after.Nvm.Stats.flushes - before.Nvm.Stats.flushes,
      after.Nvm.Stats.fences - before.Nvm.Stats.fences )
    (let f1, n1 = agg "inner" and f2, n2 = agg "behind" and f3, n3 = agg "op" in
     (f1 + f2 + f3, n1 + n2 + n3))

let test_ring_wrap_and_export () =
  let heap = fresh_heap () in
  let spans = Nvm.Heap.spans heap in
  Nvm.Span.set_tracing spans ~capacity:4;
  for i = 1 to 6 do
    Nvm.Span.with_span spans (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let tr = Nvm.Span.trace spans in
  Alcotest.(check int) "ring keeps the last capacity spans" 4 (List.length tr);
  Alcotest.(check (list string)) "oldest evicted, order kept"
    [ "s3"; "s4"; "s5"; "s6" ]
    (List.map (fun sp -> sp.Nvm.Span.label) tr);
  let tmp = Filename.temp_file "spans" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      let n = Nvm.Span.export_jsonl spans oc in
      close_out oc;
      Alcotest.(check int) "jsonl exports every retained span" 4 n;
      let ic = open_in tmp in
      let lines = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr lines
         done
       with End_of_file -> ());
      close_in ic;
      Alcotest.(check int) "one line per span" 4 !lines;
      let oc = open_out tmp in
      let n = Nvm.Span.export_chrome spans oc in
      close_out oc;
      Alcotest.(check int) "chrome exports every retained span" 4 n;
      let ic = open_in tmp in
      Alcotest.(check char) "chrome trace is a JSON array" '['
        (input_char ic);
      close_in ic)

let test_abandon () =
  let heap = fresh_heap () in
  let spans = Nvm.Heap.spans heap in
  Nvm.Span.open_span spans "in-flight";
  Alcotest.(check int) "open" 1 (Nvm.Span.depth spans);
  (* A crash clears pending persists and abandons open frames. *)
  Nvm.Heap.clear_pending heap;
  Alcotest.(check int) "abandoned" 0 (Nvm.Span.depth spans);
  Alcotest.check_raises "close after abandon"
    (Invalid_argument "Nvm.Span.close_span: no open span") (fun () ->
      ignore (Nvm.Span.close_span spans));
  Alcotest.(check bool) "abandoned frames never aggregate" true
    (Nvm.Span.find_aggregate spans "in-flight" = None)

let test_reset_closed () =
  let heap = fresh_heap () in
  let spans = Nvm.Heap.spans heap in
  Nvm.Span.with_span spans "warmup" (fun () -> Nvm.Heap.sfence heap);
  Nvm.Span.reset_closed spans;
  Alcotest.(check bool) "aggregates forgotten" true
    (Nvm.Span.aggregates spans = []);
  (* Totals survive a closed-state reset (they are cumulative). *)
  Alcotest.(check int) "totals survive" 1
    (Nvm.Stats.total (Nvm.Heap.stats heap)).Nvm.Stats.fences

(* -- Per-op worst-case bounds (single-threaded, exact) --------------------- *)

let test_census_bounds name () =
  let entry = Dq.Registry.find name in
  let census, verdict = Harness.Runner.run_census_checked entry ~ops:500 in
  (match verdict with
  | Ok () -> ()
  | Error e -> Alcotest.failf "strict audit: %s" e);
  let _, enq_maxf, _, enq_maxpf = census.Harness.Runner.enq_max in
  let _, deq_maxf, _, deq_maxpf = census.Harness.Runner.deq_max in
  Alcotest.(check int) "worst enqueue fences exactly 1" 1 enq_maxf;
  Alcotest.(check int) "worst dequeue fences exactly 1" 1 deq_maxf;
  let _, enq_f, _, _ = census.Harness.Runner.enq in
  let _, deq_f, _, _ = census.Harness.Runner.deq in
  Alcotest.(check (float 1e-9)) "avg enqueue fences exactly 1.0" 1.0 enq_f;
  Alcotest.(check (float 1e-9)) "avg dequeue fences exactly 1.0" 1.0 deq_f;
  if name = "OptUnlinkedQ" || name = "OptLinkedQ" then begin
    Alcotest.(check int) "no post-flush access, worst enqueue" 0 enq_maxpf;
    Alcotest.(check int) "no post-flush access, worst dequeue" 0 deq_maxpf
  end

(* -- Per-op worst-case bounds across randomized multi-domain runs ---------- *)

(* Every op span of a multi-domain run enters the heap's aggregates; the
   property is the paper's worst-case claim itself, read from them. *)
let prop_multi_domain name =
  QCheck.Test.make ~count:8
    ~name:(name ^ ": per-op bounds hold in randomized multi-domain runs")
    QCheck.(
      triple (int_range 1 4) (int_range 50 200) (int_range 0 1_000_000))
    (fun (domains, ops_per_domain, seed) ->
      let entry = Dq.Registry.find name in
      Nvm.Tid.reset ();
      Nvm.Tid.set domains;
      let heap =
        Nvm.Heap.create ~mode:Nvm.Heap.Fast ~latency:Nvm.Latency.off ()
      in
      if not (Spec.Fence_audit.audited name) then
        QCheck.Test.fail_report (name ^ " has no audited bound");
      let q = (Dq.Registry.instrumented entry).Dq.Registry.make heap in
      let workers =
        List.init domains (fun w ->
            Domain.spawn (fun () ->
                Nvm.Tid.set w;
                let rng = Random.State.make [| seed; w |] in
                for i = 1 to ops_per_domain do
                  if Random.State.int rng 3 < 2 then
                    q.Dq.Queue_intf.enqueue ((w * 1_000_000) + i)
                  else ignore (q.Dq.Queue_intf.dequeue ())
                done))
      in
      List.iter Domain.join workers;
      let aggs = Nvm.Span.aggregates (Nvm.Heap.spans heap) in
      (match Spec.Fence_audit.check_aggregates ~name aggs with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_report e);
      (* Every operation was observed, and the worst op hit the bound
         exactly (each op fences once — never zero, never twice). *)
      let c = Broker.Census.per_op_of_aggregates aggs in
      c.Broker.Census.ops = domains * ops_per_domain
      && c.Broker.Census.max_op_fences = 1
      &&
      if name = "OptUnlinkedQ" || name = "OptLinkedQ" then
        c.Broker.Census.max_op_post_flush = 0
      else true)

(* -- Batched-fence span ownership through the broker ----------------------- *)

let test_broker_batch_spans () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ());
  let service =
    Broker.Service.create ~algorithm:"OptUnlinkedQ" ~shards:2
      ~mode:Nvm.Heap.Fast ()
  in
  let streams = 4 and per_stream = 240 and batch = 12 in
  for stream = 0 to streams - 1 do
    let seq = ref 1 in
    while !seq <= per_stream do
      let items =
        List.init batch (fun i ->
            Spec.Durable_check.encode ~producer:stream ~seq:(!seq + i))
      in
      seq := !seq + batch;
      match Broker.Service.enqueue_batch service ~stream items with
      | n, Broker.Backpressure.Accepted when n = batch -> ()
      | _ -> Alcotest.fail "batch not accepted"
    done
  done;
  (match Broker.Census.strict_audit service with
  | Ok () -> ()
  | Error e -> Alcotest.failf "strict audit: %s" e);
  let c = Broker.Census.span_census service in
  let total_ops = streams * per_stream in
  Alcotest.(check int) "every enqueue ran in an op span" total_ops
    c.Broker.Census.ops;
  Alcotest.(check int) "one batch span per batch" (total_ops / batch)
    c.Broker.Census.batches;
  (* Fence ownership: the batch-closing fence belongs to the batch span;
     the op spans inside observe zero. *)
  Alcotest.(check int) "op spans own no fence when batched" 0
    c.Broker.Census.op_fences_total;
  Alcotest.(check int) "worst op span fences" 0 c.Broker.Census.max_op_fences;
  Alcotest.(check int) "every batch span owns exactly one fence"
    (total_ops / batch) c.Broker.Census.batch_fences_total;
  Alcotest.(check int) "worst batch span fences" 1
    c.Broker.Census.max_batch_fences;
  Alcotest.(check int) "Opt queue: no post-flush access in any op" 0
    c.Broker.Census.max_op_post_flush

(* Steady-state sharded census: setup persists attributed to setup spans
   make the unbatched fences/op row exactly 1.0000 (the satellite fix —
   this was 1.0003 when alloc_region leaked into the steady state). *)
let test_sharded_census_exact () =
  let cfg =
    {
      Load.Sharded.default_config with
      shards = 2;
      threads = 4;
      ops_per_thread = 1_500;
      batch = 1;
    }
  in
  let r = Load.Sharded.run cfg in
  Alcotest.(check (float 0.)) "unbatched: exactly 1.0000 fences/op" 1.0
    r.Load.Sharded.fences_per_op;
  Alcotest.(check int) "worst op fences 1" 1 r.Load.Sharded.max_op_fences;
  Alcotest.(check int) "no post-flush in any op" 0
    r.Load.Sharded.max_post_flush;
  let r12 = Load.Sharded.run { cfg with Load.Sharded.batch = 12 } in
  Alcotest.(check (float 0.)) "batch 12: exactly 1/12 fences/op"
    (1. /. 12.) r12.Load.Sharded.fences_per_op;
  Alcotest.(check int) "worst batch fences 1" 1
    r12.Load.Sharded.max_batch_fences

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "spans"
    [
      ( "mechanics",
        [
          Alcotest.test_case "delta and totals" `Quick test_delta;
          Alcotest.test_case "nesting and exclusion" `Quick
            test_nesting_and_exclusion;
          Alcotest.test_case "a span nested in an excluded span is excluded"
            `Quick test_nested_in_excluded;
          Alcotest.test_case "trace ring and export" `Quick
            test_ring_wrap_and_export;
          Alcotest.test_case "crash abandons open spans" `Quick test_abandon;
          Alcotest.test_case "reset_closed keeps totals" `Quick
            test_reset_closed;
        ] );
      ( "census-bounds",
        List.map
          (fun name ->
            Alcotest.test_case name `Quick (test_census_bounds name))
          audited_queues );
      ( "multi-domain-bounds",
        List.map (fun name -> q (prop_multi_domain name)) audited_queues );
      ( "broker",
        [
          Alcotest.test_case "batch spans own the closing fence" `Quick
            test_broker_batch_spans;
          Alcotest.test_case "steady-state census is exact" `Quick
            test_sharded_census_exact;
        ] );
    ]
