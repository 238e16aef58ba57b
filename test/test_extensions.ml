(* Tests for the extension layers: the persistent value arena, typed
   queues over it, the original Friedman queue's result recovery, and
   ONLL-specific behaviour (Section 2.1's optimal design point for an
   arbitrary object). *)

module H = Nvm.Heap

let fresh_heap () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ());
  H.create ~mode:Nvm.Heap.Checked ~latency:Nvm.Latency.off ()

let recover_tid () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ())

(* -- Value_store ----------------------------------------------------------- *)

let test_value_roundtrip () =
  let heap = fresh_heap () in
  let store = Dq.Value_store.create heap in
  List.iter
    (fun s ->
      let h = Dq.Value_store.put ~fence:true store s in
      Alcotest.(check string) "roundtrip" s (Dq.Value_store.get store h))
    [ ""; "a"; "1234567" (* exactly one word *); "12345678"; String.make 1000 'x' ]

let test_value_many () =
  let heap = fresh_heap () in
  let store = Dq.Value_store.create heap in
  let handles =
    List.init 500 (fun i ->
        (i, Dq.Value_store.put store (Printf.sprintf "value-%d-%s" i (String.make (i mod 40) 'y'))))
  in
  H.sfence heap;
  List.iter
    (fun (i, h) ->
      Alcotest.(check string) "distinct values"
        (Printf.sprintf "value-%d-%s" i (String.make (i mod 40) 'y'))
        (Dq.Value_store.get store h))
    handles

let test_value_survives_crash () =
  let heap = fresh_heap () in
  let store = Dq.Value_store.create heap in
  let h1 = Dq.Value_store.put store "durable payload" in
  let h2 = Dq.Value_store.put ~fence:true store "second payload" in
  (* The fence of the second put drains the first put's flushes too. *)
  Nvm.Crash.crash ~policy:Nvm.Crash.Only_persisted heap;
  recover_tid ();
  Alcotest.(check string) "first value survives" "durable payload"
    (Dq.Value_store.get store h1);
  Alcotest.(check string) "second value survives" "second payload"
    (Dq.Value_store.get store h2)

let test_value_too_large () =
  let heap = fresh_heap () in
  let store = Dq.Value_store.create ~region_words:64 heap in
  Alcotest.check_raises "oversized value rejected"
    (Invalid_argument "Value_store.put: value larger than the arena region size")
    (fun () -> ignore (Dq.Value_store.put store (String.make 1000 'z')))

let test_value_area_growth () =
  let heap = fresh_heap () in
  let store = Dq.Value_store.create ~region_words:64 heap in
  (* Values larger than a region fragment force new areas. *)
  let hs = List.init 30 (fun i -> Dq.Value_store.put ~fence:true store (String.make 40 (Char.chr (65 + (i mod 26))))) in
  List.iteri
    (fun i h ->
      Alcotest.(check string) "across areas"
        (String.make 40 (Char.chr (65 + (i mod 26))))
        (Dq.Value_store.get store h))
    hs

(* -- Typed queues ----------------------------------------------------------- *)

type job = { id : int; label : string; payload : float list }

module Job_queue = Dq.Typed_queue.Make (Dq.Typed_queue.Marshal_codec (struct
  type t = job
end))

let test_typed_queue () =
  let heap = fresh_heap () in
  let q = Job_queue.create heap in
  let jobs =
    [
      { id = 1; label = "resize"; payload = [ 1.5; 2.5 ] };
      { id = 2; label = "encode"; payload = [] };
      { id = 3; label = "upload"; payload = [ 0.25 ] };
    ]
  in
  List.iter (Job_queue.enqueue q) jobs;
  Alcotest.(check int) "typed contents" 3 (List.length (Job_queue.to_list q));
  (match Job_queue.dequeue q with
  | Some j -> Alcotest.(check string) "fifo" "resize" j.label
  | None -> Alcotest.fail "expected a job")

let test_typed_queue_crash () =
  let heap = fresh_heap () in
  let q = Job_queue.create heap in
  List.iter (Job_queue.enqueue q)
    [
      { id = 1; label = "a"; payload = [ 1.0 ] };
      { id = 2; label = "b"; payload = [ 2.0 ] };
    ];
  Nvm.Crash.crash ~policy:Nvm.Crash.Only_persisted heap;
  recover_tid ();
  Job_queue.recover q;
  (match Job_queue.to_list q with
  | [ j1; j2 ] ->
      Alcotest.(check string) "payloads survive" "a" j1.label;
      Alcotest.(check int) "ids survive" 2 j2.id;
      Alcotest.(check (list (float 0.001))) "floats survive" [ 2.0 ] j2.payload
  | l -> Alcotest.failf "expected 2 jobs, got %d" (List.length l))

let test_string_queue () =
  let heap = fresh_heap () in
  let q = Dq.Typed_queue.String_queue.create ~algorithm:"OptLinkedQ" heap in
  Dq.Typed_queue.String_queue.enqueue q "hello";
  Dq.Typed_queue.String_queue.enqueue q "world";
  Alcotest.(check (option string)) "string fifo" (Some "hello")
    (Dq.Typed_queue.String_queue.dequeue q)

(* -- DurableMSQ+results ------------------------------------------------------ *)

module R = Dq.Durable_msq_r

let test_result_recovery () =
  let heap = fresh_heap () in
  let q = R.create heap in
  R.enqueue q 10;
  R.enqueue q 20;
  Alcotest.(check (option int)) "deq" (Some 10) (R.dequeue q);
  Nvm.Crash.crash ~policy:Nvm.Crash.Only_persisted heap;
  recover_tid ();
  R.recover q;
  (match R.recovered_result q ~tid:0 with
  | Some (3, R.Dequeued (Some 10)) -> ()
  | Some (c, _) -> Alcotest.failf "unexpected recovered op counter %d" c
  | None -> Alcotest.fail "no recovered result");
  Alcotest.(check (list int)) "contents" [ 20 ] (R.to_list q);
  (* Operation numbering continues after the crash. *)
  R.enqueue q 30;
  match R.recovered_result q ~tid:0 with
  | Some (4, R.Enqueued 30) -> ()
  | _ -> Alcotest.fail "post-crash operation not numbered 4"

let test_result_failing_dequeue () =
  let heap = fresh_heap () in
  let q = R.create heap in
  Alcotest.(check (option int)) "empty" None (R.dequeue q);
  Nvm.Crash.crash ~policy:Nvm.Crash.Only_persisted heap;
  recover_tid ();
  R.recover q;
  match R.recovered_result q ~tid:0 with
  | Some (1, R.Dequeued None) -> ()
  | _ -> Alcotest.fail "failing dequeue result not recovered"

(* The added mechanism costs an extra fence per operation relative to the
   thinned baseline — the reason the paper compares against the latter. *)
let test_result_mechanism_cost () =
  let census name = Harness.Runner.run_census (Dq.Registry.find name) ~ops:500 in
  let thin = census "DurableMSQ" and full = census "DurableMSQ+results" in
  let fences (_, f, _, _) = f in
  Alcotest.(check (float 0.01)) "one extra fence per enqueue"
    (fences thin.Harness.Runner.enq +. 1.)
    (fences full.Harness.Runner.enq);
  Alcotest.(check (float 0.01)) "one extra fence per dequeue"
    (fences thin.Harness.Runner.deq +. 1.)
    (fences full.Harness.Runner.deq)

(* -- ONLL -------------------------------------------------------------------- *)

(* Section 2.1's claim, measured: the universal construction runs one
   fence per update and zero accesses to flushed content. *)
let test_onll_optimal_design_point () =
  let c = Harness.Runner.run_census (Dq.Registry.find "ONLL-Q") ~ops:1_000 in
  let _, enq_fences, _, enq_pf = c.Harness.Runner.enq in
  let _, deq_fences, _, deq_pf = c.Harness.Runner.deq in
  Alcotest.(check (float 0.01)) "one fence per enqueue" 1.0 enq_fences;
  Alcotest.(check (float 0.01)) "one fence per dequeue" 1.0 deq_fences;
  Alcotest.(check (float 0.01)) "zero post-flush (enq)" 0.0 enq_pf;
  Alcotest.(check (float 0.01)) "zero post-flush (deq)" 0.0 deq_pf

(* Era checkpointing: state survives arbitrarily many crash cycles without
   exhausting log space. *)
let test_onll_many_crash_cycles () =
  let heap = fresh_heap () in
  let q = Dq.Onll_q.create heap in
  let model = Queue.create () in
  let rng = Random.State.make [| 3 |] in
  let next = ref 0 in
  for _cycle = 1 to 40 do
    for _ = 1 to 20 do
      if Random.State.bool rng then begin
        incr next;
        Dq.Onll_q.enqueue q !next;
        Queue.push !next model
      end
      else
        let expected =
          if Queue.is_empty model then None else Some (Queue.pop model)
        in
        assert (Dq.Onll_q.dequeue q = expected)
    done;
    Nvm.Crash.crash ~rng heap;
    recover_tid ();
    Dq.Onll_q.recover q;
    Alcotest.(check (list int))
      "cycle state" (List.of_seq (Queue.to_seq model))
      (Dq.Onll_q.to_list q)
  done

(* -- Broker census ------------------------------------------------------------ *)

(* The sharded broker must not weaken the paper's persist bounds: batched
   enqueues over OptUnlinkedQ shards census at most one blocking fence
   per operation — exactly one per batch per shard — and zero accesses to
   flushed content (the broker-level extension of TAB-FENCES /
   TAB-POSTFLUSH). *)
let test_broker_batched_census () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ());
  let service =
    Broker.Service.create ~algorithm:"OptUnlinkedQ" ~shards:2 ()
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
  let ops = streams * per_stream in
  let census = Broker.Census.span_census service in
  (match Broker.Census.strict_audit service with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (float 0.001)) "exactly one fence per batch per shard"
    (1. /. float_of_int batch)
    (float_of_int
       (census.Broker.Census.op_fences_total
       + census.Broker.Census.batch_fences_total)
    /. float_of_int ops);
  Alcotest.(check int) "zero post-flush accesses" 0
    census.Broker.Census.op_post_flush_total

let () =
  Alcotest.run "extensions"
    [
      ( "value-store",
        [
          Alcotest.test_case "roundtrip" `Quick test_value_roundtrip;
          Alcotest.test_case "many values" `Quick test_value_many;
          Alcotest.test_case "survives crash" `Quick test_value_survives_crash;
          Alcotest.test_case "area growth" `Quick test_value_area_growth;
          Alcotest.test_case "oversized value rejected" `Quick
            test_value_too_large;
        ] );
      ( "typed-queue",
        [
          Alcotest.test_case "marshal codec" `Quick test_typed_queue;
          Alcotest.test_case "payloads survive crash" `Quick
            test_typed_queue_crash;
          Alcotest.test_case "string queue" `Quick test_string_queue;
        ] );
      ( "result-recovery",
        [
          Alcotest.test_case "results survive crash" `Quick
            test_result_recovery;
          Alcotest.test_case "failing dequeue result" `Quick
            test_result_failing_dequeue;
          Alcotest.test_case "mechanism costs one fence" `Quick
            test_result_mechanism_cost;
        ] );
      ( "onll",
        [
          Alcotest.test_case "optimal design point (Section 2.1)" `Quick
            test_onll_optimal_design_point;
          Alcotest.test_case "many crash cycles" `Quick
            test_onll_many_crash_cycles;
        ] );
      ( "broker-census",
        [
          Alcotest.test_case "batched broker keeps the fence bound" `Quick
            test_broker_batched_census;
        ] );
    ]
