(* The sharded durable broker: scaling the paper's 1-fence queues out.

   A single durable queue is bounded by its DIMM's fence-drain bandwidth:
   every producer's SFENCE drains into the same device.  The broker
   composes N independent shards — each a paper queue on its own heap
   (its own simulated DIMM) — behind one API:

   - a producer's stream is pinned to one shard, so per-producer FIFO
     order survives sharding;
   - batched enqueues amortize the one-fence-per-operation persist cost
     to one fence per batch per shard;
   - per-shard depth bounds surface backpressure (Overflow) to callers
     instead of growing NVM without bound;
   - a full-system crash is recovered by re-running every shard's
     recovery, in parallel across domains, each validated against the
     durable-linearizability conditions before the service resumes.

     dune exec examples/sharded_broker.exe *)

let () =
  ignore (Nvm.Tid.register ());
  let service =
    Broker.Service.create ~algorithm:"OptUnlinkedQ" ~shards:4
      ~policy:Broker.Routing.Round_robin ~depth_bound:256 ()
  in

  (* Four producer streams publish batches; streams 0-3 pin to shards
     round-robin, so each stream's items stay FIFO on its shard. *)
  let per_stream = 96 and batch = 8 in
  for stream = 0 to 3 do
    let seq = ref 1 in
    while !seq <= per_stream do
      let items =
        List.init batch (fun i ->
            Spec.Durable_check.encode ~producer:stream ~seq:(!seq + i))
      in
      seq := !seq + batch;
      match Broker.Service.enqueue_batch service ~stream items with
      | _, Broker.Backpressure.Accepted -> ()
      | _, v -> failwith (Broker.Backpressure.verdict_name v)
    done
  done;
  let ops = 4 * per_stream in
  let census = Broker.Census.span_census service in
  Printf.printf "published %d messages on 4 streams: %.3f fences/op\n" ops
    (float_of_int
       (census.Broker.Census.op_fences_total
       + census.Broker.Census.batch_fences_total)
    /. float_of_int ops);
  assert (Result.is_ok (Broker.Census.strict_audit service));

  (* Backpressure: stream 4 pins to shard 0 (round-robin wraps) and hits
     its 256-slot bound. *)
  let accepted, verdict =
    Broker.Service.enqueue_batch service ~stream:4
      (List.init 400 (fun i -> Spec.Durable_check.encode ~producer:4 ~seq:(i + 1)))
  in
  Printf.printf "stream 4 burst of 400: accepted %d, verdict %s\n" accepted
    (Broker.Backpressure.verdict_name verdict);
  assert (verdict = Broker.Backpressure.Overflow);

  (* Pull the plug on the whole system; recover every shard in parallel
     and validate before serving again. *)
  let report =
    Broker.Recovery.crash_and_recover ~rng:(Random.State.make [| 7 |])
      ~domains:2 ~producer_of:Spec.Durable_check.producer_of service
  in
  Broker.Recovery.pp Format.std_formatter report;
  assert (Broker.Recovery.ok report);

  (* Per-producer FIFO survived: stream 2's head is its oldest items. *)
  (match Broker.Service.dequeue_batch service ~stream:2 ~max:4 with
  | Broker.Service.Items items ->
      Printf.printf "stream 2 head after recovery:%s\n"
        (String.concat ""
           (List.filter_map
              (fun v ->
                if Spec.Durable_check.producer_of v = 2 then
                  Some (Printf.sprintf " #%d" (Spec.Durable_check.seq_of v))
                else None)
              items))
  | Broker.Service.Busy_batch | Broker.Service.Unavailable_batch -> assert false);
  print_endline "sharded broker demo: OK"
