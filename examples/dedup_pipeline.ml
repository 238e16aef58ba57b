(* An exactly-once delivery pipeline over the durable broker.

   Real producers retry: an acknowledgment can be lost to a crash or a
   dropped connection even when the publish itself survived, and a
   producer that cannot tell must send the item again.  Plain queues
   then deliver duplicates.  This demo composes the broker's offset
   tier ({!Broker.Offsets}: per-shard durable consumer-group commit
   offsets and a producer dedup index) with the durable queue shards to
   absorb them at both ends:

   - [Broker.Service.enqueue_once] refuses a sequence the dedup index
     has already seen — the common retry case costs one volatile lookup
     and no queue traffic.  The index is never written to NVM: recovery
     derives it from the sequences each shard still holds and the
     durable commit offsets;
   - [Broker.Service.dequeue_committed] durably commits each delivered
     sequence before returning it and drops anything at or below the
     commit offset, so a retry of a consumed item reads Duplicate after
     a crash too.

   One producer publishes at acks=leader: its last items sit in an
   unsynced journal line when the plug is pulled, the crash takes them,
   and their retries are accepted again.

   The demo publishes with deliberate duplicate retries, pulls the plug
   twice mid-pipeline, lets the producers blindly retry everything after
   each recovery, and verifies at the end that every sequence was
   delivered to the consumer group exactly once.

     dune exec examples/dedup_pipeline.exe *)

let producers = 4
let seqs_per_producer = 300
let group = 1
let leader = 3 (* the producer that publishes at acks=leader *)

let () =
  ignore (Nvm.Tid.register ());
  let service =
    Broker.Service.create ~shards:2 ~offsets:true ~buffered:true ()
  in
  Broker.Service.set_stream_acks service ~stream:leader
    Broker.Service.Acks_leader;
  let off = Option.get (Broker.Service.offsets service) in
  Printf.printf
    "broker: 2 shards + durable offset maps (%s), producer %d at acks=leader\n"
    (Broker.Offsets.map_name off) leader;

  (* Publish with a flaky network: every item is sent, and a third of
     the time the "lost ack" makes the producer send it again. *)
  let rng = Random.State.make [| 2021 |] in
  let publish ~from =
    let fresh = ref 0 and dups = ref 0 in
    for producer = 0 to producers - 1 do
      for seq = from to seqs_per_producer do
        let item = Spec.Durable_check.encode ~producer ~seq in
        let send () =
          match Broker.Service.enqueue_once service ~stream:producer item with
          | Broker.Service.Enqueued -> incr fresh
          | Broker.Service.Duplicate -> incr dups
          | Broker.Service.Rejected v ->
              failwith (Broker.Backpressure.verdict_name v)
        in
        send ();
        if Random.State.int rng 3 = 0 then send () (* retry after lost ack *)
      done
    done;
    Printf.printf "published: %d accepted, %d duplicate retries refused\n"
      !fresh !dups
  in
  publish ~from:1;

  let delivered = Hashtbl.create 256 in
  let consume ~per_stream =
    for stream = 0 to producers - 1 do
      let n = ref 0 in
      while !n < per_stream do
        match Broker.Service.dequeue_committed service ~stream ~group with
        | Broker.Service.Item v ->
            let key =
              (Spec.Durable_check.producer_of v, Spec.Durable_check.seq_of v)
            in
            if Hashtbl.mem delivered key then
              failwith
                (Printf.sprintf "duplicate delivery: producer %d seq %d"
                   (fst key) (snd key));
            Hashtbl.add delivered key ();
            incr n
        | Broker.Service.Empty -> n := per_stream
        | _ -> failwith "unexpected dequeue verdict"
      done
    done
  in
  consume ~per_stream:(seqs_per_producer / 2);
  Printf.printf "consumed %d items, committing each delivery\n"
    (Hashtbl.length delivered);

  (* Pull the plug, recover, and let every producer blindly re-send its
     whole history: the rebuilt dedup index refuses all but the leader
     producer's items the crash took. *)
  let crash seed =
    let report =
      Broker.Recovery.crash_and_recover
        ~rng:(Random.State.make [| seed |])
        ~producer_of:Spec.Durable_check.producer_of service
    in
    if not (Broker.Recovery.ok report) then failwith "recovery failed";
    Printf.printf
      "crash + recovery: queues, offset maps and dedup index rebuilt\n"
  in
  crash 1;
  publish ~from:1;
  consume ~per_stream:(seqs_per_producer / 4);
  crash 2;
  publish ~from:1;
  (match Broker.Service.sync_stream service ~stream:leader with
  | Broker.Backpressure.Accepted -> ()
  | v -> failwith (Broker.Backpressure.verdict_name v));
  consume ~per_stream:max_int (* drain *);

  (* Exactly once, end to end: each sequence delivered once, none lost. *)
  assert (Hashtbl.length delivered = producers * seqs_per_producer);
  for producer = 0 to producers - 1 do
    for seq = 1 to seqs_per_producer do
      assert (Hashtbl.mem delivered (producer, seq))
    done
  done;
  (match Broker.Census.strict_audit service with
  | Ok () -> ()
  | Error e -> failwith e);
  Printf.printf
    "OK: %d sequences delivered exactly once across 2 crashes (and every \
     queue/map operation span stayed within its persist bound)\n"
    (Hashtbl.length delivered)
