(* Durable consumer-group offsets and producer dedup state, one durable
   hash map per shard, living on the shard's own heap.

   Two kinds of entries share each map under disjoint key tags:

   - dedup index: producer id -> highest sequence number ever accepted
     from that producer on this shard.  [Service.enqueue_once] consults
     it before enqueueing, so a producer that retries after a crash (or
     a lost acknowledgment) cannot publish the same sequence twice;
   - commit offsets: (consumer group, producer) -> highest sequence
     number delivered to that group.  [Service.dequeue_committed]
     advances it on every delivery and drops dequeued items at or below
     it, so a queue-level duplicate (possible when a crash lands between
     an enqueue and its dedup record) is filtered before delivery.

   Placing the maps on the shard heaps keeps the broker's crash model
   unchanged: the one power failure in {!Recovery.crash_and_recover}
   already truncates these maps' lines along with the queue's, and the
   per-shard recovery procedure rebuilds both.  A commit offset is
   durable when [commit] returns.  A dedup record is written behind: its
   fence is issued before [record_published] returns, and the drain is
   not waited for, because the exactly-once protocol survives losing the
   record (see service.ml). *)

type t = {
  heaps : Nvm.Heap.t array;
  maps : Dset.Map_intf.instance array;  (* one per shard, same order *)
  map_name : string;
}

let default_map = "LinkFreeMap"

(* Key layout: tag in the top bits keeps the two index kinds disjoint.
   Producers fit 26 bits, groups 24 — far beyond the simulated broker's
   scale, and still well inside OCaml's 63-bit int. *)
let dedup_key ~producer = (1 lsl 50) lor (producer land 0x3FF_FFFF)

let commit_key ~group ~producer =
  (2 lsl 50) lor ((group land 0xFF_FFFF) lsl 26) lor (producer land 0x3FF_FFFF)

let create ~heaps () =
  let entry = Dq.Registry.instrumented_map (Dq.Registry.find_map default_map) in
  {
    heaps;
    maps = Array.map entry.Dq.Registry.make_map heaps;
    map_name = entry.Dq.Registry.m_name;
  }

let map_name t = t.map_name

let last_published t ~shard ~producer =
  match t.maps.(shard).Dset.Map_intf.get ~key:(dedup_key ~producer) with
  | Some seq -> seq
  | None -> 0

(* The put's fence is absorbed into a split batch whose one closing
   fence is issued here and never joined: the record reaches the device
   right behind the item's own drain, in the same order as a blocking
   put, and only the caller's sleep through it goes. *)
let record_published t ~shard ~producer ~seq =
  let heap = t.heaps.(shard) in
  Nvm.Span.with_span ~exclude:true (Nvm.Heap.spans heap)
    Dset.Instrumented.put_behind_label (fun () ->
      ignore
        (Nvm.Heap.with_batched_fences_split heap (fun () ->
             t.maps.(shard).Dset.Map_intf.put ~key:(dedup_key ~producer)
               ~value:seq)))

let committed t ~shard ~group ~producer =
  match t.maps.(shard).Dset.Map_intf.get ~key:(commit_key ~group ~producer) with
  | Some seq -> seq
  | None -> 0

let commit t ~shard ~group ~producer ~seq =
  t.maps.(shard).Dset.Map_intf.put ~key:(commit_key ~group ~producer) ~value:seq

let recover t ~shard = t.maps.(shard).Dset.Map_intf.recover ()

(* A crash can keep an item and lose its record.  Raising the record to
   the item's sequence makes a retry of the item read Duplicate, so the
   queue never holds two copies of one (producer, seq).  The puts are
   recovery work and persist under the map's "recover" label. *)
let reconcile t ~shard items =
  let high = Hashtbl.create 8 in
  List.iter
    (fun v ->
      let producer = Spec.Durable_check.producer_of v in
      let seq = Spec.Durable_check.seq_of v in
      match Hashtbl.find_opt high producer with
      | Some s when s >= seq -> ()
      | _ -> Hashtbl.replace high producer seq)
    items;
  let raised =
    Hashtbl.fold
      (fun producer seq acc ->
        if seq > last_published t ~shard ~producer then (producer, seq) :: acc
        else acc)
      high []
  in
  if raised <> [] then begin
    let heap = t.heaps.(shard) in
    Nvm.Span.with_span (Nvm.Heap.spans heap) Dset.Instrumented.recover_label
      (fun () ->
        Nvm.Heap.with_batched_fences heap (fun () ->
            List.iter
              (fun (producer, seq) ->
                t.maps.(shard).Dset.Map_intf.put ~key:(dedup_key ~producer)
                  ~value:seq)
              raised))
  end
