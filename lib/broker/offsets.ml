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
   per-shard recovery procedure rebuilds both.  The map persists puts
   before returning, so an offset write is durable by the time the
   operation that depends on it answers the client. *)

type t = {
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
    maps = Array.map entry.Dq.Registry.make_map heaps;
    map_name = entry.Dq.Registry.m_name;
  }

let map_name t = t.map_name
let shard_count t = Array.length t.maps

let last_published t ~shard ~producer =
  match t.maps.(shard).Dset.Map_intf.get ~key:(dedup_key ~producer) with
  | Some seq -> seq
  | None -> 0

let record_published t ~shard ~producer ~seq =
  t.maps.(shard).Dset.Map_intf.put ~key:(dedup_key ~producer) ~value:seq

let committed t ~shard ~group ~producer =
  match t.maps.(shard).Dset.Map_intf.get ~key:(commit_key ~group ~producer) with
  | Some seq -> seq
  | None -> 0

let commit t ~shard ~group ~producer ~seq =
  t.maps.(shard).Dset.Map_intf.put ~key:(commit_key ~group ~producer) ~value:seq

let recover t ~shard = t.maps.(shard).Dset.Map_intf.recover ()
let sync t ~shard = t.maps.(shard).Dset.Map_intf.sync ()
