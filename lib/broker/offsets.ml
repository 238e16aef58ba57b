(* Consumer-group commit offsets and the producer dedup index, per shard.

   - commit offsets: (consumer group, producer) -> highest sequence
     number delivered to that group, in one durable hash map per shard,
     on the shard's own heap.  [Service.dequeue_committed] advances it
     on every delivery and drops dequeued items at or below it.  A
     commit is durable when [commit] returns;
   - dedup index: producer id -> highest sequence number accepted from
     that producer on this shard.  [Service.enqueue_once] consults it
     before enqueueing, so a producer that retries after a lost
     acknowledgment cannot publish the same sequence twice.  The index
     is volatile: nothing in it is written to the heap.

   Placing the map on the shard heap keeps the broker's crash model
   unchanged: the one power failure in {!Recovery.crash_and_recover}
   already truncates the map's lines along with the queue's, and the
   per-shard recovery procedure rebuilds both.  The index needs no
   persisting, because recovery can derive all of it: [recover] rebuilds
   it from the recovered queue and the durable commit offsets (the crash
   argument is in service.ml). *)

type t = {
  maps : Dset.Map_intf.instance array;  (* one per shard, same order *)
  published : (int, int) Hashtbl.t array;  (* the dedup index, per shard *)
  locks : Mutex.t array;  (* one per [published] table *)
  map_name : string;
}

let default_map = "LinkFreeMap"

(* Producers fit 26 bits, groups 24 — far beyond the simulated broker's
   scale, and still well inside OCaml's 63-bit int. *)
let producer_bits = 0x3FF_FFFF

let commit_key ~group ~producer =
  ((group land 0xFF_FFFF) lsl 26) lor (producer land producer_bits)

let producer_of_key key = key land producer_bits

let create ~heaps () =
  let entry = Dq.Registry.instrumented_map (Dq.Registry.find_map default_map) in
  let n = Array.length heaps in
  {
    maps = Array.map entry.Dq.Registry.make_map heaps;
    published = Array.init n (fun _ -> Hashtbl.create 16);
    locks = Array.init n (fun _ -> Mutex.create ());
    map_name = entry.Dq.Registry.m_name;
  }

let map_name t = t.map_name

let with_index t ~shard f =
  Mutex.protect t.locks.(shard) (fun () -> f t.published.(shard))

let last_published t ~shard ~producer =
  with_index t ~shard (fun idx ->
      Option.value (Hashtbl.find_opt idx producer) ~default:0)

let raise_in idx ~producer ~seq =
  match Hashtbl.find_opt idx producer with
  | Some s when s >= seq -> ()
  | _ -> Hashtbl.replace idx producer seq

let raise_published t ~shard ~producer ~seq =
  with_index t ~shard (raise_in ~producer ~seq)

let committed t ~shard ~group ~producer =
  match t.maps.(shard).Dset.Map_intf.get ~key:(commit_key ~group ~producer) with
  | Some seq -> seq
  | None -> 0

let commit t ~shard ~group ~producer ~seq =
  t.maps.(shard).Dset.Map_intf.put ~key:(commit_key ~group ~producer) ~value:seq

(* Rebuild the shard's map, then derive its index.  A sequence the
   recovered shard still holds was accepted, and so was one any group
   has a durable commit for.  Anything else the crash took before it was
   durable or delivered, and its retry is fresh. *)
let recover t ~shard items =
  let map = t.maps.(shard) in
  map.Dset.Map_intf.recover ();
  let commits = map.Dset.Map_intf.to_alist () in
  with_index t ~shard (fun idx ->
      Hashtbl.reset idx;
      List.iter
        (fun v ->
          raise_in idx
            ~producer:(Spec.Durable_check.producer_of v)
            ~seq:(Spec.Durable_check.seq_of v))
        items;
      List.iter
        (fun (key, seq) -> raise_in idx ~producer:(producer_of_key key) ~seq)
        commits)
