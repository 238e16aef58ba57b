(* Stream-to-shard routing.

   A durable FIFO composed of N independent shards can only promise
   per-producer FIFO order if any one producer's stream always lands on
   the same shard (two shards give no cross-shard ordering).  Both
   policies therefore map a *stream* (a producer id, a partition key — any
   63-bit integer the caller chooses) to a stable shard:

   - [Key_hash]: a stateless integer hash of the stream id.  Deterministic
     across restarts and across brokers, but an adversarial key set can
     skew the load.
   - [Round_robin]: the first operation of an unseen stream pins it to the
     next shard in rotation; later operations reuse the pin.  Balanced by
     construction under any key set, at the price of a small volatile pin
     table (rebuilt trivially: pins are an optimization, not a durability
     requirement — after a restart a stream may be pinned to a different
     shard, which is indistinguishable from a fresh Key_hash choice for
     items enqueued after the restart... except that per-producer FIFO
     spanning the restart then needs the old shard drained first.  The
     recovery orchestrator therefore persists nothing for routing but
     reports per-shard contents so callers can drain in order). *)

type policy = Key_hash | Round_robin

let policy_name = function Key_hash -> "key-hash" | Round_robin -> "round-robin"

let policy_of_name = function
  | "key-hash" | "hash" -> Key_hash
  | "round-robin" | "rr" -> Round_robin
  | s -> invalid_arg (Printf.sprintf "Routing.policy_of_name: %S" s)

type t = {
  policy : policy;
  shards : int;
  next : int Atomic.t;  (* round-robin rotation cursor *)
  pins : (int, int) Hashtbl.t;  (* stream -> shard (Round_robin) *)
  pins_lock : Mutex.t;
  avail : bool Atomic.t array;
      (* availability mask maintained by the quarantine machinery: new
         Round_robin pins skip unavailable shards.  Existing pins are
         never moved — moving a stream mid-quarantine would split its
         FIFO over two shards — so pinned streams observe Unavailable at
         the service layer instead. *)
}

let create policy ~shards =
  if shards < 1 then invalid_arg "Routing.create: need at least one shard";
  {
    policy;
    shards;
    next = Atomic.make 0;
    pins = Hashtbl.create 64;
    pins_lock = Mutex.create ();
    avail = Array.init shards (fun _ -> Atomic.make true);
  }

let set_available t ~shard ok = Atomic.set t.avail.(shard) ok
let available t ~shard = Atomic.get t.avail.(shard)

(* Stateless mix (splitmix64 finalizer with the multipliers truncated to
   OCaml's 63-bit native int): streams that differ in any bit land on
   uncorrelated shards. *)
let hash_stream s =
  let z = (s + 0x1E3779B97F4A7C15) land max_int in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land max_int in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land max_int in
  z lxor (z lsr 31)

let shard_for t ~stream =
  match t.policy with
  | Key_hash -> hash_stream stream mod t.shards
  | Round_robin -> (
      Mutex.lock t.pins_lock;
      match Hashtbl.find_opt t.pins stream with
      | Some s ->
          Mutex.unlock t.pins_lock;
          s
      | None ->
          (* Pin to the next *available* shard: new streams route around
             quarantined shards.  If every shard is down, fall through to
             the raw rotation — the service will answer Unavailable. *)
          let rec pick tries =
            let s = Atomic.fetch_and_add t.next 1 mod t.shards in
            if tries >= t.shards || Atomic.get t.avail.(s) then s
            else pick (tries + 1)
          in
          let s = pick 0 in
          Hashtbl.replace t.pins stream s;
          Mutex.unlock t.pins_lock;
          s)

(* The pin a stream currently has, if any (Key_hash pins implicitly). *)
let pin_of t ~stream =
  match t.policy with
  | Key_hash -> Some (hash_stream stream mod t.shards)
  | Round_robin ->
      Mutex.lock t.pins_lock;
      let p = Hashtbl.find_opt t.pins stream in
      Mutex.unlock t.pins_lock;
      p

let pinned_streams t =
  match t.policy with
  | Key_hash -> []
  | Round_robin ->
      Mutex.lock t.pins_lock;
      let l = Hashtbl.fold (fun stream shard acc -> (stream, shard) :: acc) t.pins [] in
      Mutex.unlock t.pins_lock;
      l
