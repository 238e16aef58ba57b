(** Stream-to-shard routing.

    Per-producer FIFO order across a sharded FIFO requires that one
    producer's stream always lands on the same shard; both policies pin
    streams, differing in how the pin is chosen. *)

type policy =
  | Key_hash  (** stateless integer hash of the stream id *)
  | Round_robin
      (** first operation of an unseen stream pins it to the next shard
          in rotation; balanced under any key set *)

val policy_name : policy -> string

val policy_of_name : string -> policy
(** Accepts "key-hash"/"hash" and "round-robin"/"rr".
    @raise Invalid_argument otherwise. *)

type t

val create : policy -> shards:int -> t
(** @raise Invalid_argument when [shards < 1]. *)

val hash_stream : int -> int
(** The stateless 63-bit mix behind [Key_hash] (exposed for tests). *)

val shard_for : t -> stream:int -> int
(** The shard for a stream; pins it first if the policy requires.  New
    [Round_robin] pins skip shards marked unavailable; existing pins are
    never moved (a stream's FIFO lives on one shard).  [Key_hash] routes
    are implicit pins and ignore availability. *)

val set_available : t -> shard:int -> bool -> unit
(** Maintained by {!Service}'s quarantine slots, in step with each
    transition; affects only future pin choices. *)

val available : t -> shard:int -> bool

val pin_of : t -> stream:int -> int option
(** The shard a stream is currently routed to, without creating a pin. *)

val pinned_streams : t -> (int * int) list
(** All (stream, shard) pins ([Round_robin] only; [Key_hash] pins
    implicitly and returns []). *)
