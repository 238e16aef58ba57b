(** Registry of every queue algorithm in the evaluation, keyed by the
    names used in the paper's Figure 2, plus the extensions and ablation
    variants this repository adds.  The harness, tests and benchmarks
    iterate over it to treat all algorithms uniformly. *)

type entry = {
  name : string;
  make : Nvm.Heap.t -> Queue_intf.instance;
  durable : bool;  (** survives crashes (the volatile MSQ does not) *)
  in_figure2 : bool;  (** appears in the paper's Figure 2 *)
}

val all : entry list

val durable : entry list
(** Every durable queue, including extensions and ablation variants. *)

val figure2 : entry list
(** Exactly the queues the paper's Figure 2 compares. *)

val find : string -> entry
(** @raise Invalid_argument on an unknown name (the message lists them). *)

val instrumented : entry -> entry
(** The same algorithm with span instrumentation: instances open an
    {!Instrumented.enq_label} / [deq_label] / [recover_label] span on
    their heap around each operation, and construction runs under an
    excluded setup span.  The per-op fence audit and the span census
    consume these labels. *)

val combining : entry -> entry
(** The same algorithm behind the flat-combining enqueue front-end
    ({!Combining_q}), its name suffixed with
    {!Combining_q.name_suffix}.  Compose over {!instrumented}
    ([combining (instrumented e)]) so combine spans wrap the per-op
    spans the fence audit bounds. *)

val buffered : ?watermark:int -> ?capacity:int -> unit -> entry
(** The buffered-durability tier ({!Buffered_q}) as an entry named
    {!Buffered_q.name}: group-commit persistence with an explicit
    [sync].  It wraps no registry algorithm — its journal is the queue —
    and is not in {!all}.  Compose {!instrumented} over it like any
    entry. *)

val contributions : string list
(** The four queues contributed by the paper: UnlinkedQ, LinkedQ,
    OptUnlinkedQ, OptLinkedQ. *)

(** {1 Durable keyed-store tier} *)

type map_entry = {
  m_name : string;
  make_map : Nvm.Heap.t -> Dset.Map_intf.instance;
  lazy_remove : bool;  (** removals persist lazily (SOFT) *)
}

val maps : map_entry list
(** The durable hash-map variants (LinkFreeMap, SOFTMap), registered
    alongside the queues so censuses and strict audits cover them
    uniformly. *)

val find_map : string -> map_entry
(** @raise Invalid_argument on an unknown name (the message lists them). *)

val instrumented_map : map_entry -> map_entry
(** Span instrumentation for maps: [ins]/[del]/[get] operation spans,
    a separate [sync]/[recover], and an excluded setup span — the labels
    {!Spec.Fence_audit} bounds for maps. *)

val shards :
  ?mode:Nvm.Heap.mode ->
  ?latency:Nvm.Latency.config ->
  entry ->
  n:int ->
  (Nvm.Heap.t * Queue_intf.instance) array
(** [n] independent instances of one algorithm, each on its own fresh
    heap (its own simulated DIMM): the shard constructor the broker
    subsystem composes.  Defaults: [Checked] mode, {!Nvm.Latency.off}.
    @raise Invalid_argument when [n < 1]. *)
