(** Multi-domain benchmark runner and persist-instruction census.

    Runs are operation-count based; two throughput series are produced:
    wall clock, and a deterministic *modeled* series — operations over the
    slowest worker's modeled busy time (the NVRAM cost model's
    persist-instruction nanoseconds plus a per-operation budget of
    cache-resident work).  The modeled series is the primary Figure-2
    reproduction: it is independent of host core count and scheduler
    noise. *)

type config = {
  threads : int;
  ops_per_thread : int;
  seed : int;
  latency : Nvm.Latency.config;
  heap_mode : Nvm.Heap.mode;
  base_op_ns : int;
      (** modeled cost of an operation's cache-resident work (default
          120 ns), added to persist costs in the modeled series *)
}

val default_config : config

type result = {
  queue : string;
  workload : Workload.t;
  threads : int;
  total_ops : int;
  elapsed_s : float;
  mops : float;  (** wall-clock million operations per second *)
  model_mops : float;  (** modeled throughput (primary series) *)
  counters : Nvm.Stats.counters;  (** aggregated over worker threads *)
}

val spin_barrier : int -> unit -> unit
(** [spin_barrier n] is a one-shot barrier for [n] domains: each call
    returns once all [n] have called it, spinning meanwhile. *)

val run : Dq.Registry.entry -> Workload.t -> config -> result
(** One complete run over a fresh heap and queue instance. *)

val run_median : ?reps:int -> Dq.Registry.entry -> Workload.t -> config -> result
(** Median over [reps] (default 3) repetitions, per series. *)

type census = {
  c_queue : string;
  enq : float * float * float * float;
      (** flushes, fences, movntis, post-flush accesses — per enqueue *)
  deq : float * float * float * float;  (** the same, per dequeue *)
  enq_max : int * int * int * int;
      (** the same columns, worst single enqueue span *)
  deq_max : int * int * int * int;  (** worst single dequeue span *)
  c_occupancy : Nvm.Stats.occupancy;
      (** heap region occupancy at the end of the run — shows what the
          workload left live vs retired *)
}

val run_census : Dq.Registry.entry -> ops:int -> census
(** Exact per-operation persist-instruction counts, single-threaded,
    from the span spine: averages and worst-case per op-span, with setup
    persists (construction, allocator area growth) attributed to their
    own excluded spans — a compliant queue shows avg = max = 1 fence
    (TAB-FENCES / TAB-POSTFLUSH in DESIGN.md). *)

val run_census_checked :
  ?combining:bool ->
  Dq.Registry.entry ->
  ops:int ->
  census * (unit, string) Stdlib.result
(** [run_census] plus the strict per-op verdict
    ({!Spec.Fence_audit.check_aggregates}); always [Ok] for queues the
    paper does not bound.  [~combining:true] layers the flat-combining
    front-end ({!Dq.Registry.combining}) over the instrumented
    instance — single-threaded this is the combiner's uncontended fast
    path, certified here to keep the plain queue's exact per-op persist
    shape (the census row is labelled with the suffixed name). *)

(** {1 Keyed-store census}

    The same span census for the durable map tier, one row per op label
    ([ins]/[del]/[get]) under a Zipf-skewed key stream, so the
    contended paths (same-key overwrite, SOFT's pnode CAS) fire. *)

type census_row = {
  r_op : string;
  r_avg : float * float * float * float;
      (** flushes, fences, movntis, post-flush — per operation *)
  r_max : int * int * int * int;  (** the same columns, worst single op *)
}

type map_census = { mc_map : string; mc_rows : census_row list }

val run_map_census_checked :
  Dq.Registry.map_entry -> ops:int -> map_census * (unit, string) Stdlib.result
(** The census plus the strict verdict
    ({!Spec.Fence_audit.check_aggregates}): at most one fence per
    insert on both variants, one per link-free delete/lookup, zero
    flushes and fences on SOFT delete/lookup. *)
