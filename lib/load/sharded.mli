(** Sharded-broker workload runner: the Producers workload driven through
    {!Broker.Service}, with one stream per worker domain, batched
    enqueues, and a shard-count sweep (experiment BENCH-SHARD in
    DESIGN.md), as a closed-loop configuration of {!Drive}.  The primary
    series is modeled throughput, as in {!Harness.Runner}; a worker's
    busy time sums its modeled nanoseconds over every shard heap it
    touched. *)

type config = {
  algorithm : string;
  shards : int;
  threads : int;  (** producer streams, one per worker domain *)
  ops_per_thread : int;
  warmup : int;
      (** unmeasured per-worker operations run first: they trigger the
          one-time designated-area creation and warm every code path;
          span accounting is reset before the measured window *)
  batch : int;  (** 1 = unbatched (one fence per operation) *)
  combining : bool;
      (** flat-combining enqueue front-end ({!Dq.Combining_q}) on every
          shard *)
  policy : Broker.Routing.policy;
  latency : Nvm.Latency.config;
  heap_mode : Nvm.Heap.mode;
  base_op_ns : int;
}

val default_config : config
(** OptUnlinkedQ, 4 shards, 4 threads, warmup 0, batch 1, no combining,
    round-robin, {!Nvm.Latency.model_only}. *)

type result = {
  algorithm : string;
  shards : int;
  threads : int;
  batch : int;
  combining : bool;
  total_ops : int;
  trials : int;  (** repetitions this result is the median of *)
  elapsed_s : float;
  mops : float;  (** wall-clock million operations per second *)
  wall_min_mops : float;  (** slowest repetition's wall throughput *)
  wall_max_mops : float;  (** fastest repetition's wall throughput *)
  wall_stddev_mops : float;
      (** population stddev of the wall series over the repetitions (0
          for a single run): the noise floor a reported speedup must
          clear *)
  wall_speedup : float;
      (** wall-clock speedup relative to the 1-shard point of the same
          {!sweep} and batch size: the median over rotations of the
          {e paired} per-rotation ratio (each rotation visits every point
          within seconds, so the ratio cancels host-speed drift that an
          unpaired ratio of headline numbers would keep); 1.0 outside a
          sweep *)
  model_mops : float;  (** modeled throughput (primary series) *)
  fences_per_op : float;
      (** steady-state fences (op spans + batch-closing fences) per
          completed op from the span census; setup and warm-up persists
          are excluded, so unbatched compliant runs report exactly 1.0000 *)
  post_flush_per_op : float;
  max_op_fences : int;  (** worst single operation span over all shards *)
  max_batch_fences : int;  (** worst single batch span: bound 1 *)
  max_post_flush : int;  (** worst single op span's post-flush accesses *)
}

val run : config -> result
(** One complete run over a fresh broker; raises if any item is lost,
    lands on the wrong shard, breaks its stream's order
    ({!Drive.verify}), or violates the strict per-op persist audit
    ({!Broker.Census.strict_audit}). *)

val sweep : ?reps:int -> shard_counts:int list -> config -> result list
(** [reps] runs at each shard count, holding the rest of [config];
    fills [wall_speedup] relative to the sweep's 1-shard point as the
    median of paired per-rotation ratios.  Each point reports its
    fastest repetition's wall series (co-tenant noise is purely
    additive, so the fastest window is the least contaminated sample)
    and its median modeled series.  Repetitions are round-robined over
    the points in rotating order ([reps] is rounded up to a whole
    number of rotations), so host-speed drift during the sweep shifts
    every point alike instead of biasing its tail. *)
