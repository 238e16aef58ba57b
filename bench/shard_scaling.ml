open Common

(* Broker shard-count sweep: Producers through Broker.Service at a fixed
   stream count, unbatched and batched, under both enqueue front-ends
   (per-op and flat-combining), under two latency profiles:

   - "cpu" ({!Nvm.Latency.model_only}): persist costs accrue only in
     modeled time, so the wall series measures pure code-path and
     coordination cost.  On a host with fewer cores than worker domains
     this series cannot scale with shards — there is no parallelism to
     harvest — which is exactly why it makes a good regression gate for
     the front-ends' CPU cost.
   - "dimm" ({!Nvm.Latency.dimm_wall}): only the fence *drain* costs,
     and it elapses as wall-clock sleep through each heap's FIFO device
     queue.  The drain is the DIMM's work, not the core's, so drains on
     different shards overlap even on one core while drains on the same
     shard serialize: the wall series is device-bound and scales with
     the shard count — the scaling the sharding design exists to buy,
     expressed in wall-clock time on any host.

   Batching amortizes fences to one per batch per shard, and the
   combining front-end does the same amortization under contention by
   electing one combiner to persist a whole announced batch behind one
   pipelined fence (the split drain keeps the device busy while the
   combiner collects the next batch).  Rows land in BENCH_shard.json,
   gated by {!Harness.Bench_row.shard_scaling}: wall throughput per
   (profile, frontend, batch, shards) point.  Smoke runs fewer ops,
   repetitions and shard counts; DQ_OPS and DQ_REPS override the cpu
   profile's ops per stream and the repetitions. *)
let run ~smoke =
  let shard_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  (* As many producer streams as the largest shard count: a stream is
     pinned to one shard, so with fewer streams than shards the extra
     shards idle and the top of the scaling series measures a tie
     instead of the added device bandwidth. *)
  let threads = List.fold_left max 1 shard_counts in
  let batch = 8 in
  (* Wall-clock throughput is a measured series here, so the window must
     be long enough to ride out scheduler and co-tenant noise: a larger
     per-thread count than the modeled-only sections need. *)
  let ops_per_thread = env_int "DQ_OPS" (if smoke then 4_000 else 30_000) in
  let warmup = max 200 (ops_per_thread / 10) in
  (* More repetitions than the modeled sections: the wall series keeps
     only each point's fastest rotation, and the more rotations, the
     closer that best sample gets to the host's uncontended speed. *)
  let reps = env_int "DQ_REPS" (if smoke then 3 else 8) in
  (* Device-bound runs sleep out drains of hundreds of microseconds per
     fence, so they need far fewer operations for a stable series. *)
  let dimm_ops = if smoke then 300 else 1_500 in
  let cfg =
    { Load.Sharded.default_config with threads; ops_per_thread; warmup }
  in
  let profiles =
    [
      ("cpu", Nvm.Latency.model_only, ops_per_thread, warmup);
      ("dimm", Nvm.Latency.dimm_wall, dimm_ops, max 50 (dimm_ops / 10));
    ]
  in
  let frontend (r : Load.Sharded.result) =
    if r.Load.Sharded.combining then "combining" else "per-op"
  in
  Printf.printf
    "\n\
     == broker shard scaling: %s, Producers, %d streams, %d warmup ops ==\n"
    cfg.Load.Sharded.algorithm threads warmup;
  Printf.printf "%8s %10s %8s %8s %14s %14s %9s %9s %12s %14s %10s %10s %10s\n"
    "profile" "frontend" "shards" "batch" "model Mops/s" "wall Mops/s"
    "wall sd" "wall x" "fences/op" "postflush/op" "max f/op" "max f/bat"
    "max pf/op";
  let rows =
    List.concat_map
      (fun (pname, latency, ops_per_thread, warmup) ->
        List.concat_map
          (fun combining ->
            List.concat_map
              (fun b ->
                List.map
                  (fun r -> (pname, r))
                  (Load.Sharded.sweep ~reps ~shard_counts
                     {
                       cfg with
                       Load.Sharded.batch = b;
                       combining;
                       latency;
                       ops_per_thread;
                       warmup;
                     }))
              [ 1; batch ])
          [ false; true ])
      profiles
  in
  List.iter
    (fun (pname, (r : Load.Sharded.result)) ->
      Printf.printf
        "%8s %10s %8d %8d %14.3f %14.3f %9.3f %9.2f %12.4f %14.4f %10d %10d \
         %10d\n"
        pname (frontend r) r.Load.Sharded.shards r.Load.Sharded.batch
        r.Load.Sharded.model_mops r.Load.Sharded.mops
        r.Load.Sharded.wall_stddev_mops r.Load.Sharded.wall_speedup
        r.Load.Sharded.fences_per_op r.Load.Sharded.post_flush_per_op
        r.Load.Sharded.max_op_fences r.Load.Sharded.max_batch_fences
        r.Load.Sharded.max_post_flush)
    rows;
  List.map
    (fun (pname, (r : Load.Sharded.result)) ->
      let open Load.Sharded in
      Harness.Bench_row.
        [ str "algorithm" r.algorithm; str "workload" "w3-producers";
          str "profile" pname; str "frontend" (frontend r);
          int "threads" r.threads; int "shards" r.shards; int "batch" r.batch;
          int "ops" r.total_ops; int "trials" r.trials;
          num 4 "model_mops" r.model_mops; num 4 "wall_mops" r.mops;
          num 4 "wall_min_mops" r.wall_min_mops;
          num 4 "wall_max_mops" r.wall_max_mops;
          num 4 "wall_stddev_mops" r.wall_stddev_mops;
          num 4 "wall_speedup" r.wall_speedup;
          num 4 "fences_per_op" r.fences_per_op;
          num 4 "post_flush_per_op" r.post_flush_per_op;
          int "max_fences_per_op" r.max_op_fences;
          int "max_batch_fences" r.max_batch_fences;
          int "max_post_flush_per_op" r.max_post_flush ])
    rows
