(* Sharded-broker workload runner (fields documented in the .mli): the
   Producers workload (the paper's W3) driven through {!Broker.Service}
   instead of a single queue.  Each worker thread owns one stream and
   enqueues its items in batches, so a shard-count sweep exposes the two
   effects sharding composes:

   - fence-drain bandwidth sharing: all fencers on one heap (one
     simulated DIMM) share its drain bandwidth
     ({!Nvm.Latency.fence_contention}); spreading streams over shards
     removes the sharing;
   - batching: the queues' one-fence-per-operation cost amortizes to one
     fence per batch per shard ({!Nvm.Heap.with_batched_fences}).

   As in {!Harness.Runner}, the primary series is modeled throughput —
   deterministic, independent of host core count — except that a
   worker's busy time now sums its modeled nanoseconds over every shard
   heap it touched.  The wall-clock series is reported alongside; to
   keep it a measurement of the operations rather than of the host's
   allocator and scheduler, the runner (a closed-loop configuration of
   {!Drive}, which owns the domain lifecycle and the GC rule):

   - sizes the designated node areas so each worker allocates exactly
     one for its whole run (area creation — tens of thousands of word
     cells — otherwise lands repeatedly inside the measured window);
   - runs [warmup] unmeasured operations per worker first, which
     triggers that one area creation and warms every code path, then
     resets the span accounting so the census covers the measured
     window only;
   - sizes every worker domain's minor heap so the measured window
     needs no minor collection ({!Drive.minor_heap_words}). *)

type config = {
  algorithm : string;
  shards : int;
  threads : int;  (* producer streams, one per worker domain *)
  ops_per_thread : int;
  warmup : int;
      (* unmeasured per-worker operations before the measured window *)
  batch : int;  (* 1 = unbatched (one fence per operation) *)
  combining : bool;  (* flat-combining enqueue front-end on every shard *)
  policy : Broker.Routing.policy;
  latency : Nvm.Latency.config;
  heap_mode : Nvm.Heap.mode;
  base_op_ns : int;
}

let default_config =
  {
    algorithm = "OptUnlinkedQ";
    shards = 4;
    threads = 4;
    ops_per_thread = 6_000;
    warmup = 0;
    batch = 1;
    combining = false;
    policy = Broker.Routing.Round_robin;
    (* Optane nanoseconds in the model without busy-waiting the host:
       shard sweeps oversubscribe small containers by design. *)
    latency = Nvm.Latency.model_only;
    heap_mode = Nvm.Heap.Fast;
    base_op_ns = 120;
  }

type result = {
  algorithm : string;
  shards : int;
  threads : int;
  batch : int;
  combining : bool;
  total_ops : int;
  trials : int;  (* repetitions this result is the median of *)
  elapsed_s : float;
  mops : float;  (* wall-clock million operations per second *)
  wall_min_mops : float;  (* slowest repetition's wall throughput *)
  wall_max_mops : float;  (* fastest repetition's wall throughput *)
  wall_stddev_mops : float;  (* 0 for a single run *)
  wall_speedup : float;  (* vs the sweep's 1-shard point; 1.0 outside *)
  model_mops : float;  (* modeled throughput (primary series) *)
  fences_per_op : float;  (* steady state, from the span census *)
  post_flush_per_op : float;
  max_op_fences : int;  (* worst single operation span over all shards *)
  max_batch_fences : int;  (* worst single batch span: bound 1 *)
  max_post_flush : int;  (* worst single op span's post-flush accesses *)
}

(* One complete Producers run over a fresh broker: a closed-loop
   configuration of {!Drive} — producer bodies only, no consumers.
   Verifies afterwards that every item landed on its stream's shard in
   stream order. *)
let run (cfg : config) : result =
  Drive.prepare ~producers:cfg.threads ~consumers:0;
  (* One designated area per worker covers warm-up plus the measured
     run (each enqueue consumes one node; batching does not change node
     demand).  +2 covers the queue dummies.  Combining skews node
     demand toward whichever thread holds the combiner lock: it
     allocates from its own per-thread pool for every stream it applies
     on its shard, so size for the worst case of one thread combining
     all of its shard's streams. *)
  let saved_area_lines = !Reclaim.Ssmem.default_area_lines in
  let streams_per_shard = (cfg.threads + cfg.shards - 1) / cfg.shards in
  let area_mult = if cfg.combining then streams_per_shard else 1 in
  Reclaim.Ssmem.default_area_lines :=
    max saved_area_lines
      ((area_mult * (cfg.warmup + cfg.ops_per_thread)) + 2);
  let service =
    Broker.Service.create ~algorithm:cfg.algorithm ~shards:cfg.shards
      ~policy:cfg.policy ~mode:cfg.heap_mode ~latency:cfg.latency
      ~combining:cfg.combining ()
  in
  Reclaim.Ssmem.default_area_lines := saved_area_lines;
  (* Pin streams in order from the main thread so round-robin placement
     is deterministic (stream w -> shard w mod shards). *)
  for w = 0 to cfg.threads - 1 do
    ignore (Broker.Service.shard_of_stream service ~stream:w)
  done;
  let heaps =
    Array.map Broker.Shard.heap (Broker.Service.shards service)
  in
  let before =
    Array.map (fun h -> Nvm.Stats.snapshot (Nvm.Heap.stats h)) heaps
  in
  (* Broker construction cost scales with the shard count (one heap and
     its instrumentation arrays per shard).  On a CPU-quota-throttled
     container that work drains the quota immediately before the
     measured window, penalizing exactly the many-shard points; a short
     sleep consumes no quota and lets the period refill so every sweep
     point starts its window from the same budget. *)
  Unix.sleepf 0.2;
  let enqueue_ops ~stream ~seq0 n =
    (* Worker inner loop.  Unbatched streams take the single-operation
       entry point: no per-operation list or tuple. *)
    if cfg.batch = 1 then
      for i = 0 to n - 1 do
        let v = Spec.Durable_check.encode ~producer:stream ~seq:(seq0 + i) in
        match Broker.Service.enqueue service ~stream v with
        | Broker.Backpressure.Accepted -> ()
        | verdict ->
            failwith
              (Printf.sprintf "Sharded.run: backpressure %s at depth %d"
                 (Broker.Backpressure.verdict_name verdict)
                 (Broker.Service.total_depth service))
      done
    else begin
      let seq = ref seq0 in
      let remaining = ref n in
      while !remaining > 0 do
        let b = min cfg.batch !remaining in
        let base = !seq in
        let items =
          List.init b (fun i ->
              Spec.Durable_check.encode ~producer:stream ~seq:(base + i))
        in
        seq := base + b;
        let accepted, verdict =
          Broker.Service.enqueue_batch service ~stream items
        in
        if accepted <> b then
          failwith
            (Printf.sprintf "Sharded.run: backpressure %s at depth %d"
               (Broker.Backpressure.verdict_name verdict)
               (Broker.Service.total_depth service));
        remaining := !remaining - b
      done
    end
  in
  let w =
    Drive.window ~producers:cfg.threads ~consumers:0
      ~ops:(cfg.warmup + cfg.ops_per_thread)
      ~warm:(fun w -> enqueue_ops ~stream:w ~seq0:1 cfg.warmup)
      ~reset:(fun () ->
        (* Warm-up persists must not leak into the measured census or
           the bandwidth-sharing factor. *)
        Array.iteri
          (fun h heap ->
            Nvm.Span.reset_closed (Nvm.Heap.spans heap);
            Nvm.Heap.reset_fence_contention heap;
            before.(h) <- Nvm.Stats.snapshot (Nvm.Heap.stats heap))
          heaps;
        Gc.minor ())
      (fun w ~t0:_ ->
        enqueue_ops ~stream:w ~seq0:(cfg.warmup + 1) cfg.ops_per_thread)
  in
  let total_ops = cfg.threads * cfg.ops_per_thread in
  let elapsed_s = w.Drive.t_done -. w.Drive.t0 in
  let model_elapsed_ns =
    let slowest = ref 1 in
    for w = 0 to cfg.threads - 1 do
      let persist_ns = ref 0 in
      Array.iteri
        (fun h heap ->
          persist_ns :=
            !persist_ns
            + (Nvm.Stats.get (Nvm.Heap.stats heap) w).Nvm.Stats.modelled_ns
            - (Nvm.Stats.get before.(h) w).Nvm.Stats.modelled_ns)
        heaps;
      let busy = !persist_ns + (cfg.base_op_ns * cfg.ops_per_thread) in
      if busy > !slowest then slowest := busy
    done;
    !slowest
  in
  (* Steady-state persist accounting from the span census (op spans plus
     batch-closing fences; setup and warm-up spans excluded), and the
     strict per-op audit: a single operation exceeding the paper's bound
     fails the run outright, not just the average. *)
  let census = Broker.Census.span_census service in
  (match Broker.Census.strict_audit service with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "Sharded.run: per-op audit: %s" e));
  let fences =
    census.Broker.Census.op_fences_total
    + census.Broker.Census.batch_fences_total
  in
  let post_flush = census.Broker.Census.op_post_flush_total in
  (* Soundness: all items (warm-up included) present, on the right
     shard, in stream order. *)
  (match
     Drive.verify service ~consumed:[]
       ~enqueued:
         (List.init cfg.threads (fun w ->
              List.init (cfg.warmup + cfg.ops_per_thread) (fun i ->
                  Spec.Durable_check.encode ~producer:w ~seq:(i + 1))))
   with
  | Ok () -> ()
  | Error e -> failwith ("Sharded.run: " ^ e));
  let mops = float_of_int total_ops /. elapsed_s /. 1e6 in
  {
    algorithm = cfg.algorithm;
    shards = cfg.shards;
    threads = cfg.threads;
    batch = cfg.batch;
    combining = cfg.combining;
    total_ops;
    trials = 1;
    elapsed_s;
    mops;
    wall_min_mops = mops;
    wall_max_mops = mops;
    wall_stddev_mops = 0.;
    wall_speedup = 1.;
    model_mops =
      float_of_int total_ops /. float_of_int model_elapsed_ns *. 1e3;
    fences_per_op = float_of_int fences /. float_of_int total_ops;
    post_flush_per_op = float_of_int post_flush /. float_of_int total_ops;
    max_op_fences = census.Broker.Census.max_op_fences;
    max_batch_fences = census.Broker.Census.max_batch_fences;
    max_post_flush = census.Broker.Census.max_op_post_flush;
  }

(* Spread of the wall series over a point's repetitions: (min, max,
   population stddev).  Reported alongside the headline number so a
   speedup or regression is distinguishable from repetition noise. *)
let wall_spread (results : result list) =
  let n = List.length results in
  let xs = List.map (fun r -> r.mops) results in
  let mn = List.fold_left min infinity xs in
  let mx = List.fold_left max neg_infinity xs in
  let mean = List.fold_left ( +. ) 0. xs /. float_of_int n in
  let var =
    List.fold_left (fun a x -> a +. ((x -. mean) *. (x -. mean))) 0. xs
    /. float_of_int n
  in
  (mn, mx, sqrt var)

(* Shard-count sweep at fixed thread count: the scaling experiment.
   Repetitions are round-robined over the sweep's points, and each round
   rotates the order it visits them, so every point's samples span both
   the sweep's duration and every position within a round: host-speed
   drift (frequency scaling, container CPU-quota throttling, competing
   load) shifts all points alike instead of biasing whichever points
   happen to run while the host is slow.  Wall-clock speedups are
   relative to the sweep's own 1-shard point (or its first point when 1
   is not swept). *)
let sweep ?(reps = 3) ~shard_counts (cfg : config) : result list =
  let points = Array.of_list shard_counts in
  let npoints = Array.length points in
  (* Round the repetition count up to a whole number of rotations, so
     every point is sampled at every within-round position equally often
     — otherwise the rotation itself becomes a bias (the first point
     would see the quota-fresh leading position more often than the
     last). *)
  let reps = (reps + npoints - 1) / npoints * npoints in
  let matrix = Array.make_matrix npoints reps None in
  for r = 0 to reps - 1 do
    for k = 0 to npoints - 1 do
      let i = (k + r) mod npoints in
      matrix.(i).(r) <- Some (run { cfg with shards = points.(i) })
    done
  done;
  let samples =
    Array.map
      (fun row -> Array.to_list row |> List.filter_map (fun s -> s))
      matrix
  in
  let median_by l proj =
    List.nth (List.sort (fun a b -> compare (proj a) (proj b)) l)
      (List.length l / 2)
  in
  (* Wall-clock noise on a shared host is purely additive — co-tenant
     load and scheduler stalls only ever stretch a window — so the
     fastest repetition is the least contaminated estimate of a point's
     intrinsic speed (the usual shared-host practice, cf. timeit).  The
     modeled series is deterministic up to thread interleaving; keep its
     median. *)
  let best_by l proj =
    List.hd (List.sort (fun a b -> compare (proj b) (proj a)) l)
  in
  let results =
    List.map
      (fun l ->
        let mn, mx, sd = wall_spread l in
        {
          (best_by l (fun r -> r.mops)) with
          model_mops = (median_by l (fun r -> r.model_mops)).model_mops;
          trials = reps;
          wall_min_mops = mn;
          wall_max_mops = mx;
          wall_stddev_mops = sd;
        })
      (Array.to_list samples)
  in
  match results with
  | [] -> []
  | _ ->
      (* Speedups are *paired*: each rotation visits every point within a
         few seconds, so the per-rotation ratio to that same rotation's
         base-point sample cancels host-speed drift (frequency scaling,
         co-tenant load shifting over the sweep's minutes) that an
         unpaired ratio of two best-of-reps values — possibly measured
         minutes apart — would keep.  The median of the paired ratios is
         then robust to the residual sub-rotation jitter. *)
      let base_i =
        let rec find i =
          if i >= npoints then 0 else if points.(i) = 1 then i else find (i + 1)
        in
        find 0
      in
      let speedup i =
        if i = base_i then 1.
        else
          let ratios = ref [] in
          for r = 0 to reps - 1 do
            match (matrix.(i).(r), matrix.(base_i).(r)) with
            | Some a, Some b when b.mops > 0. ->
                ratios := (a.mops /. b.mops) :: !ratios
            | _ -> ()
          done;
          match List.sort compare !ratios with
          | [] -> 1.
          | rs -> List.nth rs (List.length rs / 2)
      in
      List.mapi (fun i r -> { r with wall_speedup = speedup i }) results
