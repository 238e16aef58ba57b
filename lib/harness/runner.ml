(* Multi-domain benchmark runner.

   Unlike the paper's 5-second timed runs on a 16-core machine, runs here
   are operation-count based (deterministic and bounded on a small
   container); throughput is total completed operations over the wall
   clock between a start barrier and the last thread's finish.  Relative
   throughput between algorithms — the shape Figure 2 reports — is
   governed by the simulated persist-instruction latencies, not by host
   core count. *)

type config = {
  threads : int;
  ops_per_thread : int;
  seed : int;
  latency : Nvm.Latency.config;
  heap_mode : Nvm.Heap.mode;
  base_op_ns : int;
      (* modeled cost of an operation's cache-resident work, added to the
         persist-instruction costs when computing modeled throughput *)
}

let default_config =
  {
    threads = 1;
    ops_per_thread = 10_000;
    seed = 0xBEEF;
    latency = Nvm.Latency.default;
    heap_mode = Nvm.Heap.Fast;
    base_op_ns = 120;
  }

type result = {
  queue : string;
  workload : Workload.t;
  threads : int;
  total_ops : int;
  elapsed_s : float;
  mops : float;  (* wall-clock million operations per second *)
  model_mops : float;
      (* modeled throughput: operations over the slowest worker's modeled
         busy time (persist-instruction costs from the NVRAM cost model
         plus [base_op_ns] per operation).  Deterministic and independent
         of host core count / scheduler noise; this is the primary
         Figure-2 series. *)
  counters : Nvm.Stats.counters;  (* aggregated over worker threads *)
}

let spin_barrier n =
  let remaining = Atomic.make n in
  fun () ->
    Atomic.decr remaining;
    while Atomic.get remaining > 0 do
      Domain.cpu_relax ()
    done

(* One complete run of [workload] over a fresh queue instance.  Workers
   time themselves between the start barrier and their last operation; the
   main thread only joins, so it never competes for a core with the
   measured threads.  Elapsed time is last finish minus first start. *)
let run (entry : Dq.Registry.entry) workload (cfg : config) : result =
  Nvm.Tid.reset ();
  Nvm.Tid.set cfg.threads (* main thread sits after the workers *);
  let heap = Nvm.Heap.create ~mode:cfg.heap_mode ~latency:cfg.latency () in
  let q = entry.Dq.Registry.make heap in
  let init =
    Workload.init_size workload ~threads:cfg.threads
      ~ops_per_thread:cfg.ops_per_thread
  in
  for i = 1 to init do
    q.Dq.Queue_intf.enqueue i
  done;
  (* The init fill ran on the main thread; only the workers should count
     toward the fence-drain bandwidth-sharing factor. *)
  Nvm.Heap.reset_fence_contention heap;
  let before = Nvm.Stats.snapshot (Nvm.Heap.stats heap) in
  let barrier = spin_barrier cfg.threads in
  let t_start = Array.make cfg.threads 0. in
  let t_end = Array.make cfg.threads 0. in
  let workers =
    List.init cfg.threads (fun w ->
        Domain.spawn (fun () ->
            Nvm.Tid.set w;
            let rng = Random.State.make [| cfg.seed; w |] in
            let plan =
              Workload.plan workload ~threads:cfg.threads
                ~ops_per_thread:cfg.ops_per_thread ~thread:w ~rng
            in
            barrier ();
            t_start.(w) <- Unix.gettimeofday ();
            let value = ref ((w lsl 40) lor 1) in
            for step = 0 to cfg.ops_per_thread - 1 do
              match plan step with
              | Workload.Enq ->
                  q.Dq.Queue_intf.enqueue !value;
                  incr value
              | Workload.Deq -> ignore (q.Dq.Queue_intf.dequeue ())
            done;
            t_end.(w) <- Unix.gettimeofday ()))
  in
  List.iter Domain.join workers;
  let total_ops = cfg.threads * cfg.ops_per_thread in
  let elapsed_s =
    Array.fold_left max neg_infinity t_end
    -. Array.fold_left min infinity t_start
  in
  let stats = Nvm.Heap.stats heap in
  let model_elapsed_ns =
    let slowest = ref 1 in
    for w = 0 to cfg.threads - 1 do
      let busy =
        (Nvm.Stats.get stats w).Nvm.Stats.modelled_ns
        - (Nvm.Stats.get before w).Nvm.Stats.modelled_ns
        + (cfg.base_op_ns * cfg.ops_per_thread)
      in
      if busy > !slowest then slowest := busy
    done;
    !slowest
  in
  {
    queue = entry.Dq.Registry.name;
    workload;
    threads = cfg.threads;
    total_ops;
    elapsed_s;
    mops = float_of_int total_ops /. elapsed_s /. 1e6;
    model_mops =
      float_of_int total_ops /. float_of_int model_elapsed_ns *. 1e3;
    counters = Nvm.Stats.diff_total stats ~since:before;
  }

(* Median throughput over [reps] repetitions (the paper averages 10 runs;
   the median is robuster on a noisy shared host). *)
let run_median ?(reps = 3) entry workload cfg : result =
  let results = List.init reps (fun _ -> run entry workload cfg) in
  let sorted = List.sort (fun a b -> compare a.mops b.mops) results in
  let wall_median = List.nth sorted (reps / 2) in
  let sorted_m =
    List.sort (fun a b -> compare a.model_mops b.model_mops) results
  in
  (* Median each series independently. *)
  { wall_median with model_mops = (List.nth sorted_m (reps / 2)).model_mops }

(* Persist-instruction census: run [ops] enqueues then [ops] dequeues on a
   single thread and report per-operation persist-instruction counts for
   each phase.  Built on the span spine: the instance is instrumented, so
   each phase's row comes from its op-span aggregate — averages plus the
   worst single operation — and setup persists (construction, allocator
   area growth) live in their own excluded spans instead of polluting the
   steady-state rows.  Verifies the paper's per-operation claims exactly:
   a compliant queue shows avg = max = 1 fence. *)
type census = {
  c_queue : string;
  enq : float * float * float * float;  (* flushes, fences, movntis, post-flush *)
  deq : float * float * float * float;
  enq_max : int * int * int * int;  (* the same columns, worst single op *)
  deq_max : int * int * int * int;
  c_occupancy : Nvm.Stats.occupancy;
}

let census_row (spans : Nvm.Span.t) label ~ops =
  match Nvm.Span.find_aggregate spans label with
  | None -> ((0., 0., 0., 0.), (0, 0, 0, 0))
  | Some a ->
      (* A buffered enqueue's journal write-behind runs under an
         excluded span (the appending call does not wait for it), so
         its persists join the enqueue row's averages here; the max
         columns stay the operation spans' own. *)
      let sum = Nvm.Stats.zero () in
      Nvm.Stats.add sum a.Nvm.Span.sum;
      if label = Dq.Instrumented.enq_label then
        Option.iter
          (fun (wb : Nvm.Span.agg) -> Nvm.Stats.add sum wb.Nvm.Span.sum)
          (Nvm.Span.find_aggregate spans Dq.Instrumented.write_behind_label);
      ( Nvm.Stats.per_op sum ~ops,
        ( a.Nvm.Span.max_flushes,
          a.Nvm.Span.max_fences,
          a.Nvm.Span.max_movntis,
          a.Nvm.Span.max_post_flush ) )

(* The census plus the strict per-op audit verdict for the queue's bound
   (always [Ok] for queues the paper does not bound).  [~combining]
   layers the flat-combining front-end over the instrumented instance;
   single-threaded the lock is always free, so this exercises the
   combiner's uncontended fast path — which must keep the exact per-op
   persist shape of the plain queue, and that equality is precisely what
   the census then certifies. *)
let run_census_checked ?(combining = false) (entry : Dq.Registry.entry) ~ops :
    census * (unit, string) Stdlib.result =
  Nvm.Tid.reset ();
  Nvm.Tid.set 0;
  let heap = Nvm.Heap.create ~mode:Nvm.Heap.Fast ~latency:Nvm.Latency.off () in
  let entry =
    let e = Dq.Registry.instrumented entry in
    if combining then Dq.Registry.combining e else e
  in
  let q = entry.Dq.Registry.make heap in
  (* Warm up allocator areas and steady-state retire paths. *)
  for i = 1 to 256 do
    q.Dq.Queue_intf.enqueue i
  done;
  for _ = 1 to 256 do
    ignore (q.Dq.Queue_intf.dequeue ())
  done;
  let spans = Nvm.Heap.spans heap in
  Nvm.Span.reset_closed spans;
  for i = 1 to ops do
    q.Dq.Queue_intf.enqueue i
  done;
  for _ = 1 to ops do
    ignore (q.Dq.Queue_intf.dequeue ())
  done;
  let enq, enq_max = census_row spans Dq.Instrumented.enq_label ~ops in
  let deq, deq_max = census_row spans Dq.Instrumented.deq_label ~ops in
  let verdict =
    Spec.Fence_audit.check_aggregates ~name:entry.Dq.Registry.name
      (Nvm.Span.aggregates spans)
  in
  ( {
      c_queue = entry.Dq.Registry.name;
      enq;
      deq;
      enq_max;
      deq_max;
      c_occupancy = Nvm.Stats.occupancy_copy (Nvm.Heap.occupancy heap);
    },
    verdict )

let run_census entry ~ops = fst (run_census_checked entry ~ops)

(* Persist-instruction census for the keyed-store tier.  Same span
   machinery as the queue census, generalised to one row per op label
   (insert / delete / lookup) since maps have three audited operations,
   not two.  Keys are Zipf-skewed so the contended paths — same-key
   overwrite, SOFT's v_pnode CAS — actually fire, and removes leave
   enough occupancy for later inserts to traverse deleted nodes. *)
type census_row = {
  r_op : string;
  r_avg : float * float * float * float;  (* flushes, fences, movntis, post-flush *)
  r_max : int * int * int * int;  (* worst single op span *)
}

type map_census = { mc_map : string; mc_rows : census_row list }

let run_map_census_checked (entry : Dq.Registry.map_entry) ~ops :
    map_census * (unit, string) Stdlib.result =
  Nvm.Tid.reset ();
  Nvm.Tid.set 0;
  let heap = Nvm.Heap.create ~mode:Nvm.Heap.Fast ~latency:Nvm.Latency.off () in
  let m = (Dq.Registry.instrumented_map entry).Dq.Registry.make_map heap in
  let keys = Zipf.create ~n:256 ~seed:0x5E7 () in
  (* Warm up allocator areas and bucket chains. *)
  for i = 1 to 256 do
    m.Dset.Map_intf.put ~key:(Zipf.draw keys) ~value:i
  done;
  let spans = Nvm.Heap.spans heap in
  Nvm.Span.reset_closed spans;
  let n_ins = ref 0 and n_del = ref 0 and n_get = ref 0 in
  for i = 1 to ops do
    let key = Zipf.draw keys in
    match i mod 5 with
    | 0 ->
        ignore (m.Dset.Map_intf.remove ~key);
        incr n_del
    | 1 | 2 ->
        ignore (m.Dset.Map_intf.get ~key);
        incr n_get
    | _ ->
        m.Dset.Map_intf.put ~key ~value:i;
        incr n_ins
  done;
  let row label ~ops =
    let r_avg, r_max = census_row spans label ~ops in
    { r_op = label; r_avg; r_max }
  in
  let mc_rows =
    [
      row Dset.Instrumented.ins_label ~ops:!n_ins;
      row Dset.Instrumented.del_label ~ops:!n_del;
      row Dset.Instrumented.get_label ~ops:!n_get;
    ]
  in
  let verdict =
    Spec.Fence_audit.check_aggregates ~name:entry.Dq.Registry.m_name
      (Nvm.Span.aggregates spans)
  in
  ({ mc_map = entry.Dq.Registry.m_name; mc_rows }, verdict)

let run_map_census entry ~ops = fst (run_map_census_checked entry ~ops)
