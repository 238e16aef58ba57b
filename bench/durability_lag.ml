open Common

(* Durability-lag sweep: the buffered-durability bargain in wall-clock
   numbers.  One producer, one queue on a [dimm] heap
   ({!Nvm.Latency.dimm_wall}: fence drains elapse as wall-clock device
   time), enqueue-only, sweeping acks level x group-commit watermark:

   - all-synced: the strict queue (OptUnlinkedQ) — one full device drain
     per operation, the price of strict durable linearizability;
   - leader: the buffered tier, paced — once per watermark the producer
     waits for the commit of the watermark before, instead of once per
     op;
   - none: fire-and-forget — commits issue asynchronously and the
     closing [sync] joins whatever is left.

   Throughput includes the closing [sync], so durability is complete at
   the end of every row's timed window.  The op→durable lag of a
   buffered enqueue is the wall time from its return to the deadline of
   the commit drain covering it ({!Dq.Buffered_q.set_on_commit} +
   {!Nvm.Heap.drain_deadline}); strict operations are durable at return
   (lag 0 by contract, so the strict row reports none).

   Rows land in BENCH_durability.json, gated by
   {!Harness.Bench_row.durability_lag}: throughput per (level, batch).
   Smoke runs fewer enqueues and trials. *)
let run ~smoke =
  (* Enqueue-only (the journal is never consumed), so ops must stay
     within the journal's default capacity (65,536 entries). *)
  let ops = if smoke then 400 else 2_000 in
  let trials = if smoke then 2 else 3 in
  let batches = [ 8; 64 ] in
  let entry = Dq.Registry.find "OptUnlinkedQ" in
  (* One trial: returns (wall seconds, op→durable lags in seconds,
     commits issued). *)
  let trial ~level ~batch =
    Nvm.Tid.reset ();
    Nvm.Tid.set 0;
    let heap =
      Nvm.Heap.create ~mode:Nvm.Heap.Fast ~latency:Nvm.Latency.dimm_wall ()
    in
    match level with
    | "all-synced" ->
        let q = entry.Dq.Registry.make heap in
        let t0 = Unix.gettimeofday () in
        for i = 1 to ops do
          q.Dq.Queue_intf.enqueue i
        done;
        let t1 = Unix.gettimeofday () in
        (t1 -. t0, [], 0)
    | level ->
        let b = Dq.Buffered_q.create ~watermark:batch heap in
        let t_enq = Array.make ops 0. in
        let t_durable = Array.make ops 0. in
        let covered = ref 0 in
        Dq.Buffered_q.set_on_commit b
          (Some
             (fun ~floor ~consumed:_ ~drain ->
               (* Everything the commit newly covers becomes durable at
                  its fence's drain deadline. *)
               let dl = Nvm.Heap.drain_deadline drain in
               let dl = if dl > 0. then dl else Unix.gettimeofday () in
               let upto = min floor ops in
               for i = !covered to upto - 1 do
                 t_durable.(i) <- dl
               done;
               if upto > !covered then covered := upto));
        let join = level = "leader" in
        let t0 = Unix.gettimeofday () in
        for i = 1 to ops do
          Dq.Buffered_q.enqueue ~join b i;
          t_enq.(i - 1) <- Unix.gettimeofday ()
        done;
        Dq.Buffered_q.sync b;
        let t1 = Unix.gettimeofday () in
        let lags =
          List.init ops (fun i -> max 0. (t_durable.(i) -. t_enq.(i)))
        in
        (t1 -. t0, lags, (Dq.Buffered_q.stats b).Dq.Buffered_q.s_commits)
  in
  (* The trial with median wall time represents its row (lags and all —
     a lag distribution from a different trial than the throughput would
     be incoherent). *)
  let run_row ~level ~batch =
    median_by
      (fun (wall, _, _) -> wall)
      (List.init trials (fun _ -> trial ~level ~batch))
  in
  Printf.printf
    "\n\
     == durability lag: level x group-commit watermark (strict %s, dimm \
     profile, %d enqueues, median of %d trials) ==\n"
    entry.Dq.Registry.name ops trials;
  Printf.printf "%12s %8s %12s %10s %14s %14s %9s\n" "level" "batch"
    "wall kops/s" "vs strict" "p99 lag us" "mean lag us" "commits";
  let rows = ref [] in
  let emit ~level ~batch =
    let wall, lags, commits = run_row ~level ~batch in
    let kops = float_of_int ops /. wall /. 1e3 in
    rows := (level, batch, kops, Load.Metrics.summarize lags, commits) :: !rows;
    kops
  in
  let strict_kops = emit ~level:"all-synced" ~batch:1 in
  List.iter
    (fun level -> List.iter (fun b -> ignore (emit ~level ~batch:b)) batches)
    [ "leader"; "none" ];
  let rows = List.rev !rows in
  List.iter
    (fun (level, batch, kops, (lag : Load.Metrics.summary), commits) ->
      Printf.printf "%12s %8d %12.2f %10.2f %14.1f %14.1f %9d\n%!" level batch
        kops (kops /. strict_kops)
        (lag.Load.Metrics.p99_s *. 1e6)
        (lag.Load.Metrics.mean_s *. 1e6)
        commits)
    rows;
  let best_speedup =
    List.fold_left
      (fun acc (_, _, kops, _, _) -> max acc (kops /. strict_kops))
      0. rows
  in
  Printf.printf "best buffered speedup vs strict: %.2fx\n%!" best_speedup;
  if (not smoke) && best_speedup < 2. then
    Printf.eprintf
      "WARNING: buffered tier under 2x strict throughput (%.2fx) — the \
       group commit is not amortizing the device drain\n%!"
      best_speedup;
  List.map
    (fun (level, batch, kops, (lag : Load.Metrics.summary), commits) ->
      Harness.Bench_row.
        [ str "algorithm"
            (if level = "all-synced" then entry.Dq.Registry.name
             else Dq.Buffered_q.name);
          str "profile" "dimm";
          str "level" level; int "batch" batch; int "ops" ops;
          int "trials" trials; num 3 "wall_kops" kops;
          num 3 "speedup_vs_strict" (kops /. strict_kops);
          num 1 "p99_lag_us" (lag.Load.Metrics.p99_s *. 1e6);
          num 1 "mean_lag_us" (lag.Load.Metrics.mean_s *. 1e6);
          int "commits" commits ])
    rows
