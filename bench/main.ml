(* Benchmark harness: regenerates every figure and table of the paper's
   evaluation (Section 10) plus the ablations called out in DESIGN.md.

   Sections (run all by default, or pass ids as arguments):
     fig2-w1 .. fig2-w5   the five workload panels of Figure 2
                          (throughput + ratio vs DurableMSQ)
     census               persist-instruction census tables (TAB-FENCES,
                          TAB-POSTFLUSH): fences/flushes/movnti/post-flush
                          accesses per operation
     micro                bechamel single-thread per-operation latency
     recovery             recovery-time scaling after a crash
     ablation-noinval     Figure-2 W1 rerun on a platform whose flushes do
                          not invalidate cache lines (Section 6's
                          prediction for future hardware)

     shard-scaling        broker throughput vs shard count (Producers
                          workload through Broker.Service, both enqueue
                          front-ends, cpu and dimm profiles; writes
                          BENCH_shard.json)
     heap-ops             simulated-NVRAM primitive throughput per mode
                          and domain count (writes BENCH_heap.json)
     set-ops              durable keyed-store throughput (both map
                          variants, Zipf keys, load + mixed phases per
                          domain count; writes BENCH_set.json)
     durability-lag       acks level x group-commit watermark sweep in
                          the dimm profile: throughput + p99 op→durable
                          lag of the buffered tier vs the strict queue
                          (writes BENCH_durability.json)
     recovery-time        crash→healthy recovery time vs heap size x
                          checkpoint cadence: flat with incremental
                          checkpointing, linear without (writes
                          BENCH_recovery.json)

   The last five are gated by {!Harness.Bench_row} at DQ_GATE_FRAC
   (default 0.7); --smoke is their CI preset.  Every requested section
   runs; exit 1 lists each failed gate, exit 2 is a usage error.

   Environment knobs: DQ_OPS (per-thread operations, default 6000),
   DQ_THREADS (comma list; default sweeps 1,2,4,8,16 capped at the core
   count), DQ_REPS (repetitions per point, default 3). *)

let smoke = Array.mem "--smoke" Sys.argv
let frac = Harness.Bench_row.frac_of_env ()

let failed = ref []

(* A gated section writes its rows, then gates them.  A failed gate's
   rows are listed as it fails, its name again once every section ran. *)
let gated out rows (spec : Harness.Bench_row.spec) =
  ( spec.target,
    fun () ->
      let rows = rows ~smoke in
      Harness.Bench_row.write ~path:out rows;
      Printf.printf "wrote %s\n%!" out;
      match Harness.Bench_row.gate ~frac spec rows with
      | [] ->
          Printf.printf "%s gate passed (frac %g of %s)\n%!" spec.target frac
            spec.baseline
      | failures ->
          Printf.eprintf "%s REGRESSION GATE FAILED (frac %g of %s):\n"
            spec.target frac spec.baseline;
          List.iter
            (fun (f : Harness.Bench_row.failure) ->
              Printf.eprintf "  %s: %s\n%!" f.key f.detail)
            failures;
          failed := spec.target :: !failed )

let sections =
  [
    ("fig2-w1", fun () -> Paper.figure2_workload Harness.Workload.Random_5050);
    ("fig2-w2", fun () -> Paper.figure2_workload Harness.Workload.Pairs);
    ("fig2-w3", fun () -> Paper.figure2_workload Harness.Workload.Producers);
    ("fig2-w4", fun () -> Paper.figure2_workload Harness.Workload.Consumers);
    ("fig2-w5", fun () -> Paper.figure2_workload Harness.Workload.Mixed_pc);
    ("census", Paper.census);
    gated "BENCH_shard.json" Shard_scaling.run Harness.Bench_row.shard_scaling;
    gated "BENCH_heap.json" Heap_ops.run Harness.Bench_row.heap_ops;
    gated "BENCH_set.json" Set_ops.run Harness.Bench_row.set_ops;
    gated "BENCH_durability.json" Durability_lag.run
      Harness.Bench_row.durability_lag;
    gated "BENCH_recovery.json" Recovery_time.run
      Harness.Bench_row.recovery_time;
    ("export", Paper.export);
    ("micro", Micro.micro);
    ("recovery", Recovery_scaling.recovery);
    ( "ablation-movnti",
      fun () ->
        Paper.ablation_compare
          ~title:
            "non-temporal writes (Section 6.3) vs store+flush for the \
             per-thread persistent slots"
          [
            ("OptUnlinkedQ", "OptUnlinkedQ/store+flush");
            ("OptLinkedQ", "OptLinkedQ/store+flush");
          ] );
    ( "ablation-predcut",
      fun () ->
        Paper.ablation_compare
          ~title:
            "backward-link cut after the fence (Appendix A) vs unbounded \
             flush walks"
          [
            ("LinkedQ", "LinkedQ/no-predcut");
            ("OptLinkedQ", "OptLinkedQ/no-predcut");
          ] );
    ( "ablation-noinval",
      fun () ->
        Printf.printf
          "\n\
           ### ABLATION: flushes without cache invalidation (future \
           platform; Section 6 predicts\n\
           ### UnlinkedQ/LinkedQ close the gap to the Opt queues)\n";
        Paper.figure2_workload ~latency:Nvm.Latency.no_invalidation
          Harness.Workload.Random_5050 );
  ]

let () =
  let requested =
    match List.filter (( <> ) "--smoke") (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst sections
    | ids -> ids
  in
  (match List.filter (fun id -> not (List.mem_assoc id sections)) requested with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown section %s; have: %s (and --smoke)\n"
        (String.concat ", " unknown)
        (String.concat ", " (List.map fst sections));
      exit 2);
  Printf.printf "Durable Queues: The Second Amendment — benchmark reproduction\n";
  Printf.printf "host cores=%d  ops/thread=%d  threads=%s\n%!"
    (Domain.recommended_domain_count ())
    Common.ops_per_thread
    (String.concat "," (List.map string_of_int Common.threads_list));
  List.iter (fun id -> (List.assoc id sections) ()) requested;
  if !failed <> [] then begin
    Printf.eprintf "failed gates: %s\n%!"
      (String.concat ", " (List.rev !failed));
    exit 1
  end
