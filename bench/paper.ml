open Common

let fig2_queues = List.map (fun e -> e.Dq.Registry.name) Dq.Registry.figure2

(* RedoOpt is evaluated only on the first two workloads, as in the paper. *)
let queues_for workload =
  match workload with
  | Harness.Workload.Random_5050 | Harness.Workload.Pairs -> fig2_queues
  | _ -> List.filter (fun n -> n <> "RedoOptQ") fig2_queues

let collect_workload ?(latency = Nvm.Latency.default) workload =
  let queues = queues_for workload in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun threads ->
      List.iter
        (fun qname ->
          let entry = Dq.Registry.find qname in
          let cfg =
            {
              Harness.Runner.default_config with
              threads;
              ops_per_thread;
              latency;
            }
          in
          let r = Harness.Runner.run_median ~reps entry workload cfg in
          Hashtbl.replace tbl (threads, qname) r)
        queues)
    threads_list;
  (queues, fun ~threads ~queue -> Hashtbl.find_opt tbl (threads, queue))

let figure2_workload ?latency workload =
  let queues, get = collect_workload ?latency workload in
  Harness.Report.print_throughput ~workload ~threads_list ~queues ~get

(* Machine-readable export: one CSV per Figure-2 workload, under
   results/.  The census CSV has one writer, [dq census --csv]. *)
let export () =
  (try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun workload ->
      let queues, get = collect_workload workload in
      let path = Printf.sprintf "results/fig2-%s.csv" (Harness.Workload.id workload) in
      let row threads queue (r : Harness.Runner.result) =
        Harness.Bench_row.
          [ str "workload" (Harness.Workload.id workload); str "queue" queue;
            int "threads" threads; num 4 "model_mops" r.model_mops;
            num 4 "wall_mops" r.mops; int "fences" r.counters.Nvm.Stats.fences;
            int "postflush" (Nvm.Stats.post_flush_accesses r.counters) ]
      in
      let oc = open_out path in
      Harness.Bench_row.output_csv oc
        (List.concat_map
           (fun threads ->
             List.filter_map
               (fun queue ->
                 Option.map (row threads queue) (get ~threads ~queue))
               queues)
           threads_list);
      close_out oc;
      Printf.printf "wrote %s\n%!" path)
    Harness.Workload.all

let census () =
  let rows =
    List.map
      (fun e -> Harness.Runner.run_census e ~ops:2_000)
      Dq.Registry.durable
  in
  Harness.Report.print_census rows

(* Ablation: head-to-head modeled comparison of a design choice. *)
let ablation_compare ~title pairs =
  Printf.printf "\n### ABLATION: %s\n" title;
  Printf.printf "%28s  %14s  %14s\n" "queue" "model Mops/s" "postflush/op";
  List.iter
    (fun name ->
      let entry = Dq.Registry.find name in
      let cfg =
        {
          Harness.Runner.default_config with
          threads = 1;
          ops_per_thread;
        }
      in
      let r = Harness.Runner.run_median ~reps entry Harness.Workload.Pairs cfg in
      let c = Harness.Runner.run_census entry ~ops:2_000 in
      let _, _, _, enq_pf = c.Harness.Runner.enq in
      let _, _, _, deq_pf = c.Harness.Runner.deq in
      Printf.printf "%28s  %14.3f  %7.2f/%5.2f\n" name
        r.Harness.Runner.model_mops enq_pf deq_pf)
    (List.concat_map (fun (a, b) -> [ a; b ]) pairs)
