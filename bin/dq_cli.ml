(* Command-line driver for the durable-queues reproduction.

     dq list                         enumerate the queue algorithms
     dq run [-q Q] [-w W] [-t N] ... run one workload and print results
     dq census [-q Q] [--json]      persist-instruction census (averages
               [--csv F] [--strict] and per-op worst cases; --strict exits
                                    1 on any per-op bound violation)
     dq trace [-q Q] [--out F]      record a span trace of one run and
              [--format chrome|jsonl] export it (Chrome trace / JSONL)
     dq crash [-q Q] [-n STEPS]     randomised crash/recovery torture
     dq recovery [-q Q] [-n SIZE]   time a post-crash recovery
     dq checkpoint [-q Q] [-n SIZE] incremental-checkpoint demo: churn,
                   [--window N]     forced checkpoint (epoch, retired
                                    regions), crash, bounded recovery
     dq broker [-s N] [-b N] ...    sharded broker demo: batched run,
                                    strict span audit, full-system crash and
                                    orchestrated parallel recovery
     dq set [-m NAME] [-n N] ...    durable keyed-store demo: Zipf
                                    workload, crash, recovery and a
                                    CrashableMap consistency check *)

open Cmdliner

let queue_arg =
  let doc = "Queue algorithm name (repeatable); default: all Figure-2 queues." in
  Arg.(value & opt_all string [] & info [ "q"; "queue" ] ~docv:"NAME" ~doc)

let resolve_queues names ~default =
  match names with [] -> default | names -> List.map Dq.Registry.find names

let threads_arg =
  let doc = "Worker thread (domain) count." in
  Arg.(value & opt int 2 & info [ "t"; "threads" ] ~docv:"N" ~doc)

let ops_arg =
  let doc = "Operations per thread." in
  Arg.(value & opt int 10_000 & info [ "n"; "ops" ] ~docv:"N" ~doc)

let latency_arg =
  let doc =
    "Latency model: 'optane' (default), 'off' (count only), 'noinval' \
     (flushes that keep lines cached)."
  in
  Arg.(value & opt string "optane" & info [ "latency" ] ~docv:"MODEL" ~doc)

let latency_of = function
  | "optane" -> Nvm.Latency.default
  | "off" -> Nvm.Latency.off
  | "noinval" -> Nvm.Latency.no_invalidation
  | s -> invalid_arg (Printf.sprintf "unknown latency model %S" s)

let workload_arg =
  let doc =
    "Workload id: w1-random5050, w2-pairs, w3-producers, w4-consumers, \
     w5-mixed."
  in
  Arg.(value & opt string "w2-pairs" & info [ "w"; "workload" ] ~docv:"ID" ~doc)

(* -- list ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-28s %s%s\n" e.Dq.Registry.name
          (if e.Dq.Registry.durable then "durable" else "volatile")
          (if e.Dq.Registry.in_figure2 then ", in Figure 2" else ""))
      Dq.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"Enumerate the queue algorithms.")
    Term.(const run $ const ())

(* -- run ------------------------------------------------------------------- *)

let run_cmd =
  let run queues workload threads ops latency =
    let entries = resolve_queues queues ~default:Dq.Registry.figure2 in
    let workload = Harness.Workload.of_id workload in
    Printf.printf "%-28s %12s %12s %10s %10s\n" "queue" "model Mops/s"
      "wall Mops/s" "fences" "postflush";
    List.iter
      (fun entry ->
        let cfg =
          {
            Harness.Runner.default_config with
            threads;
            ops_per_thread = ops;
            latency = latency_of latency;
          }
        in
        let r = Harness.Runner.run entry workload cfg in
        Printf.printf "%-28s %12.3f %12.3f %10d %10d\n" r.Harness.Runner.queue
          r.Harness.Runner.model_mops r.Harness.Runner.mops
          r.Harness.Runner.counters.Nvm.Stats.fences
          (Nvm.Stats.post_flush_accesses r.Harness.Runner.counters))
      entries
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload over selected queues.")
    Term.(
      const run $ queue_arg $ workload_arg $ threads_arg $ ops_arg
      $ latency_arg)

(* -- census ----------------------------------------------------------------- *)

let combining_arg =
  let doc =
    "Layer the flat-combining enqueue front-end over each queue; census \
     and audit rows are labelled with the +combining suffix."
  in
  Arg.(value & flag & info [ "combining" ] ~doc)

let acks_arg =
  let doc =
    "Durability level: 'all-synced' (strict: durable before each call \
     returns, the default), 'leader' (buffered group commits with the \
     tripping enqueue joining the drain) or 'none' (buffered, \
     fire-and-forget until sync)."
  in
  Arg.(value & opt string "all-synced" & info [ "acks" ] ~docv:"LEVEL" ~doc)

(* A deterministic admission demo for the census: an injected clock and
   three tenant contracts (unlimited, quota-capped, deadline-bound) so
   the accepted/degraded/shed columns are populated reproducibly. *)
let admission_census_demo () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ());
  let service = Broker.Service.create ~shards:2 ~buffered:true () in
  let clock = ref 0. in
  let adm =
    Broker.Admission.create ~degrade:true ~now:(fun () -> !clock) service
  in
  Broker.Admission.set_tenant adm ~tenant:0 (Broker.Admission.unlimited ());
  Broker.Admission.set_tenant adm ~tenant:1
    {
      Broker.Admission.rate_hz = 50.;
      burst = 10.;
      acks = Broker.Service.Acks_all_synced;
      deadline_s = None;
    };
  Broker.Admission.set_tenant adm ~tenant:2
    {
      (Broker.Admission.unlimited ()) with
      Broker.Admission.deadline_s = Some 0.01;
    };
  for i = 1 to 40 do
    ignore (Broker.Admission.enqueue adm ~tenant:0 ~stream:0 i)
  done;
  for i = 1 to 40 do
    ignore (Broker.Admission.enqueue adm ~tenant:1 ~stream:1 i)
  done;
  clock := 0.5;
  for i = 41 to 60 do
    ignore (Broker.Admission.enqueue adm ~tenant:1 ~stream:1 i)
  done;
  for i = 1 to 10 do
    ignore
      (Broker.Admission.enqueue adm ~tenant:2 ~stream:2
         ~arrival:(!clock -. 0.02) i)
  done;
  for i = 11 to 20 do
    ignore (Broker.Admission.enqueue adm ~tenant:2 ~stream:2 ~arrival:!clock i)
  done;
  Broker.Census.pp_admission Format.std_formatter adm;
  Format.pp_print_flush Format.std_formatter ()

let census_cmd =
  let run queues ops json strict csv combining acks admission =
    if admission then admission_census_demo ()
    else
    let level = Broker.Service.acks_of_name acks in
    let entries = resolve_queues queues ~default:Dq.Registry.durable in
    (* A weak acks level wraps each queue in the buffered group-commit
       tier ({!Dq.Buffered_q}): rows are labelled +buffered, op spans
       are fence-free, the commit fences land in "sync" spans and the
       line write-behinds in excluded "write-behind" spans, which the
       enq row's averages count — the census shows the amortization
       directly. *)
    let entries =
      if level = Broker.Service.Acks_all_synced then entries
      else
        List.map
          (Dq.Registry.buffered
             ~join_commits:(level = Broker.Service.Acks_leader))
          entries
    in
    let audited =
      List.map
        (fun e -> (e, Harness.Runner.run_census_checked ~combining e ~ops))
        entries
    in
    (* The keyed-store tier rides along unless the user filtered to
       specific queues (it has no buffered variant). *)
    let map_audited =
      if queues <> [] || level <> Broker.Service.Acks_all_synced then []
      else
        List.map
          (fun e -> (e, Harness.Runner.run_map_census_checked e ~ops))
          Dq.Registry.maps
    in
    let rows = List.map (fun (_, (c, _)) -> c) audited in
    let maps = List.map (fun (_, (c, _)) -> c) map_audited in
    if json then Harness.Report.census_json ~maps stdout rows
    else begin
      Harness.Report.print_census rows;
      if maps <> [] then Harness.Report.print_map_census maps
    end;
    (match csv with
    | Some path ->
        let oc = open_out path in
        Harness.Report.census_csv ~maps oc rows;
        close_out oc;
        Printf.eprintf "wrote %s\n%!" path
    | None -> ());
    if strict then begin
      let failed = ref false in
      let report name audited_name verdict =
        match verdict with
        | Ok () when audited_name ->
            Printf.eprintf "audit %-28s OK (per-op worst case in bound)\n" name
        | Ok () -> Printf.eprintf "audit %-28s (no per-op bound)\n" name
        | Error msg ->
            failed := true;
            Printf.eprintf "audit %-28s FAILED: %s\n" name msg
      in
      List.iter
        (fun (_, ((c : Harness.Runner.census), verdict)) ->
          (* The census row's label, so a combining run reads
             "OptUnlinkedQ+combining" here and in the CSV. *)
          let name = c.Harness.Runner.c_queue in
          report name (Spec.Fence_audit.audited name) verdict)
        audited;
      List.iter
        (fun (e, (_, verdict)) ->
          let name = e.Dq.Registry.m_name in
          report name (Spec.Fence_audit.audited name) verdict)
        map_audited;
      Printf.eprintf "%!";
      if !failed then exit 1
    end
  in
  let ops =
    Arg.(
      value & opt int 2_000
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Operations per phase.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the census as JSON on stdout.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Audit every queue's per-operation worst case against the \
             paper's bound and exit 1 on any violation.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the census CSV to $(docv).")
  in
  let admission =
    Arg.(
      value & flag
      & info [ "admission" ]
          ~doc:
            "Print the admission census instead: per-tenant \
             accepted/degraded/shed/rejected rows from a deterministic \
             three-tenant demo (unlimited, quota-capped, deadline-bound).")
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:
         "Persist-instruction census: averages and per-op worst cases \
          (fences/flushes/movnti/post-flush).  With --acks none|leader, \
          queues run behind the buffered group-commit tier and rows \
          carry the +buffered suffix.  With --admission, prints the \
          per-tenant admission census instead.")
    Term.(
      const run $ queue_arg $ ops $ json $ strict $ csv $ combining_arg
      $ acks_arg $ admission)

(* -- trace ------------------------------------------------------------------- *)

let trace_cmd =
  let run queue ops out format combining buffered checkpoint =
    let raw = Dq.Registry.find queue in
    let entry = Dq.Registry.instrumented raw in
    Nvm.Tid.reset ();
    Nvm.Tid.set 0;
    let heap = Nvm.Heap.create ~mode:Nvm.Heap.Fast ~latency:Nvm.Latency.off () in
    (* Capacity for every op span plus setup, combine and sync spans
       (and the sync/drain instant events): nothing is evicted. *)
    Nvm.Span.set_tracing (Nvm.Heap.spans heap)
      ~capacity:
        ((2 * ops) + 64 + (ops / 2) + (2 * ops)
        (* ckpt:stream per live region, plus the flip and retire spans *)
        + (if checkpoint then 64 else 0));
    let q =
      if buffered then
        (* The buffered tier under the same instrumentation as any shard
           instance: op spans are fence-free, each full journal line is
           written behind in an excluded "write-behind" span, each group
           commit runs in its own "sync" span with "sync:commit" and
           "drain:ticket" / "drain:join" instants — the pipelined fence
           drains the timeline view exists to show. *)
        let b =
          Nvm.Span.with_span ~exclude:true (Nvm.Heap.spans heap)
            Dq.Instrumented.create_label (fun () ->
              Dq.Buffered_q.create ~watermark:8 heap raw.Dq.Registry.make)
        in
        Dq.Instrumented.wrap heap (Dq.Buffered_q.instance b)
      else entry.Dq.Registry.make heap
    in
    (if combining then begin
       (* Drive announced batches of 8 through the combiner so the trace
          shows each combined batch's "combine" span bracketing its
          member enqueue spans — the batch boundaries and the single
          closing fence are visible in the export. *)
       let c = Dq.Combining_q.create heap q in
       let i = ref 1 in
       while !i <= ops do
         let n = min 8 (ops - !i + 1) in
         Dq.Combining_q.enqueue_batch c (List.init n (fun k -> !i + k));
         i := !i + n
       done
     end
     else
       for i = 1 to ops do
         q.Dq.Queue_intf.enqueue i
       done);
    (* The explicit boundary: commits whatever the watermark left
       pending, so the trace ends on a visible sync (no-op when the
       queue is strict). *)
    if buffered then q.Dq.Queue_intf.sync ();
    (* A checkpoint between the phases: the export then shows the
       "ckpt:stream" span per scanned region, the single-fence
       "ckpt:flip" publication, and "ckpt:retire" reclaiming the
       drained regions — all excluded spans, visibly outside the op
       rows. *)
    (if checkpoint then
       match q.Dq.Queue_intf.checkpoint with
       | Some ck -> ignore (Dq.Checkpoint.run ck)
       | None ->
           Printf.eprintf
             "note: %s has no checkpoint tier; --checkpoint ignored\n%!" queue);
    for _ = 1 to ops do
      ignore (q.Dq.Queue_intf.dequeue ())
    done;
    if buffered then q.Dq.Queue_intf.sync ();
    let emit oc =
      match format with
      | "chrome" -> Nvm.Span.export_chrome (Nvm.Heap.spans heap) oc
      | "jsonl" -> Nvm.Span.export_jsonl (Nvm.Heap.spans heap) oc
      | f -> invalid_arg (Printf.sprintf "unknown trace format %S" f)
    in
    match out with
    | Some path ->
        let oc = open_out path in
        let n = emit oc in
        close_out oc;
        Printf.printf "wrote %d spans to %s (%s format)\n" n path format
    | None -> ignore (emit stdout)
  in
  let queue =
    Arg.(
      value & opt string "OptUnlinkedQ"
      & info [ "q"; "queue" ] ~docv:"NAME" ~doc:"Queue algorithm to trace.")
  in
  let ops =
    Arg.(
      value & opt int 200
      & info [ "n"; "ops" ] ~docv:"N"
          ~doc:"Enqueues (then dequeues) to record.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let format =
    Arg.(
      value & opt string "chrome"
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Export format: 'chrome' (trace-event JSON for \
             chrome://tracing / Perfetto) or 'jsonl' (one span per line).")
  in
  let buffered =
    Arg.(
      value & flag
      & info [ "buffered" ]
          ~doc:
            "Run the queue behind the buffered group-commit tier \
             (watermark 8): group commits appear as \"sync\" spans with \
             \"sync:commit\" and \"drain:ticket\"/\"drain:join\" instant \
             events, making the pipelined fence drains visible in the \
             timeline.")
  in
  let checkpoint =
    Arg.(
      value & flag
      & info [ "checkpoint" ]
          ~doc:
            "Run an incremental checkpoint between the enqueue and \
             dequeue phases: the export shows the \"ckpt:stream\" span \
             per scanned region, the one-fence \"ckpt:flip\" epoch \
             publication and the \"ckpt:retire\" compaction, all outside \
             the audited op rows.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record an op-scoped persist-span trace of a single-threaded run \
          and export it.  With --combining, enqueues go through the \
          flat-combining front-end in announced batches of 8, so combined \
          batch boundaries appear as \"combine\" spans.  With --buffered, \
          group commits and their split fence drains appear as \"sync\" \
          spans and instant events.  With --checkpoint, the ckpt:* spans \
          of one incremental checkpoint appear between the phases.")
    Term.(
      const run $ queue $ ops $ out $ format $ combining_arg $ buffered
      $ checkpoint)

(* -- crash ------------------------------------------------------------------ *)

let crash_cmd =
  let run queues steps seed =
    let entries = resolve_queues queues ~default:Dq.Registry.durable in
    List.iter
      (fun entry ->
        Nvm.Tid.reset ();
        ignore (Nvm.Tid.register ());
        let heap = Nvm.Heap.create ~mode:Nvm.Heap.Checked () in
        let q = entry.Dq.Registry.make heap in
        let model = Queue.create () in
        let rng = Random.State.make [| seed |] in
        let crashes = ref 0 in
        let next = ref 0 in
        for _ = 1 to steps do
          match Random.State.int rng 10 with
          | r when r < 4 ->
              incr next;
              q.Dq.Queue_intf.enqueue !next;
              Queue.push !next model
          | r when r < 9 ->
              let expected =
                if Queue.is_empty model then None else Some (Queue.pop model)
              in
              if q.Dq.Queue_intf.dequeue () <> expected then
                failwith "dequeue mismatch"
          | _ ->
              incr crashes;
              Nvm.Crash.crash ~rng heap;
              Nvm.Tid.reset ();
              ignore (Nvm.Tid.register ());
              q.Dq.Queue_intf.recover ();
              if
                q.Dq.Queue_intf.to_list ()
                <> List.of_seq (Queue.to_seq model)
              then failwith "recovery diverged"
        done;
        Printf.printf "%-28s OK (%d steps, %d crashes)\n" entry.Dq.Registry.name
          steps !crashes)
      entries
  in
  let steps =
    Arg.(value & opt int 3_000 & info [ "n"; "steps" ] ~docv:"N" ~doc:"Steps.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  Cmd.v
    (Cmd.info "crash" ~doc:"Randomised crash/recovery torture with checking.")
    Term.(const run $ queue_arg $ steps $ seed)

(* -- explore ----------------------------------------------------------------- *)

let explore_cmd =
  let explorable =
    [
      "DurableMSQ"; "DurableMSQ+results"; "UnlinkedQ"; "UnlinkedQ/local-index";
      "LinkedQ"; "LinkedQ/no-predcut"; "OptUnlinkedQ";
      "OptUnlinkedQ/store+flush"; "OptLinkedQ"; "OptLinkedQ/store+flush";
      "OptLinkedQ/no-predcut"; "IzraelevitzQ"; "NVTraverseQ"; "WideUnlinkedQ";
    ]
  in
  let run queues rounds =
    let names = match queues with [] -> explorable | qs -> qs in
    List.iter
      (fun name ->
        match Spec.Explore.campaign (Dq.Registry.find name) ~rounds with
        | Ok () ->
            Printf.printf "%-28s OK (%d schedules explored)\n" name rounds
        | Error e -> Printf.printf "%-28s FAILED: %s\n" name e)
      names
  in
  let rounds =
    Arg.(
      value & opt int 100
      & info [ "rounds" ] ~docv:"N" ~doc:"Randomized schedules per queue.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Mid-operation crash exploration: fiber schedules with crashes \
          injected between persist instructions, checked for durable \
          linearizability.")
    Term.(const run $ queue_arg $ rounds)

(* -- recovery ---------------------------------------------------------------- *)

let recovery_cmd =
  let run queues size =
    let entries = resolve_queues queues ~default:Dq.Registry.durable in
    List.iter
      (fun entry ->
        Nvm.Tid.reset ();
        ignore (Nvm.Tid.register ());
        let heap = Nvm.Heap.create ~mode:Nvm.Heap.Checked () in
        let q = entry.Dq.Registry.make heap in
        for i = 1 to size do
          q.Dq.Queue_intf.enqueue i
        done;
        Nvm.Crash.crash ~policy:Nvm.Crash.Only_persisted heap;
        Nvm.Tid.reset ();
        ignore (Nvm.Tid.register ());
        let t0 = Unix.gettimeofday () in
        q.Dq.Queue_intf.recover ();
        let dt = Unix.gettimeofday () -. t0 in
        assert (List.length (q.Dq.Queue_intf.to_list ()) = size);
        Printf.printf "%-28s recovered %d items in %.2f ms\n"
          entry.Dq.Registry.name size (dt *. 1e3))
      entries
  in
  let size =
    Arg.(
      value & opt int 10_000
      & info [ "n"; "size" ] ~docv:"N" ~doc:"Queue size at the crash.")
  in
  Cmd.v
    (Cmd.info "recovery" ~doc:"Time post-crash recovery at a given size.")
    Term.(const run $ queue_arg $ size)

(* -- checkpoint -------------------------------------------------------------- *)

let checkpoint_cmd =
  let run queues size window policy seed =
    let policy = Nvm.Crash.policy_of_name policy in
    let entries = resolve_queues queues ~default:Dq.Registry.durable in
    List.iter
      (fun entry ->
        Nvm.Tid.reset ();
        ignore (Nvm.Tid.register ());
        let heap = Nvm.Heap.create ~mode:Nvm.Heap.Checked () in
        let q = entry.Dq.Registry.make heap in
        match q.Dq.Queue_intf.checkpoint with
        | None ->
            Printf.printf "%-28s (no checkpoint tier)\n" entry.Dq.Registry.name
        | Some ck ->
            (* Churn: fill to [size], drain down to a small live window,
               so the heap is mostly drained node regions — the state the
               checkpoint compacts away. *)
            for i = 1 to size do
              q.Dq.Queue_intf.enqueue i
            done;
            for _ = 1 to size - window do
              ignore (q.Dq.Queue_intf.dequeue ())
            done;
            let before = Nvm.Stats.occupancy_copy (Nvm.Heap.occupancy heap) in
            let r = Dq.Checkpoint.run ck in
            Printf.printf "%-28s %s\n" entry.Dq.Registry.name
              (Format.asprintf "%a" Dq.Checkpoint.pp_report r);
            let after = Nvm.Heap.occupancy heap in
            Printf.printf
              "  occupancy: %d -> %d live regions (%d retired all-time, %d \
               words reclaimed)\n"
              (Nvm.Stats.live_regions before)
              (Nvm.Stats.live_regions after)
              after.Nvm.Stats.regions_retired after.Nvm.Stats.words_reclaimed;
            Nvm.Crash.crash_seeded ~seed ~policy heap;
            Nvm.Tid.reset ();
            ignore (Nvm.Tid.register ());
            let t0 = Unix.gettimeofday () in
            q.Dq.Queue_intf.recover ();
            let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
            let s = Dq.Checkpoint.last_recovery ck in
            let n = List.length (q.Dq.Queue_intf.to_list ()) in
            if n <> window then begin
              Printf.eprintf "%s: recovered %d items, expected %d\n%!"
                entry.Dq.Registry.name n window;
              exit 1
            end;
            Printf.printf
              "  %s crash -> recovered %d items in %.2f ms (epoch %d, %d \
               replayed from image, %d regions scanned)\n"
              (Nvm.Crash.policy_name policy)
              n ms s.Dq.Checkpoint.ckpt_epoch s.Dq.Checkpoint.replayed_items
              s.Dq.Checkpoint.scanned_regions)
      entries
  in
  let size =
    Arg.(
      value & opt int 20_000
      & info [ "n"; "size" ] ~docv:"N" ~doc:"Enqueues before the drain.")
  in
  let window =
    Arg.(
      value & opt int 64
      & info [ "window" ] ~docv:"N"
          ~doc:"Live items left in the queue when the checkpoint runs.")
  in
  let policy =
    Arg.(
      value & opt string "only-persisted"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Crash policy: only-persisted, all-flushed, random-evictions or \
             torn-prefix.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Crash RNG seed.")
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Incremental-checkpoint demo: churn a queue until the heap is \
          mostly drained regions, force a checkpoint (prints the epoch, \
          retired regions and reclaimed words), then crash and time the \
          bounded image-replay recovery.  Queues without the checkpoint \
          tier are listed and skipped.")
    Term.(const run $ queue_arg $ size $ window $ policy $ seed)

(* -- broker ------------------------------------------------------------------ *)

let broker_cmd =
  let run algorithm shards batch streams ops policy seed combining acks
      checkpoint_every =
    let policy = Broker.Routing.policy_of_name policy in
    let acks = Broker.Service.acks_of_name acks in
    Nvm.Tid.reset ();
    ignore (Nvm.Tid.register ());
    let service =
      Broker.Service.create ~algorithm ~shards ~policy ~mode:Nvm.Heap.Checked
        ~combining ~acks ()
    in
    Printf.printf
      "broker: %d x %s shards, %s routing, batch %d, %s front-end, acks=%s\n"
      shards
      (Broker.Service.algorithm service)
      (Broker.Routing.policy_name policy)
      batch
      (if combining then "flat-combining" else "per-op")
      (Broker.Service.acks_name acks);
    (* Batched producer phase, one stream at a time (single-threaded
       demo; the harness's sharded mode covers the multi-domain run). *)
    for stream = 0 to streams - 1 do
      let seq = ref 1 in
      while !seq <= ops do
        let n = min batch (ops - !seq + 1) in
        let items =
          List.init n (fun i ->
              Spec.Durable_check.encode ~producer:stream ~seq:(!seq + i))
        in
        seq := !seq + n;
        match Broker.Service.enqueue_batch service ~stream items with
        | _, Broker.Backpressure.Accepted -> ()
        | _, v ->
            failwith
              (Printf.sprintf "enqueue_batch: %s"
                 (Broker.Backpressure.verdict_name v))
      done;
      (* The supervisor's checkpoint pass, interleaved with production:
         every shard's drained regions get compacted away, so the
         recovery after the crash below replays the image instead of
         scanning the whole accumulated heap. *)
      if checkpoint_every > 0 && (stream + 1) mod checkpoint_every = 0 then begin
        Printf.printf "checkpoint pass after stream %d:\n" stream;
        Broker.Supervisor.pp_ckpt_decisions Format.std_formatter
          (Broker.Supervisor.checkpoint_all service)
      end
    done;
    Broker.Census.pp_per_op Format.std_formatter
      (Broker.Census.span_census service);
    (match Broker.Census.strict_audit service with
    | Ok () ->
        Printf.printf
          "strict audit: OK (every op span and batch span in bound)\n"
    | Error e -> failwith e);
    Broker.Census.pp_occupancy Format.std_formatter service;
    Printf.printf "depths before crash: %s\n"
      (String.concat " "
         (Array.to_list (Array.map string_of_int (Broker.Service.depths service))));
    (* Weak acks: show the durability lag the buffered tier left, then
       close the window — recovery replays only the synced floor, and
       the demo wants every acked item to survive its crash. *)
    if Broker.Service.buffered_tier service then begin
      Broker.Census.pp_durability Format.std_formatter service;
      Broker.Service.sync_all service;
      Printf.printf "after sync_all: total durability lag %d\n"
        (Broker.Service.total_durability_lag service)
    end;
    (* Full-system crash and orchestrated recovery. *)
    let rng = Random.State.make [| seed |] in
    let report =
      Broker.Recovery.crash_and_recover ~rng
        ~producer_of:Spec.Durable_check.producer_of service
    in
    Broker.Recovery.pp Format.std_formatter report;
    if not (Broker.Recovery.ok report) then failwith "recovery validation failed";
    (* Drain a stream to show per-producer FIFO survived. *)
    (match Broker.Service.dequeue_batch service ~stream:0 ~max:5 with
    | Broker.Service.Items items ->
        Printf.printf "stream 0 head after recovery: %s\n"
          (String.concat " "
             (List.map
                (fun v -> string_of_int (Spec.Durable_check.seq_of v))
                (List.filter
                   (fun v -> Spec.Durable_check.producer_of v = 0)
                   items)))
    | Broker.Service.Busy_batch | Broker.Service.Unavailable_batch -> assert false);
    Printf.printf "OK\n"
  in
  let shards =
    Arg.(value & opt int 4 & info [ "s"; "shards" ] ~docv:"N" ~doc:"Shard count.")
  in
  let batch =
    Arg.(value & opt int 8 & info [ "b"; "batch" ] ~docv:"N" ~doc:"Batch size.")
  in
  let streams =
    Arg.(
      value & opt int 6
      & info [ "streams" ] ~docv:"N" ~doc:"Producer streams.")
  in
  let ops =
    Arg.(
      value & opt int 2_000
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Enqueues per stream.")
  in
  let policy =
    Arg.(
      value & opt string "round-robin"
      & info [ "routing" ] ~docv:"POLICY"
          ~doc:"Routing policy: round-robin or key-hash.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Crash RNG seed.")
  in
  let algorithm =
    Arg.(
      value & opt string "OptUnlinkedQ"
      & info [ "q"; "queue" ] ~docv:"NAME" ~doc:"Shard queue algorithm.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Run the supervisor's checkpoint pass over every shard after \
             each $(docv)th stream's production (0 = never).  The pass is \
             quarantine-aware and prints one decision per shard; the \
             post-crash recovery report then shows bounded image replay \
             (epoch, replayed items, regions scanned).")
  in
  Cmd.v
    (Cmd.info "broker"
       ~doc:
         "Sharded durable broker demo: batched enqueues, strict span audit, \
          full-system crash and orchestrated parallel recovery.  With \
          --acks none|leader, enqueues ride the buffered group-commit \
          tier; the demo prints the durability census and syncs before \
          the crash.  With --checkpoint-every N, supervisor checkpoint \
          passes compact the shard heaps during production.")
    Term.(
      const run $ algorithm $ shards $ batch $ streams $ ops $ policy $ seed
      $ combining_arg $ acks_arg $ checkpoint_every)

(* -- set --------------------------------------------------------------------- *)

let set_cmd =
  let run maps ops keys theta seed policy =
    let entries =
      match maps with
      | [] -> Dq.Registry.maps
      | names -> List.map Dq.Registry.find_map names
    in
    let policy = Nvm.Crash.policy_of_name policy in
    List.iter
      (fun (e : Dq.Registry.map_entry) ->
        Nvm.Tid.reset ();
        ignore (Nvm.Tid.register ());
        let heap = Nvm.Heap.create ~mode:Nvm.Heap.Checked () in
        let m = e.Dq.Registry.make_map heap in
        let z = Harness.Zipf.create ~theta ~n:keys ~seed () in
        let rng = Random.State.make [| seed; 1 |] in
        let log = ref [] in
        let puts = ref 0 and removes = ref 0 in
        for i = 1 to ops do
          let key = Harness.Zipf.draw z in
          if Random.State.int rng 4 = 0 then begin
            ignore (m.Dset.Map_intf.remove ~key);
            incr removes;
            log := Spec.Crashable_map.Remove key :: !log
          end
          else begin
            m.Dset.Map_intf.put ~key ~value:i;
            incr puts;
            log := Spec.Crashable_map.Put (key, i) :: !log
          end
        done;
        let size_before = m.Dset.Map_intf.size () in
        Nvm.Crash.crash_seeded ~seed ~policy heap;
        Nvm.Tid.reset ();
        ignore (Nvm.Tid.register ());
        let t0 = Unix.gettimeofday () in
        m.Dset.Map_intf.recover ();
        let recover_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
        let recovered = m.Dset.Map_intf.to_alist () in
        match
          Spec.Crashable_map.check_recovered
            ~lazy_remove:e.Dq.Registry.lazy_remove ~applied:(List.rev !log)
            ~recovered ()
        with
        | Ok () ->
            Printf.printf
              "%-14s %d puts, %d removes over %d zipf(%.2f) keys: size %d; \
               %s crash -> recovered %d keys in %.2f ms: consistent\n"
              e.Dq.Registry.m_name !puts !removes keys theta size_before
              (Nvm.Crash.policy_name policy)
              (List.length recovered) recover_ms
        | Error msg ->
            Printf.eprintf "%-14s INCONSISTENT after crash: %s\n"
              e.Dq.Registry.m_name msg;
            exit 1)
      entries
  in
  let maps =
    Arg.(
      value & opt_all string []
      & info [ "m"; "map" ] ~docv:"NAME"
          ~doc:
            "Map variant (repeatable): LinkFreeMap or SOFTMap; default both.")
  in
  let ops =
    Arg.(
      value & opt int 20_000
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Operations before the crash.")
  in
  let keys =
    Arg.(
      value & opt int 512 & info [ "keys" ] ~docv:"N" ~doc:"Key-space size.")
  in
  let theta =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew (0 = uniform).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let policy =
    Arg.(
      value & opt string "torn-prefix"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Crash policy: only-persisted, all-flushed, random-evictions or \
             torn-prefix.")
  in
  Cmd.v
    (Cmd.info "set"
       ~doc:
         "Durable keyed-store demo: a seeded Zipf workload on the durable \
          hash maps, then a crash, recovery, and a CrashableMap \
          consistency check of the surviving contents.")
    Term.(const run $ maps $ ops $ keys $ theta $ seed $ policy)

(* -- soak -------------------------------------------------------------------- *)

let soak_cmd =
  let run cycles seed shards producers consumers ops batch drill_every smoke
      big out routing combining acks checkpoint_every =
    let base =
      if big then Harness.Soak.big_config
      else if smoke then Harness.Soak.smoke_config
      else Harness.Soak.default_config
    in
    let cfg =
      {
        base with
        Fault.Storm.shards = Option.value ~default:base.Fault.Storm.shards shards;
        producers = Option.value ~default:base.Fault.Storm.producers producers;
        consumers = Option.value ~default:base.Fault.Storm.consumers consumers;
        ops_per_cycle =
          Option.value ~default:base.Fault.Storm.ops_per_cycle ops;
        batch = Option.value ~default:base.Fault.Storm.batch batch;
        combining = combining || base.Fault.Storm.combining;
        drill_every =
          Option.value ~default:base.Fault.Storm.drill_every drill_every;
        routing =
          (match routing with
          | Some r -> Broker.Routing.policy_of_name r
          | None -> base.Fault.Storm.routing);
        acks =
          (match acks with
          | Some a -> Broker.Service.acks_of_name a
          | None -> base.Fault.Storm.acks);
        checkpoint_every =
          Option.value ~default:base.Fault.Storm.checkpoint_every
            checkpoint_every;
      }
    in
    let cycles =
      match cycles with
      | Some n -> n
      | None ->
          if big then Harness.Soak.big_cycles
          else if smoke then Harness.Soak.smoke_cycles
          else Harness.Soak.default_cycles
    in
    let report = Harness.Soak.run ~out ~seed ~cycles cfg in
    if not (Fault.Report.ok report) then exit 1
  in
  let cycles =
    Arg.(
      value
      & opt (some int) None
      & info [ "n"; "cycles" ] ~docv:"N"
          ~doc:"Crash cycles to run (default: 20, or 6 with --smoke).")
  in
  let seed =
    Arg.(
      value
      & opt int Harness.Soak.default_seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Master seed: expands deterministically into the whole fault \
             plan, so the same seed replays the identical storm.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "s"; "shards" ] ~docv:"N" ~doc:"Shard count.")
  in
  let producers =
    Arg.(
      value
      & opt (some int) None
      & info [ "producers" ] ~docv:"N" ~doc:"Producer domains (one stream each).")
  in
  let consumers =
    Arg.(
      value
      & opt (some int) None
      & info [ "consumers" ] ~docv:"N" ~doc:"Consumer domains.")
  in
  let ops =
    Arg.(
      value
      & opt (some int) None
      & info [ "ops" ] ~docv:"N" ~doc:"Enqueues per producer per cycle.")
  in
  let batch =
    Arg.(
      value
      & opt (some int) None
      & info [ "b"; "batch" ] ~docv:"N" ~doc:"Enqueue batch size.")
  in
  let drill_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "drill-every" ] ~docv:"N"
          ~doc:"Forced-quarantine drill every Nth cycle (0 disables).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Small CI-gate configuration (seconds, not minutes).")
  in
  let big =
    Arg.(
      value & flag
      & info [ "big" ]
          ~doc:
            "Large-heap configuration: ~100x the default per-cycle \
             volume with outnumbered consumers and a checkpoint pass \
             every cycle, so per-cycle recover_ms stays flat.  Combine \
             with --checkpoint-every 0 to watch it go linear instead.")
  in
  let out =
    Arg.(
      value
      & opt string (Filename.concat "results" "fault_report.json")
      & info [ "out" ] ~docv:"FILE" ~doc:"JSON fault-report path.")
  in
  let routing =
    Arg.(
      value
      & opt (some string) None
      & info [ "routing" ] ~docv:"POLICY"
          ~doc:"Routing policy: round-robin or key-hash.")
  in
  let acks =
    Arg.(
      value
      & opt (some string) None
      & info [ "acks" ] ~docv:"LEVEL"
          ~doc:
            "Durability level for all streams: all-synced (default), \
             leader or none.  Weak levels exercise the buffered \
             group-commit tier under the storm; producers sync their \
             stream at cycle end and every shard syncs before each \
             crash, so acked still implies survives.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Run the supervisor's checkpoint pass every $(docv)th cycle \
             at the quiescent point before the crash (0 = never).  \
             Contents-neutral — the replay log is untouched; the JSON \
             report's per-cycle ckpt_epoch/ckpt_retired and recover_ms \
             show the compaction and the bounded recovery.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Crash-storm soak: seeded fault-injection cycles against live \
          multi-domain broker load, with quarantine drills, retry/backoff \
          clients, zero-acknowledged-loss verification and a JSON fault \
          report.  Exits 1 unless every cycle verified.  --big runs the \
          large-heap configuration whose flat per-cycle recover_ms is \
          the checkpoint tier's bounded-recovery claim.")
    Term.(
      const run $ cycles $ seed $ shards $ producers $ consumers $ ops $ batch
      $ drill_every $ smoke $ big $ out $ routing $ combining_arg $ acks
      $ checkpoint_every)

(* -- load -------------------------------------------------------------------- *)

let load_cmd =
  let run smoke out seed duration shards sla_ms rates bursts no_admission =
    let frac = Harness.Bench_row.frac_of_env () in
    let mode = if smoke then "smoke" else "full" in
    let base = if smoke then Load.Sweep.smoke_config () else Load.Sweep.full_config () in
    let bursts =
      List.map
        (fun spec ->
          match String.split_on_char ':' spec with
          | [ s; d; m ] -> (
              try
                {
                  Load.Arrivals.b_start_s = float_of_string s;
                  b_dur_s = float_of_string d;
                  b_mult = float_of_string m;
                }
              with _ -> invalid_arg (Printf.sprintf "bad burst spec %S" spec))
          | _ ->
              invalid_arg
                (Printf.sprintf "bad burst spec %S (want START:DUR:MULT)" spec))
        bursts
    in
    let cfg =
      {
        base with
        Load.Gen.seed;
        duration_s = Option.value ~default:base.Load.Gen.duration_s duration;
        shards = Option.value ~default:base.Load.Gen.shards shards;
        sla_s =
          (match sla_ms with
          | Some ms -> ms /. 1e3
          | None -> base.Load.Gen.sla_s);
        bursts;
        admission = not no_admission;
      }
    in
    let mults =
      match rates with
      | None -> None
      | Some spec ->
          Some (List.map float_of_string (String.split_on_char ',' spec))
    in
    let res = Load.Sweep.run ?mults ~mode cfg in
    Load.Sweep.pp Format.std_formatter res;
    Format.pp_print_flush Format.std_formatter ();
    Load.Sweep.write_json ~path:out res;
    Printf.printf "wrote %s\n%!" out;
    let baseline = Harness.Bench_row.load_points.baseline in
    if not (Sys.file_exists baseline) then
      Printf.eprintf "load gate: no baseline at %s, structural checks only\n%!"
        baseline;
    match Load.Sweep.gate ~baseline ~frac res with
    | [] -> Printf.printf "load gate: OK (frac %g)\n%!" frac
    | errs ->
        List.iter (Printf.eprintf "load gate: %s\n") errs;
        Printf.eprintf "%!";
        exit 1
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Small CI-gate sweep (2 shards, ~0.6 s per point).")
  in
  let out =
    Arg.(
      value & opt string "BENCH_load.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"JSON result path.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Schedule seed.")
  in
  let duration =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"S" ~doc:"Offered window per point, seconds.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "s"; "shards" ] ~docv:"N" ~doc:"Shard count.")
  in
  let sla_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "sla-ms" ] ~docv:"MS"
          ~doc:"Strict-tier p99 enqueue-to-durable SLA, milliseconds.")
  in
  let rates =
    Arg.(
      value
      & opt (some string) None
      & info [ "rates" ] ~docv:"M1,M2,..."
          ~doc:
            "Comma-separated offered-rate multipliers of the capacity \
             estimate (default 0.4,0.8,1.6,3.0 with --smoke, else \
             0.3,0.6,0.9,1.2,2.0,4.0).")
  in
  let bursts =
    Arg.(
      value & opt_all string []
      & info [ "burst" ] ~docv:"START:DUR:MULT"
          ~doc:
            "Burst phase (repeatable): multiply the arrival rate by MULT \
             from START for DUR seconds.")
  in
  let no_admission =
    Arg.(
      value & flag
      & info [ "no-admission" ]
          ~doc:
            "Disable the admission layer (no quotas, shedding or \
             degradation): the raw open-loop saturation behaviour.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Open-loop overload sweep: multi-tenant Poisson traffic (Zipf \
          keys, per-tenant acks and quotas) against the admission-fronted \
          broker under the dimm_wall device profile.  Locates the \
          saturation knee, writes one JSON object per point, and gates \
          against bench/load_baseline.json at the fraction DQ_GATE_FRAC \
          (default 0.7; 0 skips the baseline comparison).  Exits 1 when \
          the gate fails, 2 when DQ_GATE_FRAC is malformed.")
    Term.(
      const run $ smoke $ out $ seed $ duration $ shards $ sla_ms $ rates
      $ bursts $ no_admission)

let () =
  let info =
    Cmd.info "dq" ~version:"1.0.0"
      ~doc:"Durable lock-free queues on simulated NVRAM (SPAA'21 reproduction)."
  in
  (* Normalized exit codes across every subcommand: 0 = success, 1 =
     a check or run failed (including uncaught exceptions), 2 = usage
     error — instead of cmdliner's default 124/125 vocabulary.  CI
     asserts exactly these. *)
  let code =
    match
      Cmd.eval_value
        (Cmd.group info
           [
             list_cmd; run_cmd; census_cmd; trace_cmd; crash_cmd; recovery_cmd;
             checkpoint_cmd; explore_cmd; broker_cmd; set_cmd; soak_cmd;
             load_cmd;
           ])
    with
    | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 1
  in
  exit code
