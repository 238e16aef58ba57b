(* Metrics of one run: the end-to-end set every run prints, and the
   per-layer set a traced run prints.  Percentiles are
   Load.Metrics.percentile (nearest rank); every sample statistic
   carries its sample count. *)

module D = Driver

type metric = {
  name : string;
  value : float;
  unit : string;
  n : int;  (* samples behind a statistic; 0 for counts and totals *)
  listed : bool;  (* in BENCHMARK.json: printed in the result line *)
}

let sla_s = 0.005

let m ?(n = 0) ?(listed = true) name unit value = { name; value; unit; n; listed }

(* The values of [f i] over ops satisfying [keep], sorted. *)
let sample (ops : Ops.t) keep f =
  let acc = ref [] in
  for i = ops.n - 1 downto 0 do
    if keep i then acc := f i :: !acc
  done;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let pct a p = Load.Metrics.percentile a p

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* A percentile of [a] scaled to [unit] (seconds in). *)
let stat ?listed name unit scale a p =
  m ?listed ~n:(Array.length a) name unit (scale *. pct a p)

let admitted (r : D.result) i = Ops.admitted r.ops.outcome.(i)
let offered (r : D.result) = r.ops.n
let cpu_us_per_op (r : D.result) = r.cpu_s *. 1e6 /. float_of_int (offered r)

let end_to_end (r : D.result) =
  let ops = r.ops in
  let since_due stamp = sample ops (admitted r) (fun i -> stamp.(i) -. ops.due.(i)) in
  let ack = since_due ops.ack and durable = since_due ops.durable in
  let deliver = since_due ops.deliver in
  let admitted_n = Array.length ack in
  let on_time =
    Array.fold_left (fun c x -> if x <= sla_s then c + 1 else c) 0 ack
  in
  let recover = sorted (Array.map (fun (x : D.recovery) -> x.wall_ms) r.recoveries) in
  (* Listed: in BENCHMARK.json, steady enough across seeds and hours to
     carry a regression bound.  The rest are printed for reading; README
     "Bounds" gives each one's reason. *)
  let unlisted = m ~listed:false and ustat = stat ~listed:false in
  [
    m ~n:(Array.length r.setup_s) "setup_s" "s" (D.median r.setup_s);
    ustat "ack_p50_ms" "ms" 1e3 ack 50.;
    ustat "ack_p90_ms" "ms" 1e3 ack 90.;
    ustat "ack_p95_ms" "ms" 1e3 ack 95.;
    ustat "ack_p99_ms" "ms" 1e3 ack 99.;
    stat "durable_p10_ms" "ms" 1e3 durable 10.;
    ustat "durable_p50_ms" "ms" 1e3 durable 50.;
    ustat "durable_p90_ms" "ms" 1e3 durable 90.;
    ustat "durable_p95_ms" "ms" 1e3 durable 95.;
    ustat "durable_p99_ms" "ms" 1e3 durable 99.;
    stat "deliver_p10_ms" "ms" 1e3 deliver 10.;
    ustat "deliver_p50_ms" "ms" 1e3 deliver 50.;
    ustat "deliver_p90_ms" "ms" 1e3 deliver 90.;
    ustat "deliver_p95_ms" "ms" 1e3 deliver 95.;
    ustat "deliver_p99_ms" "ms" 1e3 deliver 99.;
    m ~n:admitted_n "goodput_hz" "1/s" (float_of_int on_time /. r.load_s);
    unlisted ~n:(offered r) "admit_frac" "frac" (ratio admitted_n (offered r));
    unlisted ~n:(offered r) "cpu_us_per_op" "us" (cpu_us_per_op r);
  ]
  @
  if recover = [||] then []
  else [ ustat "recover_p50_ms" "ms" 1. recover 50.; ustat "recover_p90_ms" "ms" 1. recover 90. ]

let per_layer (r : D.result) =
  let ops = r.ops in
  let all _ = true and adm = admitted r in
  let delivered i = ops.deliver.(i) > 0. in
  let leader i = ops.outcome.(i) = Ops.buffered in
  let shed i = (not (adm i)) && ops.outcome.(i) <> Ops.rejected in
  let span a b i = b.(i) -. a.(i) in
  let tot f = match r.totals with Some t -> f t | None -> 0 in
  let per_shard =
    let c = Array.make D.shards 0 in
    Array.iteri (fun i s -> if adm i then c.(s) <- c.(s) + 1) r.shard_of_op;
    c
  in
  let admitted_n = Array.fold_left ( + ) 0 per_shard in
  let mean_shard = float_of_int admitted_n /. float_of_int D.shards in
  let drained = sample ops (fun i -> adm i && r.drain.(i) > 0.) (fun i -> r.drain.(i)) in
  let nondevice = sample ops adm (fun i -> ops.ack.(i) -. ops.start.(i) -. r.drain.(i)) in
  let buffered_n = Array.fold_left (fun c o -> if o = Ops.buffered then c + 1 else c) 0 ops.outcome in
  let recs f = Array.map f r.recoveries in
  let fsum a = Array.fold_left ( +. ) 0. a in
  let mean a = if Array.length a = 0 then 0. else fsum a /. float_of_int (Array.length a) in
  let shard_ms = sorted (Array.concat (Array.to_list (recs (fun x -> x.D.shard_ms)))) in
  let overhead = sorted (recs (fun x -> x.D.wall_ms -. fsum x.D.shard_ms)) in
  (* Crash cycles: an exactly-once publish and a committed delivery each
     consult the offset maps. *)
  let map_calls =
    if r.w.kind = Workload.Crash_cycles then admitted_n + r.delivered else 0
  in
  let c = r.census in
  let late = sample ops all (span ops.due ops.start) in
  let call = sample ops adm (span ops.start ops.ack) in
  let deq = sample ops delivered (span ops.deq_start ops.deliver) in
  (* Means where the median sits within a few microseconds: the clock
     ticks in microseconds, so such a median repeats exactly from run
     to run. *)
  let avg ?listed name unit scale a =
    m ?listed ~n:(Array.length a) name unit (scale *. mean a)
  in
  [
    m "load.offered" "count" (float_of_int (offered r));
    stat ~listed:false "load.late_p50_ms" "ms" 1e3 late 50.;
    avg "load.late_mean_ms" "ms" 1e3 late;
    stat "load.late_p99_ms" "ms" 1e3 late 99.;
    stat ~listed:false "producer.call_p50_us" "us" 1e6 call 50.;
    avg "producer.call_mean_us" "us" 1e6 call;
    stat "producer.call_p99_us" "us" 1e6 call 99.;
    stat ~listed:false "admission.shed_call_p50_us" "us" 1e6
      (sample ops shed (span ops.start ops.ack)) 50.;
    m "admission.shed_quota" "count" (float_of_int (tot (fun t -> t.a_shed_quota)));
    m "admission.shed_deadline" "count" (float_of_int (tot (fun t -> t.a_shed_deadline)));
    m "admission.shed_overload" "count" (float_of_int (tot (fun t -> t.a_shed_overload)));
    m "admission.rejected" "count" (float_of_int (tot (fun t -> t.a_rejected)));
    m "admission.degraded" "count" (float_of_int (tot (fun t -> t.a_degraded)));
    m "admission.demoted_streams" "count" (float_of_int r.demoted);
    stat ~listed:false "service.deq_call_p50_us" "us" 1e6 deq 50.;
    avg "service.deq_call_mean_us" "us" 1e6 deq;
    stat "service.deq_call_p99_us" "us" 1e6 deq 99.;
    m ~n:r.polls "service.empty_poll_frac" "frac" (ratio r.empty_polls r.polls);
    stat "service.residence_p99_ms" "ms" 1e3 (sample ops delivered (span ops.ack ops.deliver)) 99.;
    m "service.backlog_max" "count" (float_of_int r.backlog_max);
    m "service.shard_skew" "ratio"
      (if mean_shard = 0. then 0.
       else float_of_int (Array.fold_left max 0 per_shard) /. mean_shard);
    m ~n:c.ops "queue.fences_per_op" "1/op" c.op_fences;
    m ~n:c.ops "queue.flushes_per_op" "1/op" c.op_flushes;
    m ~n:c.ops "queue.movntis_per_op" "1/op" c.op_movntis;
    m ~n:c.ops "queue.post_flush_per_op" "1/op" c.op_post_flush;
    m ~n:c.ops "queue.max_op_fences" "count" (float_of_int c.max_op_fences);
    stat ~listed:false "nvm.drain_p50_us" "us" 1e6 drained 50.;
    stat ~listed:false "nvm.drain_p99_us" "us" 1e6 drained 99.;
    avg "nvm.nondevice_mean_us" "us" 1e6 nondevice;
    stat ~listed:false "nvm.nondevice_p99_us" "us" 1e6 nondevice 99.;
    m "nvm.device_busy_max" "frac" (Array.fold_left Float.max 0. r.device_busy);
    m "nvm.fences_per_delivered" "1/op" (ratio r.fences r.delivered);
    m "buffered.commits" "count" (float_of_int r.commits);
    m "buffered.ops_per_commit" "ratio" (ratio buffered_n r.commits);
    stat ~listed:false "buffered.fill_p99_ms" "ms" 1e3
      (sample ops leader (span ops.ack ops.commit_issue)) 99.;
    stat ~listed:false "buffered.commit_drain_p99_ms" "ms" 1e3
      (sample ops leader (span ops.commit_issue ops.durable)) 99.;
    m "buffered.lag_max" "count" (float_of_int r.lag_max);
    m "offsets.duplicates_dropped" "count" (float_of_int r.duplicates);
    m ~n:map_calls "offsets.map_fences_per_op" "1/op" (ratio r.map_fences map_calls);
    m "checkpoint.runs" "count" (float_of_int (Array.length r.ckpt_ms));
    stat ~listed:false "checkpoint.call_p50_ms" "ms" 1. (sorted r.ckpt_ms) 50.;
    m "checkpoint.retired_regions" "count" (float_of_int r.ckpt_retired);
    m "checkpoint.live_regions_max" "count" (float_of_int r.live_regions_max);
    (* Times exist on crash-recover only: a time listed in the result
       line must not read 0 on the open-loop workloads. *)
    stat ~listed:false "recovery.shard_p50_ms" "ms" 1. shard_ms 50.;
    avg ~listed:false "recovery.overhead_mean_ms" "ms" 1. overhead;
    m ~n:(Array.length r.recoveries) "recovery.scanned_regions_mean" "count"
      (mean (recs (fun x -> float_of_int x.D.scanned)));
    m ~n:(Array.length r.recoveries) "recovery.replayed_items_mean" "count"
      (mean (recs (fun x -> float_of_int x.D.replayed)));
    m "recovery.quarantined" "count"
      (fsum (recs (fun x -> float_of_int x.D.quarantined)));
    stat ~listed:false "recovery.crash_sim_ms" "ms" 1. (sorted (recs (fun x -> x.D.sim_ms))) 50.;
    m "runtime.minor_gcs" "count" (float_of_int r.minor_gcs);
    m "runtime.major_gcs" "count" (float_of_int r.major_gcs);
    m "runtime.alloc_words_per_op" "words/op" (r.alloc_words /. float_of_int (offered r));
    m "runtime.cpu_us_per_op" "us" (cpu_us_per_op r);
    m ~listed:false "trace.dropped_spans" "count"
      (float_of_int (List.fold_left (fun a b -> a + b.Trace.dropped) 0 r.bufs));
  ]

(* -- Printing ------------------------------------------------------------- *)

let pp_table oc title metrics =
  Printf.fprintf oc "== %s\n" title;
  List.iter
    (fun x ->
      Printf.fprintf oc "  %-32s %14.4f %-8s%s\n" x.name x.value x.unit
        (if x.n > 0 then Printf.sprintf " n=%d" x.n else ""))
    metrics

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.filter (fun x -> x.listed) metrics
    |> List.map (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_number x.value) x.unit)
    |> String.concat ", "
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
