(* Tests for the open-loop load layer (lib/load) and the admission
   front it drives (Broker.Admission): seeded arrival planning, the
   shared Zipf seed discipline, metric order statistics, the admission
   pipeline under an injected clock (token buckets, deadline sheds,
   watermark levels, graceful degradation, quarantine passthrough),
   one short end-to-end Gen run, the driver's lifecycle rules and
   verifier, and the sweep's JSON / regression gate over synthetic
   results. *)

let fresh_tid () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ())

let enc = Spec.Durable_check.encode

(* -- arrivals ----------------------------------------------------------------- *)

let test_arrivals_deterministic () =
  let plan seed =
    Load.Arrivals.plan
      ~rng:(Random.State.make [| seed |])
      ~rate_hz:500. ~duration_s:1.0 ()
  in
  Alcotest.(check bool) "same seed, same schedule" true (plan 3 = plan 3);
  Alcotest.(check bool) "different seed, different schedule" false
    (plan 3 = plan 4)

let test_arrivals_shape () =
  let rng = Random.State.make [| 11 |] in
  let offs = Load.Arrivals.plan ~rng ~rate_hz:1000. ~duration_s:2.0 () in
  let n = Array.length offs in
  (* Poisson(2000): +-5 sigma is ~±224. *)
  Alcotest.(check bool) "count near rate * duration" true
    (n > 1700 && n < 2300);
  Array.iteri
    (fun i off ->
      if off < 0. || off >= 2.0 then
        Alcotest.failf "offset %d out of window: %f" i off;
      if i > 0 && off < offs.(i - 1) then
        Alcotest.failf "offsets not ascending at %d" i)
    offs;
  Alcotest.(check int) "zero rate plans nothing" 0
    (Array.length
       (Load.Arrivals.plan ~rng ~rate_hz:0. ~duration_s:1.0 ()))

let test_arrivals_burst () =
  let burst =
    { Load.Arrivals.b_start_s = 0.5; b_dur_s = 0.25; b_mult = 4. }
  in
  Alcotest.(check (float 1e-9)) "base rate outside the burst" 100.
    (Load.Arrivals.rate_at ~rate_hz:100. ~bursts:[ burst ] 0.1);
  Alcotest.(check (float 1e-9)) "multiplied inside" 400.
    (Load.Arrivals.rate_at ~rate_hz:100. ~bursts:[ burst ] 0.6);
  let rng = Random.State.make [| 12 |] in
  let offs =
    Load.Arrivals.plan ~rng ~rate_hz:400. ~duration_s:1.0
      ~bursts:[ burst ] ()
  in
  let inside =
    Array.fold_left
      (fun acc o -> if o >= 0.5 && o < 0.75 then acc + 1 else acc)
      0 offs
  in
  let before =
    Array.fold_left
      (fun acc o -> if o < 0.25 then acc + 1 else acc)
      0 offs
  in
  (* Expected 400 arrivals in the burst quarter vs 100 in a quiet one:
     even at +-5 sigma the populations cannot cross. *)
  Alcotest.(check bool)
    (Printf.sprintf "burst window denser (%d vs %d)" inside before)
    true
    (inside > 2 * before)

(* -- zipf seed discipline ----------------------------------------------------- *)

let test_zipf_worker_seeds () =
  let draws z = List.init 256 (fun _ -> Harness.Zipf.draw z) in
  let mk worker =
    Harness.Zipf.create_worker ~theta:0.99 ~n:64 ~seed:7 ~worker ()
  in
  Alcotest.(check (list int)) "same (seed, worker), same stream"
    (draws (mk 0)) (draws (mk 0));
  Alcotest.(check bool) "workers decorrelated" false
    (draws (mk 0) = draws (mk 1));
  Alcotest.(check bool) "worker_seed mixes, not offsets" false
    (Harness.Zipf.worker_seed ~seed:7 ~worker:1
    = Harness.Zipf.worker_seed ~seed:8 ~worker:0);
  let counts = Array.make 64 0 in
  List.iter
    (fun k ->
      Alcotest.(check bool) "key in range" true (k >= 0 && k < 64);
      counts.(k) <- counts.(k) + 1)
    (draws (mk 3));
  (* theta=0.99 over 64 keys: rank-0 carries ~20% of the mass. *)
  Alcotest.(check bool) "hot key dominates" true
    (counts.(0) > counts.(32) && counts.(0) >= 16)

(* -- metrics ------------------------------------------------------------------ *)

let test_metrics_nearest_rank () =
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50. (Load.Metrics.percentile sorted 50.);
  Alcotest.(check (float 1e-9)) "p99" 99. (Load.Metrics.percentile sorted 99.);
  Alcotest.(check (float 1e-9)) "p100 is the max" 100.
    (Load.Metrics.percentile sorted 100.);
  Alcotest.(check (float 1e-9)) "empty array" 0.
    (Load.Metrics.percentile [||] 99.);
  let s = Load.Metrics.summarize [ 0.004; 0.002; 0.001; 0.003 ] in
  Alcotest.(check int) "n" 4 s.Load.Metrics.n;
  Alcotest.(check (float 1e-9)) "mean" 0.0025 s.Load.Metrics.mean_s;
  Alcotest.(check (float 1e-9)) "p50 sorts first" 0.002 s.Load.Metrics.p50_s;
  Alcotest.(check (float 1e-9)) "max" 0.004 s.Load.Metrics.max_s;
  Alcotest.(check int) "empty summary" 0 (Load.Metrics.summarize []).Load.Metrics.n

(* -- admission: token bucket and deadline under an injected clock ------------- *)

let adm_fixture ?(shards = 1) ?(depth_bound = 10) ?(buffered = false)
    ?watermarks () =
  fresh_tid ();
  let clock = ref 0. in
  let service = Broker.Service.create ~shards ~depth_bound ~buffered () in
  let adm =
    Broker.Admission.create ?watermarks ~now:(fun () -> !clock) service
  in
  (clock, service, adm)

let test_admission_token_bucket () =
  let clock, service, adm = adm_fixture () in
  Broker.Admission.set_tenant adm ~tenant:0
    {
      (Broker.Admission.unlimited ()) with
      Broker.Admission.rate_hz = 10.;
      burst = 2.;
    };
  let enq seq =
    Broker.Admission.enqueue adm ~tenant:0 ~stream:0 (enc ~producer:0 ~seq)
  in
  Alcotest.(check string) "first token" "admitted"
    (Broker.Admission.decision_name (enq 1));
  Alcotest.(check string) "second token" "admitted"
    (Broker.Admission.decision_name (enq 2));
  Alcotest.(check string) "bucket empty" "quota-exceeded"
    (Broker.Admission.decision_name (enq 3));
  (* 0.1 s at 10 Hz refills exactly one token. *)
  clock := 0.1;
  Alcotest.(check string) "refilled one" "admitted"
    (Broker.Admission.decision_name (enq 3));
  Alcotest.(check string) "and only one" "quota-exceeded"
    (Broker.Admission.decision_name (enq 4));
  (* A long idle period caps at burst, not rate * dt. *)
  clock := 100.;
  Alcotest.(check string) "burst cap: token 1" "admitted"
    (Broker.Admission.decision_name (enq 4));
  Alcotest.(check string) "burst cap: token 2" "admitted"
    (Broker.Admission.decision_name (enq 5));
  Alcotest.(check string) "burst cap: empty again" "quota-exceeded"
    (Broker.Admission.decision_name (enq 6));
  let row = List.hd (Broker.Admission.rows adm) in
  Alcotest.(check int) "sent" 8 row.Broker.Admission.a_sent;
  Alcotest.(check int) "admitted" 5 row.Broker.Admission.a_admitted;
  Alcotest.(check int) "shed on quota" 3 row.Broker.Admission.a_shed_quota;
  (* The sheds cost no device bandwidth: only admitted items queued. *)
  Alcotest.(check int) "service depth = admitted" 5
    (Broker.Service.depths service).(0)

let test_admission_batch_prefix () =
  let _clock, service, adm = adm_fixture () in
  Broker.Admission.set_tenant adm ~tenant:0
    {
      (Broker.Admission.unlimited ()) with
      Broker.Admission.rate_hz = 1.;
      burst = 2.;
    };
  let items = List.init 4 (fun i -> enc ~producer:0 ~seq:(i + 1)) in
  let n, d = Broker.Admission.enqueue_batch adm ~tenant:0 ~stream:0 items in
  Alcotest.(check int) "prefix granted" 2 n;
  Alcotest.(check string) "remainder shed" "quota-exceeded"
    (Broker.Admission.decision_name d);
  (* Exactly the prefix reached the shard, in order. *)
  Alcotest.(check (list int)) "prefix enqueued"
    [ enc ~producer:0 ~seq:1; enc ~producer:0 ~seq:2 ]
    (Broker.Service.to_lists service).(0);
  let t = Broker.Admission.totals adm in
  Alcotest.(check int) "sent counts every item" 4 t.Broker.Admission.a_sent;
  Alcotest.(check int) "admitted counts the prefix" 2
    t.Broker.Admission.a_admitted;
  Alcotest.(check int) "shed counts the rest" 2
    t.Broker.Admission.a_shed_quota;
  (* The shard then refuses part of the granted prefix: the items the
     quota turned away stay quota sheds, and only the granted items the
     shard refused count as rejected. *)
  let _clock, _service, adm = adm_fixture ~depth_bound:1 () in
  Broker.Admission.set_tenant adm ~tenant:0
    {
      (Broker.Admission.unlimited ()) with
      Broker.Admission.rate_hz = 1.;
      burst = 2.;
    };
  let items = List.init 5 (fun i -> enc ~producer:0 ~seq:(i + 1)) in
  let n, d = Broker.Admission.enqueue_batch adm ~tenant:0 ~stream:0 items in
  Alcotest.(check int) "shard room" 1 n;
  Alcotest.(check string) "service verdict" "rejected:overflow"
    (Broker.Admission.decision_name d);
  let t = Broker.Admission.totals adm in
  Alcotest.(check (list int)) "admitted, shed_quota, rejected" [ 1; 3; 1 ]
    [
      t.Broker.Admission.a_admitted;
      t.Broker.Admission.a_shed_quota;
      t.Broker.Admission.a_rejected;
    ]

let test_admission_deadline () =
  let clock, _service, adm = adm_fixture () in
  Broker.Admission.set_tenant adm ~tenant:3
    {
      (Broker.Admission.unlimited ()) with
      Broker.Admission.deadline_s = Some 0.05;
    };
  clock := 100.;
  let enq ~arrival seq =
    Broker.Admission.enqueue adm ~tenant:3 ~stream:0 ~arrival
      (enc ~producer:0 ~seq)
  in
  Alcotest.(check string) "fresh op admitted" "admitted"
    (Broker.Admission.decision_name (enq ~arrival:99.99 1));
  Alcotest.(check string) "stale op shed" "deadline-exceeded"
    (Broker.Admission.decision_name (enq ~arrival:99.9 2));
  Alcotest.(check string) "boundary is strict" "admitted"
    (Broker.Admission.decision_name (enq ~arrival:99.95 3));
  let row = List.hd (Broker.Admission.rows adm) in
  Alcotest.(check int) "deadline sheds counted" 1
    row.Broker.Admission.a_shed_deadline

let test_admission_quarantine_passthrough () =
  let _clock, service, adm = adm_fixture ~shards:2 () in
  (* Pin two streams to distinct shards, then fence one off. *)
  let s0 = Broker.Service.shard_of_stream service ~stream:0 in
  let s1 = Broker.Service.shard_of_stream service ~stream:1 in
  Alcotest.(check bool) "streams on distinct shards" true (s0 <> s1);
  Broker.Admission.set_tenant adm ~tenant:0
    {
      (Broker.Admission.unlimited ()) with
      Broker.Admission.rate_hz = 0.001;
      burst = 1.;
    };
  Broker.Service.quarantine service ~shard:s0 ~reason:"drill";
  (match Broker.Admission.enqueue adm ~tenant:0 ~stream:0 (enc ~producer:0 ~seq:1) with
  | Broker.Admission.Rejected Broker.Backpressure.Unavailable -> ()
  | d -> Alcotest.failf "expected Rejected Unavailable, got %s"
           (Broker.Admission.decision_name d));
  (* The quarantine verdict charged no quota: the single token still
     buys an enqueue on the healthy shard... *)
  Alcotest.(check string) "token intact after rejection" "admitted"
    (Broker.Admission.decision_name
       (Broker.Admission.enqueue adm ~tenant:0 ~stream:1
          (enc ~producer:1 ~seq:1)));
  (* ...and is gone afterwards. *)
  Alcotest.(check string) "token spent" "quota-exceeded"
    (Broker.Admission.decision_name
       (Broker.Admission.enqueue adm ~tenant:0 ~stream:1
          (enc ~producer:1 ~seq:2)));
  let row = List.hd (Broker.Admission.rows adm) in
  Alcotest.(check int) "rejection counted" 1 row.Broker.Admission.a_rejected

(* -- admission: watermarks and graceful degradation --------------------------- *)

let tight_watermarks =
  { Broker.Admission.yellow_depth = 0.3; red_depth = 0.7 }

let test_admission_red_sheds () =
  let _clock, service, adm =
    adm_fixture ~depth_bound:10 ~watermarks:tight_watermarks ()
  in
  (* 7/10 queued = the red depth watermark. *)
  for seq = 1 to 7 do
    ignore (Broker.Service.enqueue service ~stream:1 (enc ~producer:1 ~seq))
  done;
  Alcotest.(check string) "shard red" "red"
    (Broker.Admission.level_name
       (Broker.Admission.shard_level adm ~shard:0));
  (match Broker.Admission.enqueue adm ~tenant:0 ~stream:0 (enc ~producer:0 ~seq:1) with
  | Broker.Admission.Shed (Broker.Admission.Overloaded reason) ->
      Alcotest.(check bool) "reason names the shard depth" true
        (String.length reason > 0)
  | d -> Alcotest.failf "expected overload shed, got %s"
           (Broker.Admission.decision_name d));
  Alcotest.(check int) "overload shed counted" 1
    (Broker.Admission.totals adm).Broker.Admission.a_shed_overload;
  (* Draining below the watermark reopens the door. *)
  for _ = 1 to 5 do ignore (Broker.Service.dequeue service ~stream:1) done;
  Alcotest.(check string) "admits again" "admitted"
    (Broker.Admission.decision_name
       (Broker.Admission.enqueue adm ~tenant:0 ~stream:0
          (enc ~producer:0 ~seq:1)))

let test_admission_degrade_and_restore () =
  let _clock, service, adm =
    adm_fixture ~depth_bound:10 ~buffered:true ~watermarks:tight_watermarks ()
  in
  (* 3/10 queued = yellow: strict tenants demote to the leader tier. *)
  for seq = 1 to 3 do
    ignore (Broker.Service.enqueue service ~stream:1 (enc ~producer:1 ~seq))
  done;
  Alcotest.(check string) "shard yellow" "yellow"
    (Broker.Admission.level_name
       (Broker.Admission.shard_level adm ~shard:0));
  (match Broker.Admission.enqueue adm ~tenant:0 ~stream:0 (enc ~producer:0 ~seq:1) with
  | Broker.Admission.Admitted Broker.Service.Acks_leader -> ()
  | d -> Alcotest.failf "expected demoted admission, got %s"
           (Broker.Admission.decision_name d));
  Alcotest.(check (list int)) "stream demoted" [ 0 ]
    (Broker.Admission.demoted_streams adm);
  (* A second op on the demoted stream stays on the leader tier and
     keeps counting as degraded. *)
  (match Broker.Admission.enqueue adm ~tenant:0 ~stream:0 (enc ~producer:0 ~seq:2) with
  | Broker.Admission.Admitted Broker.Service.Acks_leader -> ()
  | d -> Alcotest.failf "expected sticky demotion, got %s"
           (Broker.Admission.decision_name d));
  Alcotest.(check int) "degraded ops counted" 2
    (Broker.Admission.totals adm).Broker.Admission.a_degraded;
  (* Drain to green, sync the buffered suffix, lift the demotion. *)
  for _ = 1 to 3 do ignore (Broker.Service.dequeue service ~stream:1) done;
  Broker.Service.sync_all service;
  Alcotest.(check string) "shard green again" "green"
    (Broker.Admission.level_name
       (Broker.Admission.shard_level adm ~shard:0));
  Alcotest.(check (list int)) "restore lists the stream" [ 0 ]
    (Broker.Admission.restore_demoted adm);
  Alcotest.(check (list int)) "demotion table empty" []
    (Broker.Admission.demoted_streams adm);
  Alcotest.(check string) "requested level restored" "all-synced"
    (Broker.Service.acks_name (Broker.Service.stream_acks service ~stream:0));
  (match Broker.Admission.enqueue adm ~tenant:0 ~stream:0 (enc ~producer:0 ~seq:3) with
  | Broker.Admission.Admitted Broker.Service.Acks_all_synced -> ()
  | d -> Alcotest.failf "expected full-strength admission, got %s"
           (Broker.Admission.decision_name d));
  Alcotest.(check int) "no new degradation after restore" 2
    (Broker.Admission.totals adm).Broker.Admission.a_degraded;
  (* The restored stream keeps its FIFO: seq 3 drains after the demoted
     seqs 1 and 2. *)
  let rec drain acc =
    match Broker.Service.dequeue service ~stream:0 with
    | Broker.Service.Item v -> drain (Spec.Durable_check.seq_of v :: acc)
    | _ -> List.rev acc
  in
  Alcotest.(check (list int)) "stream 0 drains in order" [ 1; 2; 3 ]
    (drain [])

(* -- the generator ------------------------------------------------------------ *)

(* A short end-to-end run with the device model off: schedule pacing,
   per-tenant accounting, durable stamping and the burst machinery all
   have to cohere.  Rates are trivial, so nothing may be shed. *)
let test_gen_smoke () =
  fresh_tid ();
  let cfg =
    {
      Load.Gen.config_default with
      Load.Gen.duration_s = 0.25;
      latency = Nvm.Latency.off;
      seed = 42;
      tenants =
        [
          { Load.Gen.tenant_default with Load.Gen.t_rate_hz = 400.; t_keyspace = 8 };
          {
            Load.Gen.tenant_default with
            Load.Gen.t_rate_hz = 200.;
            t_acks = Broker.Service.Acks_leader;
            t_keyspace = 4;
            t_theta = 0.8;
          };
        ];
      bursts = [ { Load.Arrivals.b_start_s = 0.10; b_dur_s = 0.05; b_mult = 3. } ];
    }
  in
  let r = Load.Gen.run cfg in
  (* 600 Hz base plus a 3x burst for 50 ms: ~210 expected arrivals. *)
  Alcotest.(check bool)
    (Printf.sprintf "offered plausible (%d)" r.Load.Gen.rep_offered)
    true
    (r.Load.Gen.rep_offered > 120 && r.Load.Gen.rep_offered < 330);
  let t = r.Load.Gen.rep_totals in
  Alcotest.(check int) "every arrival hit admission" r.Load.Gen.rep_offered
    t.Broker.Admission.a_sent;
  Alcotest.(check int) "trivial load: everything admitted"
    t.Broker.Admission.a_sent t.Broker.Admission.a_admitted;
  Alcotest.(check int) "every admitted op carries a durable stamp"
    t.Broker.Admission.a_admitted r.Load.Gen.rep_durable.Load.Metrics.n;
  (* Strict ops are durable inside the enqueue call; buffered ones wait
     for the closing group commit, so only the strict tail is gated. *)
  Alcotest.(check bool) "strict p99 sane with the device model off" true
    (r.Load.Gen.rep_strict_durable.Load.Metrics.p99_s < 0.05);
  let tenant_sent =
    List.fold_left
      (fun acc tr -> acc + tr.Load.Gen.r_row.Broker.Admission.a_sent)
      0 r.Load.Gen.rep_tenants
  in
  Alcotest.(check int) "tenant rows partition the totals"
    t.Broker.Admission.a_sent tenant_sent;
  Alcotest.(check int) "strict tenant only in the strict summary"
    (List.find
       (fun tr -> tr.Load.Gen.r_tenant = 0)
       r.Load.Gen.rep_tenants)
      .Load.Gen.r_row
      .Broker.Admission.a_admitted
    r.Load.Gen.rep_strict_durable.Load.Metrics.n;
  Alcotest.(check bool) "consumer kept up at trivial load" true
    (r.Load.Gen.rep_consumed > 0);
  (match r.Load.Gen.rep_check with
  | Ok () -> ()
  | Error e -> Alcotest.failf "delivery check: %s" e);
  Alcotest.(check int) "nothing demoted" 0 r.Load.Gen.rep_demoted;
  (* The schedule is planned, not reactive: the same seed offers the
     same arrivals. *)
  let again = Load.Gen.run cfg in
  Alcotest.(check int) "same seed, same offered schedule"
    r.Load.Gen.rep_offered again.Load.Gen.rep_offered

(* -- the driver ----------------------------------------------------------------- *)

(* Every Gen run pins its thread ids afresh, so a sweep of any length
   stays inside the 64-id registry instead of running it dry (a worker
   then dies on registration and the window never closes). *)
let test_drive_tids_per_run () =
  fresh_tid ();
  let cfg =
    {
      Load.Gen.config_default with
      Load.Gen.duration_s = 0.05;
      latency = Nvm.Latency.off;
      tenants =
        [ { Load.Gen.tenant_default with Load.Gen.t_rate_hz = 400.; t_keyspace = 8 } ];
    }
  in
  for run = 1 to 4 do
    let r = Load.Gen.run cfg in
    (match r.Load.Gen.rep_check with
    | Ok () -> ()
    | Error e -> Alcotest.failf "run %d: delivery check: %s" run e);
    let ids = Nvm.Tid.count () in
    if ids > cfg.Load.Gen.producers + cfg.Load.Gen.consumers + 1 then
      Alcotest.failf "run %d left %d thread ids registered" run ids
  done

(* A worker that raises fails the window instead of leaving the others
   waiting at the gate: the surviving producer skips its body. *)
let test_drive_warm_failure_raises () =
  Load.Drive.prepare ~producers:2 ~consumers:1;
  let ran = Atomic.make false in
  match
    Load.Drive.window ~producers:2 ~consumers:1 ~ops:1
      ~warm:(fun w -> if w = 1 then failwith "warm body")
      (fun _ ~t0:_ -> Atomic.set ran true)
  with
  | _ -> Alcotest.fail "a window with a failed warm body returned"
  | exception Failure msg ->
      Alcotest.(check string) "the warm body's exception" "warm body" msg;
      Alcotest.(check bool) "no producer body ran" false (Atomic.get ran)

(* The GC rule reaches the workers: each spawned domain sizes its own
   minor heap (a parent's Gc.set does not propagate to its children). *)
let test_drive_worker_minor_heap () =
  let ops = 1_000 in
  let seen = Array.make 3 0 in
  let minor () = (Gc.get ()).Gc.minor_heap_size in
  Load.Drive.prepare ~producers:2 ~consumers:1;
  ignore
    (Load.Drive.window ~producers:2 ~consumers:1 ~ops
       ~dequeue:(fun k ->
         seen.(2 + k) <- minor ();
         fun () -> None)
       (fun w ~t0:_ -> seen.(w) <- minor ()));
  Array.iteri
    (fun i n ->
      Alcotest.(check int)
        (Printf.sprintf "worker %d minor heap" i)
        (Load.Drive.minor_heap_words ~ops) n)
    seen;
  Alcotest.(check bool) "the calling domain keeps its own" true
    (minor () <> Load.Drive.minor_heap_words ~ops)

(* The verifier sees what the consumers really got: a clean window
   passes, and a bin with one value dropped or duplicated fails. *)
let test_drive_verify_doctored_bins () =
  Load.Drive.prepare ~producers:2 ~consumers:1;
  let service = Broker.Service.create ~shards:2 ~mode:Nvm.Heap.Fast () in
  let n = 50 in
  let enqueued =
    List.init 2 (fun w -> List.init n (fun i -> enc ~producer:w ~seq:(i + 1)))
  in
  List.iteri
    (fun w _ -> ignore (Broker.Service.shard_of_stream service ~stream:w))
    enqueued;
  let out =
    Load.Drive.window ~producers:2 ~consumers:1 ~ops:n
      ~dequeue:(fun _ () ->
        match Broker.Service.dequeue_any service with
        | Broker.Service.Item v -> Some v
        | _ -> None)
      (fun w ~t0:_ ->
        List.iter
          (fun v ->
            match Broker.Service.enqueue service ~stream:w v with
            | Broker.Backpressure.Accepted -> ()
            | _ -> failwith "enqueue refused")
          (List.nth enqueued w))
  in
  let bin = List.map fst out.Load.Drive.consumed.(0) in
  Alcotest.(check int) "the consumer drained to empty" (2 * n)
    (List.length bin);
  let verify bin = Load.Drive.verify service ~enqueued ~consumed:[ bin ] in
  (match verify bin with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clean window rejected: %s" e);
  (match verify (List.tl bin) with
  | Ok () -> Alcotest.fail "a dropped value passed"
  | Error _ -> ());
  match verify (List.hd bin :: bin) with
  | Ok () -> Alcotest.fail "a duplicated value passed"
  | Error _ -> ()

(* -- sweep: JSON and the regression gate over synthetic results --------------- *)

let mk_summary ~n ~p99 =
  {
    Load.Metrics.n;
    mean_s = p99;
    p50_s = p99;
    p90_s = p99;
    p99_s = p99;
    p999_s = p99;
    max_s = p99;
  }

let mk_row ~sent ~admitted ~shed =
  {
    Broker.Admission.a_tenant = -1;
    a_sent = sent;
    a_admitted = admitted;
    a_degraded = 0;
    a_shed_quota = shed;
    a_shed_overload = 0;
    a_shed_deadline = 0;
    a_rejected = 0;
  }

let mk_report ~offered ~admitted ~shed ~p99 ~sla_ok =
  {
    Load.Gen.rep_duration_s = 1.;
    rep_elapsed_s = 1.;
    rep_offered = offered;
    rep_offered_hz = float_of_int offered;
    rep_admitted_hz = float_of_int admitted;
    rep_totals = mk_row ~sent:offered ~admitted ~shed;
    rep_tenants = [];
    rep_shard_durable = [||];
    rep_durable = mk_summary ~n:admitted ~p99;
    rep_strict_durable = mk_summary ~n:admitted ~p99;
    rep_dequeue = Load.Metrics.empty;
    rep_consumed = 0;
    rep_demoted = 0;
    rep_sla_s = 0.005;
    rep_sla_ok = sla_ok;
    rep_check = Ok ();
  }

let mk_point ~mult ~offered ~admitted ~shed ~p99 ~sla_ok =
  {
    Load.Sweep.p_mult = mult;
    p_offered_hz = float_of_int offered;
    p_report = mk_report ~offered ~admitted ~shed ~p99 ~sla_ok;
  }

(* A healthy saturation curve: everything in below the knee, typed
   sheds plus a bounded accepted-op tail above it. *)
let good_result () =
  {
    Load.Sweep.sw_mode = "smoke";
    sw_capacity_hz = 2000.;
    sw_points =
      [
        mk_point ~mult:0.5 ~offered:1000 ~admitted:1000 ~shed:0 ~p99:0.002
          ~sla_ok:true;
        mk_point ~mult:1.0 ~offered:2000 ~admitted:2000 ~shed:0 ~p99:0.004
          ~sla_ok:true;
        mk_point ~mult:2.0 ~offered:4000 ~admitted:3000 ~shed:1000 ~p99:0.009
          ~sla_ok:false;
      ];
    sw_knee_mult = 1.0;
    sw_knee_hz = 2000.;
  }

let no_baseline = Filename.concat (Filename.get_temp_dir_name ()) "dq-load-missing.json"

let test_sweep_gate_structural () =
  Alcotest.(check (list string)) "healthy curve passes" []
    (Load.Sweep.gate ~baseline:no_baseline ~frac:0.7 (good_result ()));
  (* Above the knee with no admission reaction: collapse, not control. *)
  let silent =
    {
      (good_result ()) with
      Load.Sweep.sw_points =
        [
          mk_point ~mult:1.0 ~offered:2000 ~admitted:2000 ~shed:0 ~p99:0.004
            ~sla_ok:true;
          mk_point ~mult:2.0 ~offered:4000 ~admitted:4000 ~shed:0 ~p99:0.040
            ~sla_ok:false;
        ];
    }
  in
  (match Load.Sweep.gate ~baseline:no_baseline ~frac:0.7 silent with
  | [ shed_err; tail_err ] ->
      Alcotest.(check bool) "flags the missing shed" true
        (String.length shed_err > 0);
      Alcotest.(check bool) "flags the unbounded tail" true
        (String.length tail_err > 0)
  | errs ->
      Alcotest.failf "expected 2 structural errors, got %d" (List.length errs));
  (* No saturation point at all: the sweep proved nothing. *)
  let unlocated =
    { (good_result ()) with Load.Sweep.sw_knee_mult = 0.; sw_knee_hz = 0. }
  in
  Alcotest.(check int) "unlocated knee is an error" 1
    (List.length (Load.Sweep.gate ~baseline:no_baseline ~frac:0.7 unlocated))

let test_sweep_gate_baseline () =
  let res = good_result () in
  let path = Filename.temp_file "dq_load_baseline" ".json" in
  Load.Sweep.write_json ~path res;
  Alcotest.(check (list string)) "self-comparison passes" []
    (Load.Sweep.gate ~baseline:path ~frac:0.7 res);
  (* Admitted throughput and the knee both regress to half: both gate
     clauses must fire. *)
  let regressed =
    {
      res with
      Load.Sweep.sw_points =
        [
          mk_point ~mult:0.5 ~offered:1000 ~admitted:450 ~shed:550 ~p99:0.002
            ~sla_ok:true;
          mk_point ~mult:1.0 ~offered:2000 ~admitted:900 ~shed:1100 ~p99:0.004
            ~sla_ok:true;
          mk_point ~mult:2.0 ~offered:4000 ~admitted:3000 ~shed:1000 ~p99:0.009
            ~sla_ok:false;
        ];
      sw_knee_mult = 0.5;
      sw_knee_hz = 1000.;
    }
  in
  let errs = Load.Sweep.gate ~baseline:path ~frac:0.7 regressed in
  Sys.remove path;
  Alcotest.(check int) "two throughput points + the knee regressed" 3
    (List.length errs);
  (* A different mode's rows in the same file are not a baseline for
     this mode. *)
  let other_mode = { (good_result ()) with Load.Sweep.sw_mode = "full" } in
  Alcotest.(check (list string)) "modes gate independently" []
    (Load.Sweep.gate ~baseline:no_baseline ~frac:0.7 other_mode)

let test_sweep_json_lines () =
  let res = good_result () in
  let path = Filename.temp_file "dq_load_rows" ".json" in
  Load.Sweep.write_json ~path res;
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  Sys.remove path;
  Alcotest.(check int) "one line per point plus the knee" 4
    (List.length lines);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iteri
    (fun i line ->
      Alcotest.(check bool)
        (Printf.sprintf "line %d tagged" i)
        true
        (contains "\"bench\": \"load\"" line))
    lines;
  Alcotest.(check bool) "knee row present" true
    (contains "\"kind\": \"knee\"" (List.nth lines 3));
  Alcotest.(check bool) "knee rate serialized" true
    (contains "\"knee_hz\": 2000.0" (List.nth lines 3))

let () =
  Alcotest.run "load"
    [
      ( "arrivals",
        [
          Alcotest.test_case "deterministic plans" `Quick
            test_arrivals_deterministic;
          Alcotest.test_case "poisson shape" `Quick test_arrivals_shape;
          Alcotest.test_case "burst phases" `Quick test_arrivals_burst;
        ] );
      ( "zipf",
        [ Alcotest.test_case "worker seed discipline" `Quick
            test_zipf_worker_seeds ] );
      ( "metrics",
        [ Alcotest.test_case "nearest-rank percentiles" `Quick
            test_metrics_nearest_rank ] );
      ( "admission",
        [
          Alcotest.test_case "token bucket" `Quick test_admission_token_bucket;
          Alcotest.test_case "batch quota prefix" `Quick
            test_admission_batch_prefix;
          Alcotest.test_case "deadline shedding" `Quick test_admission_deadline;
          Alcotest.test_case "quarantine passthrough" `Quick
            test_admission_quarantine_passthrough;
          Alcotest.test_case "red watermark sheds" `Quick
            test_admission_red_sheds;
          Alcotest.test_case "degrade and restore" `Quick
            test_admission_degrade_and_restore;
        ] );
      ( "gen",
        [ Alcotest.test_case "open-loop smoke run" `Slow test_gen_smoke ] );
      ( "drive",
        [
          Alcotest.test_case "thread ids per run" `Quick
            test_drive_tids_per_run;
          Alcotest.test_case "a raising warm body fails the window" `Quick
            test_drive_warm_failure_raises;
          Alcotest.test_case "worker minor heaps" `Quick
            test_drive_worker_minor_heap;
          Alcotest.test_case "doctored bins fail verify" `Quick
            test_drive_verify_doctored_bins;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "structural gate" `Quick
            test_sweep_gate_structural;
          Alcotest.test_case "baseline gate" `Quick test_sweep_gate_baseline;
          Alcotest.test_case "json lines" `Quick test_sweep_json_lines;
        ] );
    ]
