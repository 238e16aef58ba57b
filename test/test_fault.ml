(* Tests for the fault-injection layer (lib/fault): deterministic plans,
   retry/backoff combinator semantics, and the crash-storm runner —
   including the acceptance drill: >= 20 crash cycles under >= 4-domain
   load with zero acknowledged loss, a forced-quarantine drill
   exercising reroute and re-admission, and seed-replay equality of the
   cycle log. *)

let fresh_tid () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ())

(* -- plans ------------------------------------------------------------------- *)

let test_plan_deterministic () =
  let a = Fault.Plan.make ~seed:99 ~cycles:50 ~drill_every:7 () in
  let b = Fault.Plan.make ~seed:99 ~cycles:50 ~drill_every:7 () in
  Alcotest.(check (list string)) "same seed, same plan" (Fault.Plan.log a)
    (Fault.Plan.log b);
  let c = Fault.Plan.make ~seed:100 ~cycles:50 ~drill_every:7 () in
  Alcotest.(check bool) "different seed, different plan" false
    (Fault.Plan.log a = Fault.Plan.log c);
  (* Drill cadence and the policy mix are as configured. *)
  Array.iter
    (fun (cy : Fault.Plan.cycle) ->
      Alcotest.(check bool)
        (Printf.sprintf "drill cadence at cycle %d" cy.index)
        (cy.index mod 7 = 0) cy.drill)
    a.Fault.Plan.cycles;
  let policies =
    Array.fold_left
      (fun acc (cy : Fault.Plan.cycle) ->
        let name = Nvm.Crash.policy_name cy.policy in
        (name :: acc : string list))
      [] a.Fault.Plan.cycles
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " drawn at least once") true
        (List.mem p policies))
    [ "random-evictions"; "only-persisted"; "torn-prefix" ]

(* -- retry combinators -------------------------------------------------------- *)

let quick_retry =
  {
    Fault.Retry.max_attempts = 5;
    base_delay_s = 1e-6;
    max_delay_s = 1e-5;
    multiplier = 2.0;
    jitter = 0.5;
    deadline_s = None;
  }

let test_backoff_succeeds_after_transients () =
  let rng = Random.State.make [| 1 |] in
  let retries = ref 0 in
  let r =
    Fault.Retry.with_backoff ~rng ~policy:quick_retry
      ~on_retry:(fun ~attempt:_ _ -> incr retries)
      (fun ~attempt ->
        if attempt < 3 then Error (`Transient "busy") else Ok attempt)
  in
  Alcotest.(check int) "succeeded on the third attempt" 3
    (match r with Ok a -> a | Error _ -> -1);
  Alcotest.(check int) "two backoffs burned" 2 !retries

let test_backoff_exhausts () =
  let rng = Random.State.make [| 2 |] in
  match
    Fault.Retry.with_backoff ~rng ~policy:quick_retry (fun ~attempt:_ ->
        (Error (`Transient "busy") : (unit, _) result))
  with
  | Error (Fault.Retry.Exhausted { attempts; last; _ }) ->
      Alcotest.(check int) "all attempts burned" 5 attempts;
      Alcotest.(check string) "last transient kept" "busy" last
  | _ -> Alcotest.fail "expected Exhausted"

let test_backoff_fatal_immediate () =
  let rng = Random.State.make [| 3 |] in
  let calls = ref 0 in
  (match
     Fault.Retry.with_backoff ~rng ~policy:quick_retry (fun ~attempt:_ ->
         incr calls;
         (Error (`Fatal "overflow") : (unit, _) result))
   with
  | Error (Fault.Retry.Fatal "overflow") -> ()
  | _ -> Alcotest.fail "expected Fatal");
  Alcotest.(check int) "no retry on fatal" 1 !calls

let test_backoff_deadline () =
  let rng = Random.State.make [| 4 |] in
  let policy =
    { quick_retry with max_attempts = 1000; base_delay_s = 0.002;
      max_delay_s = 0.002; deadline_s = Some 0.02 }
  in
  match
    Fault.Retry.with_backoff ~rng ~policy (fun ~attempt:_ ->
        (Error (`Transient "busy") : (unit, _) result))
  with
  | Error (Fault.Retry.Deadline_exceeded { attempts; elapsed_s; _ }) ->
      Alcotest.(check bool) "stopped well before the attempt budget" true
        (attempts < 1000);
      Alcotest.(check bool) "deadline respected" true (elapsed_s >= 0.02)
  | _ -> Alcotest.fail "expected Deadline_exceeded"

(* The deadline caps the sleeps themselves: with a 50 ms backoff and a
   20 ms budget, the clamped sleep keeps the total well under one full
   (uncapped) backoff. *)
let test_backoff_deadline_caps_sleep () =
  let rng = Random.State.make [| 7 |] in
  let policy =
    { quick_retry with max_attempts = 100; base_delay_s = 0.05;
      max_delay_s = 0.05; jitter = 0.; deadline_s = Some 0.02 }
  in
  let t0 = Unix.gettimeofday () in
  match
    Fault.Retry.with_backoff ~rng ~policy (fun ~attempt:_ ->
        (Error (`Transient "busy") : (unit, _) result))
  with
  | Error (Fault.Retry.Deadline_exceeded _) ->
      Alcotest.(check bool) "sleep clamped to the remaining budget" true
        (Unix.gettimeofday () -. t0 < 0.045)
  | _ -> Alcotest.fail "expected Deadline_exceeded"

(* Admission sheds are the overload path telling the client to go away:
   Fatal by default, transient only under an explicit retry_shed. *)
let test_admission_shed_not_retried () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:1 () in
  let adm = Broker.Admission.create service in
  Broker.Admission.set_tenant adm ~tenant:0
    { (Broker.Admission.unlimited ()) with
      Broker.Admission.rate_hz = 1e-9; burst = 1. };
  let rng = Random.State.make [| 8 |] in
  (match
     Fault.Retry.admission_enqueue ~rng ~policy:quick_retry adm ~tenant:0
       ~stream:0 1
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "first token refused: %s" (Fault.Retry.error_name e));
  (match
     Fault.Retry.admission_enqueue ~rng ~policy:quick_retry adm ~tenant:0
       ~stream:0 2
   with
  | Error (Fault.Retry.Fatal "quota-exceeded") -> ()
  | Error e -> Alcotest.failf "expected a fatal shed, got %s"
                 (Fault.Retry.error_name e)
  | Ok () -> Alcotest.fail "empty bucket admitted");
  (* Opting in turns the shed transient — and the attempt budget burns
     down retrying it. *)
  (match
     Fault.Retry.admission_enqueue ~rng ~policy:quick_retry ~retry_shed:true
       adm ~tenant:0 ~stream:0 2
   with
  | Error (Fault.Retry.Exhausted { last = "quota-exceeded"; attempts; _ }) ->
      Alcotest.(check int) "kept retrying the shed" 5 attempts
  | Error e -> Alcotest.failf "expected Exhausted, got %s"
                 (Fault.Retry.error_name e)
  | Ok () -> Alcotest.fail "empty bucket admitted under retry_shed")

let test_retry_enqueue_unavailable_exhausts () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:2 () in
  let shard = Broker.Service.shard_of_stream service ~stream:0 in
  Broker.Service.quarantine service ~shard ~reason:"test";
  let rng = Random.State.make [| 5 |] in
  match Fault.Retry.enqueue ~rng ~policy:quick_retry service ~stream:0 1 with
  | Error (Fault.Retry.Exhausted { last = "unavailable"; attempts; _ }) ->
      Alcotest.(check int) "kept retrying the quarantine" 5 attempts
  | _ -> Alcotest.fail "expected Exhausted on unavailable"

(* A partially accepted batch retries only its unaccepted remainder:
   items are never re-enqueued, and stream order is preserved.  Consumer
   drain is simulated from the on_retry callback. *)
let test_retry_batch_rebatches_remainder () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:1 ~depth_bound:4 () in
  let enc = Spec.Durable_check.encode ~producer:0 in
  let items = List.init 8 (fun i -> enc ~seq:(i + 1)) in
  let drained = ref [] in
  let on_retry ~attempt:_ _ =
    for _ = 1 to 4 do
      match Broker.Service.dequeue service ~stream:0 with
      | Broker.Service.Item v -> drained := v :: !drained
      | _ -> ()
    done
  in
  let rng = Random.State.make [| 6 |] in
  let accepted, r =
    Fault.Retry.enqueue_batch ~rng ~policy:quick_retry ~on_retry
      ~retry_overflow:true service ~stream:0 items
  in
  (match r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "batch gave up: %s" (Fault.Retry.error_name e));
  Alcotest.(check int) "whole batch eventually accepted" 8 accepted;
  let final = (Broker.Service.to_lists service).(0) in
  Alcotest.(check (list int)) "drained + queued = 1..8 exactly, in order"
    items
    (List.rev !drained @ final)

(* -- the storm ---------------------------------------------------------------- *)

let smoke_cfg =
  {
    Load.Storm.default_config with
    shards = 2;
    producers = 2;
    consumers = 1;
    ops_per_cycle = 30;
    drill_every = 2;
  }

let test_storm_smoke () =
  let report = Load.Storm.run ~seed:7 ~cycles:4 smoke_cfg in
  if not (Fault.Report.ok report) then
    Alcotest.failf "storm failed:@.%a" (fun ppf -> Fault.Report.pp ppf) report;
  Alcotest.(check int) "all cycles ran" 4 (List.length report.Fault.Report.cycles);
  Alcotest.(check bool) "acked conserved" true
    (report.Fault.Report.total_acked
    = report.Fault.Report.total_consumed + report.Fault.Report.remaining)

let test_storm_replay_identical () =
  let a = Load.Storm.run ~seed:21 ~cycles:4 smoke_cfg in
  let b = Load.Storm.run ~seed:21 ~cycles:4 smoke_cfg in
  Alcotest.(check (list string)) "same seed, identical cycle log"
    (Fault.Report.replay_log a) (Fault.Report.replay_log b);
  let c = Load.Storm.run ~seed:22 ~cycles:4 smoke_cfg in
  Alcotest.(check bool) "different seed, different storm" false
    (Fault.Report.replay_log a = Fault.Report.replay_log c)

let test_storm_json_roundtrip () =
  let report = Load.Storm.run ~seed:33 ~cycles:3 smoke_cfg in
  let path = Filename.temp_file "fault_report" ".json" in
  Fault.Report.write_json ~path report;
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "mentions the seed" true
    (let needle = Printf.sprintf "\"seed\": %d" 33 in
     let rec find i =
       i + String.length needle <= String.length body
       && (String.sub body i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  Alcotest.(check bool) "marked ok" true
    (Fault.Report.ok report)

(* The weak acks levels put every stream on the buffered tier, whose
   recovery must allocate no region: each cycle's check compares every
   shard's live regions after the heal with their count just before the
   crash. *)
let test_storm_weak_acks acks () =
  let report =
    Load.Storm.run ~seed:7 ~cycles:4 { smoke_cfg with Load.Storm.acks }
  in
  List.iter
    (fun (c : Fault.Report.cycle) ->
      match c.check with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cycle %d: %s" c.index e)
    report.Fault.Report.cycles;
  if not (Fault.Report.ok report) then
    Alcotest.failf "storm failed:@.%a" (fun ppf -> Fault.Report.pp ppf) report;
  Alcotest.(check int) "all cycles ran" 4 (List.length report.Fault.Report.cycles)

(* The overload drill: >= 10 crash cycles with every producer running
   open-loop (seeded arrivals) through the admission front under a
   quota tight enough to shed on every cycle.  Zero acknowledged loss
   and per-stream FIFO must survive the shedding — an acked-then-shed
   contradiction would surface as a verify failure — and the replay
   log stays deterministic even though shed counts are pacing-
   dependent. *)
let test_storm_admission_open_loop () =
  let cfg =
    {
      smoke_cfg with
      Load.Storm.ops_per_cycle = 40;
      admission =
        Some
          {
            (Broker.Admission.unlimited ()) with
            Broker.Admission.rate_hz = 2000.;
            burst = 8.;
            deadline_s = Some 0.5;
          };
      arrival_hz = 4000.;
    }
  in
  let seed = 0x0f10ad in
  let report = Load.Storm.run ~seed ~cycles:10 cfg in
  if not (Fault.Report.ok report) then
    Alcotest.failf "admission storm failed:@.%a"
      (fun ppf -> Fault.Report.pp ppf)
      report;
  Alcotest.(check int) "all cycles ran" 10
    (List.length report.Fault.Report.cycles);
  Alcotest.(check bool) "acked conserved across sheds" true
    (report.Fault.Report.total_acked
    = report.Fault.Report.total_consumed + report.Fault.Report.remaining);
  Alcotest.(check bool) "the quota actually bit" true
    (report.Fault.Report.total_shed > 0);
  let again = Load.Storm.run ~seed ~cycles:10 cfg in
  Alcotest.(check (list string)) "replay log identical under admission"
    (Fault.Report.replay_log report)
    (Fault.Report.replay_log again)

(* The acceptance drill: >= 20 crash cycles under >= 4-domain load
   (4 producers + 2 consumers over 4 shards), zero acknowledged loss and
   per-stream FIFO verified after every recovery, at least one
   forced-quarantine drill whose reroute and re-admission both
   happened, and a byte-identical cycle log on replay. *)
let test_storm_acceptance () =
  let cfg = Load.Storm.default_config in
  let seed = 0xACCE97 in
  let report = Load.Storm.run ~seed ~cycles:20 cfg in
  if not (Fault.Report.ok report) then
    Alcotest.failf "storm failed:@.%a" (fun ppf -> Fault.Report.pp ppf) report;
  List.iter
    (fun (c : Fault.Report.cycle) ->
      match c.check with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cycle %d: %s" c.index e)
    report.Fault.Report.cycles;
  Alcotest.(check bool) "at least one quarantine drill" true
    (report.Fault.Report.quarantine_cycles >= 1);
  Alcotest.(check bool) "every drill rerouted and readmitted" true
    (List.for_all
       (fun (c : Fault.Report.cycle) ->
         (not c.drill)
         || (c.reroute_ok = Some true && c.readmitted <> []))
       report.Fault.Report.cycles);
  let again = Load.Storm.run ~seed ~cycles:20 cfg in
  Alcotest.(check (list string)) "replay log identical"
    (Fault.Report.replay_log report) (Fault.Report.replay_log again)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [ Alcotest.test_case "deterministic expansion" `Quick
            test_plan_deterministic ] );
      ( "retry",
        [
          Alcotest.test_case "succeeds after transients" `Quick
            test_backoff_succeeds_after_transients;
          Alcotest.test_case "exhausts the attempt budget" `Quick
            test_backoff_exhausts;
          Alcotest.test_case "fatal is immediate" `Quick
            test_backoff_fatal_immediate;
          Alcotest.test_case "deadline bounds the wait" `Quick
            test_backoff_deadline;
          Alcotest.test_case "deadline clamps the sleeps" `Quick
            test_backoff_deadline_caps_sleep;
          Alcotest.test_case "sheds are fatal by default" `Quick
            test_admission_shed_not_retried;
          Alcotest.test_case "unavailable exhausts" `Quick
            test_retry_enqueue_unavailable_exhausts;
          Alcotest.test_case "batch re-batches the remainder" `Quick
            test_retry_batch_rebatches_remainder;
        ] );
      ( "storm",
        [
          Alcotest.test_case "smoke" `Quick test_storm_smoke;
          Alcotest.test_case "replay is identical" `Quick
            test_storm_replay_identical;
          Alcotest.test_case "json report" `Quick test_storm_json_roundtrip;
          Alcotest.test_case "acks leader: recovery allocates nothing" `Quick
            (test_storm_weak_acks Broker.Service.Acks_leader);
          Alcotest.test_case "acks none: recovery allocates nothing" `Quick
            (test_storm_weak_acks Broker.Service.Acks_none);
          Alcotest.test_case "admission: 10 open-loop cycles" `Slow
            test_storm_admission_open_loop;
          Alcotest.test_case "acceptance: 20 cycles under load" `Slow
            test_storm_acceptance;
        ] );
    ]
