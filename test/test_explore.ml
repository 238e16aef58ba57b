(* Mid-operation crash exploration: for every lock-free durable queue,
   run randomized fiber schedules with crashes injected between arbitrary
   persist instructions, and verify durable linearizability of the full
   history (completed + pending + post-recovery drain) with the exact
   checker.  This is the mechanised version of the paper's Sections 5-7
   case analysis. *)

let explorable =
  [
    "DurableMSQ";
    "DurableMSQ+results";
    "UnlinkedQ";
    "UnlinkedQ/local-index";
    "LinkedQ";
    "LinkedQ/no-predcut";
    "OptUnlinkedQ";
    "OptUnlinkedQ/store+flush";
    "OptLinkedQ";
    "OptLinkedQ/store+flush";
    "OptLinkedQ/no-predcut";
    "IzraelevitzQ";
    "NVTraverseQ";
    "WideUnlinkedQ";
  ]

let check_ok = function Ok () -> () | Error e -> Alcotest.fail e

let test_campaign ?policy ?(rounds = 60) name () =
  check_ok (Spec.Explore.campaign ?policy (Dq.Registry.find name) ~rounds)

(* [Explore.run]'s step count.  Each of two fibers makes three heap
   writes, so it takes four steps (a fiber's first step runs it up to
   its first primitive).  A finished run reports its eight steps, a cut
   one step short leaves a fiber unfinished, and a cut at exactly eight
   finds the run finished: the buffered campaign draws its crash points
   from this count. *)
let test_run_steps () =
  Nvm.Tid.reset ();
  Nvm.Tid.set 2;
  let heap =
    Nvm.Heap.create ~mode:Nvm.Heap.Checked ~latency:Nvm.Latency.off ()
  in
  let base =
    Nvm.Region.base_addr
      (Nvm.Heap.alloc_region heap ~tag:Nvm.Region.Node_area ~words:8)
  in
  let run crash_at =
    Spec.Explore.run ~heap
      ~rng:(Random.State.make [| 5 |])
      ~crash_at
      (Array.init 2 (fun f () ->
           for k = 0 to 2 do
             Nvm.Heap.write heap (base + (4 * f) + k) (k + 1)
           done))
  in
  Alcotest.(check (option int)) "a finished run" (Some 8) (run None);
  Alcotest.(check (option int)) "cut one step short" None (run (Some 7));
  Alcotest.(check (option int)) "cut at its last step" (Some 8) (run (Some 8))

(* A directed scenario: two racing enqueues and a racing dequeue, crashes
   swept across every step of the schedule — exhaustive in the crash
   point for a fixed seed. *)
let test_crash_sweep name () =
  let entry = Dq.Registry.find name in
  let plans =
    [|
      [ Spec.Explore.Enq 101; Spec.Explore.Enq 102 ];
      [ Spec.Explore.Enq 201 ];
      [ Spec.Explore.Deq; Spec.Explore.Deq ];
    |]
  in
  for crash_at = 1 to 80 do
    match
      Spec.Explore.explore_once entry ~seed:7 ~plans ~crash_at:(Some crash_at)
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "crash at step %d: %s" crash_at e
  done

(* Buffered tier under crash exploration: [Sync] operations mixed into
   the plans, issued commits persist-stamping the operations they cover,
   and crashed runs judged by {!Spec.Lin_check.check_crash_cut} — the
   post-recovery drain must be a linearizable prefix keeping everything
   a commit covered, with the unsynced suffix gone as a unit.  The tier
   runs no registry algorithm, so each case below runs once per crash
   policy.  All_flushed is benign (even then recovery keeps only the
   journal's committed floor), Only_persisted adversarial (nothing
   unflushed survives), Torn_prefix keeps store prefixes of the
   interrupted lines and Random_evictions random ones. *)
let buffered_policies =
  List.map
    (fun p -> (p, Nvm.Crash.policy_name p))
    [
      Nvm.Crash.All_flushed;
      Nvm.Crash.Only_persisted;
      Nvm.Crash.Torn_prefix;
      Nvm.Crash.Random_evictions;
    ]

let buffered_case pname = Dq.Buffered_q.name ^ "/" ^ pname

(* A directed buffered scenario: the sync floor swept across every crash
   point, through the point after the run finishes.  Fiber 0 syncs
   mid-plan, so crashes after that step must keep its first two
   enqueues. *)
let test_buffered_sync_sweep () =
  let plans =
    [|
      [
        Spec.Explore.Enq 101;
        Spec.Explore.Enq 102;
        Spec.Explore.Sync;
        Spec.Explore.Enq 103;
      ];
      [ Spec.Explore.Enq 201; Spec.Explore.Enq 202 ];
      [ Spec.Explore.Deq; Spec.Explore.Sync; Spec.Explore.Deq ];
    |]
  in
  check_ok
    (Spec.Explore.buffered_sweep ~policy:Nvm.Crash.Random_evictions ~seed:13
       ~plans)

(* The journal's line boundary: campaign plans seldom fill a
   seven-entry line and never wrap the ring, so this directed plan does.
   Both fibers enqueue — 20 values fill lines [0, 7) and [7, 14), then
   wrap the 14-entry ring into slots 0-5 — and each dequeues three items
   before its second run, so the backlog stays within the ring.  The
   syncs seal partial lines that later fills seal again, and the wrap
   lets a window straddle three lines of a two-line ring.  Every step
   of the schedules of seeds 1-20 is crashed: no one schedule reaches
   every interleaving (a write-behind that skips its fence fails every
   seed under Only_persisted, Torn_prefix and Random_evictions; a seal
   stored before its line's last entry fails under All_flushed). *)
let line_plans =
  let open Spec.Explore in
  let enqs lo hi = List.init (hi - lo + 1) (fun i -> Enq (lo + i)) in
  let deqs = [ Deq; Deq; Deq ] in
  [|
    enqs 1 3 @ [ Sync ] @ enqs 4 5 @ deqs @ [ Sync ] @ enqs 6 8 @ [ Sync ]
    @ enqs 9 10;
    enqs 11 12 @ [ Sync ] @ enqs 13 15 @ deqs @ [ Sync ] @ enqs 16 17
    @ [ Sync ] @ enqs 18 20;
  |]

let test_buffered_line_sweep policy () =
  for seed = 1 to 20 do
    check_ok (Spec.Explore.buffered_sweep ~policy ~seed ~plans:line_plans)
  done

(* Line commits without a sync: every commit this plan crashes across
   is a line's write-behind.  Both fibers enqueue — 20 values fill lines
   [0, 7) and [7, 14), then wrap the 14-entry ring into slots 0-5 — and
   each dequeues three items mid-plan, so the backlog stays within the
   ring and the write-behinds carry the dequeues' consumed count.
   Every step of the schedules of seeds 1-20 is crashed. *)
let line_commit_plans =
  let open Spec.Explore in
  let enqs lo hi = List.init (hi - lo + 1) (fun i -> Enq (lo + i)) in
  let deqs = [ Deq; Deq; Deq ] in
  [| enqs 1 6 @ deqs @ enqs 7 10; enqs 11 16 @ deqs @ enqs 17 20 |]

let test_line_commit_sweep policy () =
  for seed = 1 to 20 do
    check_ok
      (Spec.Explore.buffered_sweep ~policy ~seed ~plans:line_commit_plans)
  done

(* Per-op fence audit under explored interleavings.  [explore_once]
   audits every run's span aggregates ({!Spec.Fence_audit}), so any
   schedule in which some interleaved operation issued a second fence
   (or an Opt queue touched flushed content) fails the exploration even
   when the history itself linearizes.  Here the audited queues get a
   directed interleaving plus a crash sweep — the bound must also hold
   for operations cut short and re-run across a recovery. *)
let audited_queues =
  List.filter Spec.Fence_audit.audited
    [ "UnlinkedQ"; "LinkedQ"; "OptUnlinkedQ"; "OptLinkedQ"; "ONLL-Q" ]

let test_audited_interleaving name () =
  let entry = Dq.Registry.find name in
  let plans =
    [|
      [ Spec.Explore.Enq 1; Spec.Explore.Deq; Spec.Explore.Enq 2 ];
      [ Spec.Explore.Enq 3; Spec.Explore.Enq 4; Spec.Explore.Deq ];
      [ Spec.Explore.Deq; Spec.Explore.Enq 5 ];
    |]
  in
  for seed = 1 to 25 do
    match Spec.Explore.explore_once entry ~seed ~plans ~crash_at:None with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done;
  for crash_at = 1 to 60 do
    match
      Spec.Explore.explore_once entry ~seed:11 ~plans ~crash_at:(Some crash_at)
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "crash at step %d: %s" crash_at e
  done

let test_audit_coverage () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " audited") true
        (Spec.Fence_audit.audited name))
    [ "UnlinkedQ"; "LinkedQ"; "OptUnlinkedQ"; "OptLinkedQ"; "ONLL-Q" ];
  (* Queues the paper does not bound per-op must not be rejected. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " unaudited") false
        (Spec.Fence_audit.audited name))
    [ "DurableMSQ"; "IzraelevitzQ"; "NVTraverseQ"; "RomulusQ" ]

let () =
  Alcotest.run "explore"
    [
      ( "campaign",
        List.map
          (fun name -> Alcotest.test_case name `Slow (test_campaign name))
          explorable );
      (* The adversarial end of the crash model: every line reverts to
         its persisted watermark — nothing unflushed survives.  Distinct
         from Random_evictions (the default above), which keeps random
         store prefixes. *)
      ( "campaign-only-persisted",
        List.map
          (fun name ->
            Alcotest.test_case name `Slow
              (test_campaign ~policy:Nvm.Crash.Only_persisted ~rounds:40 name))
          explorable );
      ( "crash-sweep",
        List.map
          (fun name -> Alcotest.test_case name `Slow (test_crash_sweep name))
          explorable );
      ( "campaign-buffered",
        List.map
          (fun (policy, pname) ->
            Alcotest.test_case (buffered_case pname) `Slow (fun () ->
                check_ok (Spec.Explore.buffered_campaign ~policy ~rounds:30)))
          buffered_policies );
      ( "buffered-sync-sweep",
        [
          Alcotest.test_case Dq.Buffered_q.name `Slow test_buffered_sync_sweep;
        ] );
      ( "buffered-line-sweep",
        List.map
          (fun (policy, pname) ->
            Alcotest.test_case (buffered_case pname) `Slow
              (test_buffered_line_sweep policy))
          buffered_policies );
      ( "buffered-line-commit-sweep",
        List.map
          (fun (policy, pname) ->
            Alcotest.test_case (buffered_case pname) `Slow
              (test_line_commit_sweep policy))
          buffered_policies );
      ( "run",
        [ Alcotest.test_case "a finished run counts its steps" `Quick
            test_run_steps ] );
      ( "fence-audit",
        Alcotest.test_case "audited set matches the paper" `Quick
          test_audit_coverage
        :: List.filter_map
             (fun name ->
               (* ONLL spins on a volatile owner word; the single-threaded
                  fiber scheduler cannot explore it (see explore.mli). *)
               if List.mem name explorable then
                 Some
                   (Alcotest.test_case name `Slow
                      (test_audited_interleaving name))
               else None)
             audited_queues );
    ]
