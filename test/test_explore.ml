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

let test_campaign ?policy ?buffered ?(rounds = 60) name () =
  match
    Spec.Explore.campaign ?policy ?buffered (Dq.Registry.find name) ~rounds
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

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
   a commit covered, with the unsynced suffix gone as a unit.  The three
   policies bracket the crash model: All_flushed (benign — even then the
   mirror is volatile, so only the journal floor survives),
   Only_persisted (adversarial: nothing unflushed survives) and
   Torn_prefix (store prefixes of the interrupted lines). *)
let buffered_explorable = [ "OptUnlinkedQ"; "UnlinkedQ"; "DurableMSQ" ]

(* A directed buffered scenario: the sync floor swept across every crash
   point.  Fiber 0 syncs mid-plan, so crashes after that step must keep
   its first two enqueues; the watermark (4) adds commits of its own. *)
let test_buffered_sync_sweep name () =
  let entry = Dq.Registry.find name in
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
  for crash_at = 1 to 80 do
    match
      Spec.Explore.explore_once ~buffered:true entry ~seed:13 ~plans
        ~crash_at:(Some crash_at)
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "crash at step %d: %s" crash_at e
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
        List.concat_map
          (fun (policy, pname) ->
            List.map
              (fun name ->
                Alcotest.test_case
                  (Printf.sprintf "%s/%s" name pname)
                  `Slow
                  (test_campaign ~policy ~buffered:true ~rounds:30 name))
              buffered_explorable)
          [
            (Nvm.Crash.All_flushed, "all-flushed");
            (Nvm.Crash.Only_persisted, "only-persisted");
            (Nvm.Crash.Torn_prefix, "torn-prefix");
          ] );
      ( "buffered-sync-sweep",
        List.map
          (fun name ->
            Alcotest.test_case name `Slow (test_buffered_sync_sweep name))
          buffered_explorable );
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
