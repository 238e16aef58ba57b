(* Tests for the buffered-durability tier: the group-commit journal
   queue (lib/core/buffered_q.ml) — watermark commits, the explicit
   [sync] boundary, line commits on an idle device, journal-floor
   recovery that allocates nothing, ring-full refusal, claim-by-CAS
   dequeues under slot reuse — and the
   broker's per-stream acks levels mapped onto it: tier routing, level
   validation, sync verdicts, and a full-system crash recovering exactly
   the synced floor. *)

let fresh_tid () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ())

let fresh_heap ?(mode = Nvm.Heap.Checked) () =
  fresh_tid ();
  Nvm.Heap.create ~mode ~latency:Nvm.Latency.off ()

let make_buffered ?watermark ?capacity ?join_commits ?(mode = Nvm.Heap.Checked)
    () =
  let heap = fresh_heap ~mode () in
  (heap, Dq.Buffered_q.create ?watermark ?capacity ?join_commits heap)

(* Fences that drain on a wall-clock device, one line in [line_ms]
   milliseconds ({!Nvm.Latency.dimm_wall}, rescaled): the device the
   line-commit rule observes. *)
let wall_latency ~line_ms =
  {
    Nvm.Latency.dimm_wall with
    Nvm.Latency.fence_per_flush_ns = line_ms * 1_000_000;
  }

let wall_heap ~line_ms =
  fresh_tid ();
  Nvm.Heap.create ~mode:Nvm.Heap.Checked ~latency:(wall_latency ~line_ms) ()

let line_s ~line_ms = float_of_int line_ms *. 1e-3

let enqueue_range ?join b lo hi =
  for v = lo to hi do
    Dq.Buffered_q.enqueue ?join b v
  done

(* Queue [lines] line drains on [heap]'s device from a spare region;
   the device reads busy until the returned ticket's deadline. *)
let queue_drains heap ~lines =
  let base =
    Nvm.Region.base_addr
      (Nvm.Heap.alloc_region heap ~tag:Nvm.Region.Node_area
         ~words:(lines * Nvm.Line.words_per_line))
  in
  for k = 0 to lines - 1 do
    let a = base + (k * Nvm.Line.words_per_line) in
    Nvm.Heap.write heap a 1;
    Nvm.Heap.flush heap a
  done;
  Nvm.Heap.sfence_split heap

let span_count heap label =
  match Nvm.Span.find_aggregate (Nvm.Heap.spans heap) label with
  | None -> 0
  | Some a -> a.Nvm.Span.count

(* -- Buffered_q: group commits ---------------------------------------------- *)

let test_watermark_commit () =
  let _, b = make_buffered ~watermark:4 () in
  for v = 1 to 3 do
    Dq.Buffered_q.enqueue b v
  done;
  Alcotest.(check int) "below watermark: no commit" 0
    (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "lag is the uncommitted tail" 3
    (Dq.Buffered_q.durability_lag b);
  Dq.Buffered_q.enqueue b 4;
  Alcotest.(check int) "watermark trips the commit" 4
    (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "lag paid down" 0 (Dq.Buffered_q.durability_lag b);
  let s = Dq.Buffered_q.stats b in
  Alcotest.(check int) "one commit" 1 s.Dq.Buffered_q.s_commits;
  Alcotest.(check int) "no explicit sync" 0 s.Dq.Buffered_q.s_syncs

let test_sync_boundary () =
  let _, b = make_buffered ~watermark:64 () in
  Dq.Buffered_q.enqueue b 1;
  Dq.Buffered_q.enqueue b 2;
  Alcotest.(check int) "unsynced" 2 (Dq.Buffered_q.durability_lag b);
  Dq.Buffered_q.sync b;
  Alcotest.(check int) "sync commits everything" 2
    (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "lag zero after sync" 0 (Dq.Buffered_q.durability_lag b);
  let s = Dq.Buffered_q.stats b in
  Alcotest.(check int) "sync counted" 1 s.Dq.Buffered_q.s_syncs;
  (* A sync with nothing new still covers the consumed counter. *)
  ignore (Dq.Buffered_q.dequeue b);
  Dq.Buffered_q.sync b;
  Alcotest.(check int) "consumed covered" 1
    (Dq.Buffered_q.committed_consumed b)

let test_join_override () =
  (* join only changes whether the producer waits for the drain; the
     commit itself (and the floor) is identical either way. *)
  let _, b = make_buffered ~watermark:4 ~join_commits:false () in
  for v = 1 to 4 do
    Dq.Buffered_q.enqueue ~join:(v mod 2 = 0) b v
  done;
  Alcotest.(check int) "floor advanced regardless of join" 4
    (Dq.Buffered_q.committed_floor b)

let test_queue_semantics () =
  let _, b = make_buffered ~watermark:8 () in
  for v = 10 to 15 do
    Dq.Buffered_q.enqueue b v
  done;
  Alcotest.(check (option int)) "FIFO head" (Some 10) (Dq.Buffered_q.dequeue b);
  Alcotest.(check (option int)) "FIFO next" (Some 11) (Dq.Buffered_q.dequeue b);
  let q = Dq.Buffered_q.instance b in
  Alcotest.(check (list int)) "live entries" [ 12; 13; 14; 15 ]
    (q.Dq.Queue_intf.to_list ());
  Alcotest.(check string) "tier name" Dq.Buffered_q.name q.Dq.Queue_intf.name

let test_journal_full () =
  let _, b = make_buffered ~watermark:1024 ~capacity:8 () in
  for v = 1 to 8 do
    Dq.Buffered_q.enqueue b v
  done;
  (* Nothing consumed: the 9th append would overwrite a live slot. *)
  (try
     Dq.Buffered_q.enqueue b 9;
     Alcotest.fail "full ring accepted an append"
   with Dq.Buffered_q.Journal_full -> ());
  (* Consuming and committing (so the *committed* consumed floor moves)
     frees the slot. *)
  ignore (Dq.Buffered_q.dequeue b);
  Dq.Buffered_q.sync b;
  Dq.Buffered_q.enqueue b 9;
  Alcotest.(check int) "append resumed" 9 (Dq.Buffered_q.appended b)

(* Ring slots must line up with cache lines: a line-full append writes
   its line behind, and the meta word needs a line of its own. *)
let test_capacity_line_aligned () =
  List.iter
    (fun capacity ->
      match make_buffered ~capacity () with
      | _ -> Alcotest.failf "capacity %d accepted" capacity
      | exception Invalid_argument _ -> ())
    [ 4; 12; 20 ];
  let _, b = make_buffered ~capacity:16 () in
  for v = 1 to 16 do
    Dq.Buffered_q.enqueue b v
  done;
  Alcotest.(check int) "16-entry ring takes 16" 16 (Dq.Buffered_q.appended b)

(* A thread whose fences are absorbed (a combining pass over the tier)
   writes nothing behind: another thread's commit must then persist the
   line itself rather than trust a fence that has not been issued. *)
let test_absorbed_write_behind () =
  let heap, b = make_buffered ~watermark:64 () in
  let spans = Nvm.Heap.spans heap in
  let tid0 = Nvm.Tid.get () in
  Nvm.Heap.with_batched_fences heap (fun () ->
      for v = 1 to 8 do
        Dq.Buffered_q.enqueue b v
      done;
      Alcotest.(check bool) "no write-behind under absorbed fences" true
        (Nvm.Span.find_aggregate spans Dq.Instrumented.write_behind_label
        = None);
      Nvm.Tid.set (Nvm.Tid.register ());
      Dq.Buffered_q.sync b;
      Nvm.Tid.set tid0);
  match Nvm.Span.find_aggregate spans Dq.Instrumented.sync_label with
  | None -> Alcotest.fail "no commit span"
  | Some a ->
      Alcotest.(check int) "the commit flushes the line and the meta word" 2
        a.Nvm.Span.sum.Nvm.Stats.flushes;
      Alcotest.(check int) "and fences both" 2 a.Nvm.Span.sum.Nvm.Stats.fences

let test_on_commit_callback () =
  let _, b = make_buffered ~watermark:2 () in
  let seen = ref [] in
  Dq.Buffered_q.set_on_commit b
    (Some (fun ~floor ~consumed ~drain:_ -> seen := (floor, consumed) :: !seen));
  for v = 1 to 4 do
    Dq.Buffered_q.enqueue b v
  done;
  ignore (Dq.Buffered_q.dequeue b);
  Dq.Buffered_q.sync b;
  Alcotest.(check (list (pair int int)))
    "snapshots in commit order"
    [ (4, 1); (4, 0); (2, 0) ]
    !seen

(* [sync] counts itself under the append lock: two domains syncing at
   once lose no count. *)
let test_concurrent_syncs_count () =
  let _, b = make_buffered ~mode:Nvm.Heap.Fast () in
  let per = 20_000 in
  let ready = Atomic.make 0 in
  let syncer w =
    Domain.spawn (fun () ->
        Nvm.Tid.set (1 + w);
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        for _ = 1 to per do
          Dq.Buffered_q.sync b
        done)
  in
  List.iter Domain.join [ syncer 0; syncer 1 ];
  Alcotest.(check int) "every sync counted" (2 * per)
    (Dq.Buffered_q.stats b).Dq.Buffered_q.s_syncs

(* -- Buffered_q: line commits ------------------------------------------------

   An append that fills a journal line without tripping the watermark
   commits at once, behind the line's write-behind, when the heap's
   device has nothing queued, the line took at least one line drain to
   fill, and the caller's fences are not absorbed. *)

(* A line filled slowly on an idle device commits at once: the floor
   moves to the line's end, and the commit's ticket completes after the
   line's drain and then the meta word's. *)
let test_line_commit_on_idle_device () =
  let line_ms = 2 in
  let heap = wall_heap ~line_ms in
  let b = Dq.Buffered_q.create ~watermark:64 ~capacity:64 heap in
  let seen = ref [] in
  Dq.Buffered_q.set_on_commit b
    (Some
       (fun ~floor ~consumed ~drain ->
         seen := (floor, consumed, Nvm.Heap.drain_deadline drain) :: !seen));
  Dq.Buffered_q.enqueue b 1;
  Unix.sleepf (1.5 *. line_s ~line_ms);
  enqueue_range b 2 7;
  Alcotest.(check int) "no commit mid-line" 0 (Dq.Buffered_q.committed_floor b);
  let before = Unix.gettimeofday () in
  Dq.Buffered_q.enqueue b 8;
  Alcotest.(check int) "the floor moves to the line's end" 8
    (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "no lag" 0 (Dq.Buffered_q.durability_lag b);
  Alcotest.(check int) "one line commit" 1
    (span_count heap Dq.Instrumented.line_commit_label);
  Alcotest.(check int) "not a sync span" 0
    (span_count heap Dq.Instrumented.sync_label);
  let s = Dq.Buffered_q.stats b in
  Alcotest.(check int) "counted as a commit" 1 s.Dq.Buffered_q.s_commits;
  Alcotest.(check int) "no sync" 0 s.Dq.Buffered_q.s_syncs;
  match !seen with
  | [ (floor, consumed, deadline) ] ->
      Alcotest.(check (pair int int)) "the callback's snapshot" (8, 0)
        (floor, consumed);
      Alcotest.(check bool) "ticket after the line and the meta drain" true
        (deadline >= before +. (2. *. line_s ~line_ms) -. 1e-6)
  | l -> Alcotest.failf "%d commit callbacks" (List.length l)

(* A line filled back to back — faster than the device drains a line —
   is written behind but does not commit: the floor waits for the
   watermark. *)
let test_fast_line_waits_for_watermark () =
  let heap = wall_heap ~line_ms:200 in
  let b =
    Dq.Buffered_q.create ~watermark:16 ~capacity:64 ~join_commits:false heap
  in
  enqueue_range b 1 8;
  Alcotest.(check int) "the line is written behind" 1
    (span_count heap Dq.Instrumented.write_behind_label);
  Alcotest.(check int) "but not committed" 0 (Dq.Buffered_q.committed_floor b);
  enqueue_range b 9 16;
  Alcotest.(check int) "the watermark commits" 16
    (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "one commit, no line commit" 1
    (Dq.Buffered_q.stats b).Dq.Buffered_q.s_commits;
  Alcotest.(check int) "no line-commit span" 0
    (span_count heap Dq.Instrumented.line_commit_label)

(* A line filled slowly while another drain is queued on the same heap
   does not commit; once the device has drained, the next slow line
   does. *)
let test_busy_device_defers_line () =
  let line_ms = 2 in
  let heap = wall_heap ~line_ms in
  let b = Dq.Buffered_q.create ~watermark:64 ~capacity:64 heap in
  Dq.Buffered_q.enqueue b 1;
  Unix.sleepf (1.5 *. line_s ~line_ms);
  ignore (queue_drains heap ~lines:100);
  enqueue_range b 2 8;
  Alcotest.(check int) "written behind" 1
    (span_count heap Dq.Instrumented.write_behind_label);
  Alcotest.(check int) "no commit behind a queued drain" 0
    (Dq.Buffered_q.committed_floor b);
  while not (Nvm.Heap.device_idle heap) do
    Unix.sleepf 1e-3
  done;
  Dq.Buffered_q.enqueue b 9;
  Unix.sleepf (1.5 *. line_s ~line_ms);
  enqueue_range b 10 16;
  Alcotest.(check int) "the idle device commits the next line" 16
    (Dq.Buffered_q.committed_floor b)

(* No line commit under absorbed fences (a combining pass): the line is
   not written behind, so there is nothing to commit behind.  Outside
   the scope the next line commits (the device of [Latency.off] always
   idles, and its lines need no time to fill). *)
let test_absorbed_fences_no_line_commit () =
  let heap, b = make_buffered ~watermark:64 () in
  Nvm.Heap.with_batched_fences heap (fun () -> enqueue_range b 1 8);
  Alcotest.(check int) "no commit under absorbed fences" 0
    (Dq.Buffered_q.stats b).Dq.Buffered_q.s_commits;
  Alcotest.(check int) "the floor stays" 0 (Dq.Buffered_q.committed_floor b);
  enqueue_range b 9 16;
  Alcotest.(check int) "outside the scope the line commits" 16
    (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "one line commit" 1
    (span_count heap Dq.Instrumented.line_commit_label)

(* An acks=leader enqueue ([~join:true]) never joins a line commit: it
   issues the commit and returns without a "drain:join", while one that
   trips the watermark joins its commit. *)
let test_leader_never_joins_line_commit () =
  let line_ms = 20 in
  let heap = wall_heap ~line_ms in
  let spans = Nvm.Heap.spans heap in
  Nvm.Span.set_tracing spans ~capacity:256;
  let joins () =
    List.length
      (List.filter
         (fun (c : Nvm.Span.closed) -> c.Nvm.Span.instant && c.label = "drain:join")
         (Nvm.Span.trace spans))
  in
  let b = Dq.Buffered_q.create ~watermark:16 ~capacity:64 heap in
  Dq.Buffered_q.enqueue ~join:true b 1;
  Unix.sleepf (1.5 *. line_s ~line_ms);
  enqueue_range ~join:true b 2 8;
  Alcotest.(check int) "the line committed" 8 (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "without a join" 0 (joins ());
  enqueue_range ~join:true b 9 24;
  Alcotest.(check int) "the watermark commit" 24
    (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "is joined" 1 (joins ())

(* Claim-by-CAS dequeues under slot reuse: two producers and two
   consumers on a 16-slot ring.  A producer that meets a full ring syncs
   (moving the committed consumed floor) and retries, so every slot is
   reused hundreds of times while the consumers race for entries.  Each
   enqueued value must come out or remain exactly once, and each
   consumer must see each producer's values in order. *)
let test_ring_reuse_stress () =
  let _, b = make_buffered ~capacity:16 ~watermark:4 ~mode:Nvm.Heap.Fast () in
  let producers = 2 and consumers = 2 and per = 4_000 in
  let producing = Atomic.make producers in
  let logs =
    Array.make (producers + consumers)
      { Spec.Durable_check.enqueued = []; dequeued = [] }
  in
  let produce w =
    let values =
      List.init per (fun i ->
          Spec.Durable_check.encode ~producer:w ~seq:(i + 1))
    in
    List.iter
      (fun v ->
        let rec put () =
          match Dq.Buffered_q.enqueue b v with
          | () -> ()
          | exception Dq.Buffered_q.Journal_full ->
              Dq.Buffered_q.sync b;
              put ()
        in
        put ())
      values;
    Atomic.decr producing;
    { Spec.Durable_check.enqueued = values; dequeued = [] }
  in
  let consume () =
    let rec go acc =
      match Dq.Buffered_q.dequeue b with
      | Some v -> go (v :: acc)
      | None when Atomic.get producing > 0 ->
          Domain.cpu_relax ();
          go acc
      | None -> List.rev acc
    in
    { Spec.Durable_check.enqueued = []; dequeued = go [] }
  in
  let workers =
    List.init (producers + consumers) (fun w ->
        Domain.spawn (fun () ->
            Nvm.Tid.set (1 + w);
            logs.(w) <- (if w < producers then produce w else consume ())))
  in
  List.iter Domain.join workers;
  let remaining = (Dq.Buffered_q.instance b).Dq.Queue_intf.to_list () in
  Alcotest.(check bool) "the ring wrapped many times" true
    (Dq.Buffered_q.appended b >= producers * per);
  match Spec.Durable_check.check ~remaining logs with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* A dequeue claims its entry with one CAS on a volatile count and reads
   the volatile copy of the ring: it makes no NVM access at all — in
   particular it never reads a written-behind journal line back, which
   the census would bill as a post-flush access. *)
let test_dequeue_touches_no_nvm () =
  let heap, b = make_buffered ~watermark:64 () in
  for v = 1 to 64 do
    Dq.Buffered_q.enqueue b v
  done;
  let before = Nvm.Stats.snapshot (Nvm.Heap.stats heap) in
  for v = 1 to 64 do
    Alcotest.(check (option int)) "FIFO" (Some v) (Dq.Buffered_q.dequeue b)
  done;
  Alcotest.(check (option int)) "then empty" None (Dq.Buffered_q.dequeue b);
  let d = Nvm.Stats.diff_total (Nvm.Heap.stats heap) ~since:before in
  List.iter
    (fun (what, n) -> Alcotest.(check int) what 0 n)
    [
      ("reads", d.Nvm.Stats.reads);
      ("writes", d.Nvm.Stats.writes);
      ("cas", d.Nvm.Stats.cas);
      ("flushes", d.Nvm.Stats.flushes);
      ("fences", d.Nvm.Stats.fences);
      ("post-flush accesses", Nvm.Stats.post_flush_accesses d);
    ]

(* Racing claims count exactly: two domains, released together, drain
   one backlog; each entry goes to exactly one of them, and [consumed] —
   and the consumed floor the next commit publishes — equals the entries
   they took. *)
let test_racing_claims_count_exactly () =
  let n = 60_000 in
  let _, b = make_buffered ~watermark:n ~mode:Nvm.Heap.Fast () in
  for v = 1 to n do
    Dq.Buffered_q.enqueue b v
  done;
  let ready = Atomic.make 0 in
  let drain w =
    Domain.spawn (fun () ->
        Nvm.Tid.set (1 + w);
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        let rec go acc =
          match Dq.Buffered_q.dequeue b with
          | Some v -> go (v :: acc)
          | None -> acc
        in
        go [])
  in
  let taken = List.concat_map Domain.join [ drain 0; drain 1 ] in
  Alcotest.(check (list int)) "each entry claimed once" (List.init n succ)
    (List.sort compare taken);
  Alcotest.(check int) "consumed is exact" n (Dq.Buffered_q.consumed b);
  Dq.Buffered_q.sync b;
  Alcotest.(check int) "and so is the committed floor" n
    (Dq.Buffered_q.committed_consumed b)

(* -- Buffered_q: crash keeps exactly the synced floor ------------------------ *)

let crash ?(policy = Nvm.Crash.Only_persisted) heap seed =
  let rng = Random.State.make [| seed |] in
  Nvm.Crash.crash ~rng ~policy heap;
  fresh_tid ()

let test_recover_floor () =
  let heap, b = make_buffered ~watermark:4 () in
  for v = 1 to 6 do
    Dq.Buffered_q.enqueue b v
  done;
  (* floor 4 (one watermark commit); 5 and 6 are the unsynced tail. *)
  crash heap 42;
  Dq.Buffered_q.recover b;
  let q = Dq.Buffered_q.instance b in
  Alcotest.(check (list int)) "exactly the committed prefix" [ 1; 2; 3; 4 ]
    (q.Dq.Queue_intf.to_list ());
  Alcotest.(check int) "appended reset to floor" 4 (Dq.Buffered_q.appended b);
  Alcotest.(check int) "no residual lag" 0 (Dq.Buffered_q.durability_lag b)

let test_recover_consumed () =
  (* A synced dequeue must not be replayed; an unsynced one must be. *)
  let heap, b = make_buffered ~watermark:64 () in
  for v = 1 to 4 do
    Dq.Buffered_q.enqueue b v
  done;
  ignore (Dq.Buffered_q.dequeue b);
  Dq.Buffered_q.sync b (* covers enqueues 1-4 and the dequeue of 1 *);
  ignore (Dq.Buffered_q.dequeue b) (* unsynced: crash replays 2 *);
  crash heap 7;
  Dq.Buffered_q.recover b;
  let q = Dq.Buffered_q.instance b in
  Alcotest.(check (list int)) "synced dequeue stays consumed" [ 2; 3; 4 ]
    (q.Dq.Queue_intf.to_list ())

let test_recover_after_sync_keeps_all () =
  let heap, b = make_buffered ~watermark:1024 () in
  for v = 1 to 10 do
    Dq.Buffered_q.enqueue b v
  done;
  Dq.Buffered_q.sync b;
  crash heap 3;
  Dq.Buffered_q.recover b;
  let q = Dq.Buffered_q.instance b in
  Alcotest.(check (list int)) "sync means survives"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (q.Dq.Queue_intf.to_list ())

(* Recovery over a wrapped ring: the live entries straddle the ring's
   end, and the meta word's floor and consumed count are past its
   capacity.  Recovery must bring back exactly the synced live entries,
   in order, matching the persisted journal; appends after it fill the
   ring on from the floor and survive the next crash once synced. *)
let test_recover_wrapped_ring () =
  let heap, b = make_buffered ~capacity:16 ~watermark:64 () in
  for round = 0 to 4 do
    for k = 1 to 8 do
      Dq.Buffered_q.enqueue b ((10 * round) + k)
    done;
    for _ = 1 to 8 do
      ignore (Dq.Buffered_q.dequeue b)
    done;
    Dq.Buffered_q.sync b
  done;
  (* 40 entries appended and consumed: the next ten take slots 8-15 and
     0-1. *)
  for v = 101 to 110 do
    Dq.Buffered_q.enqueue b v
  done;
  for _ = 1 to 3 do
    ignore (Dq.Buffered_q.dequeue b)
  done;
  Dq.Buffered_q.sync b;
  Dq.Buffered_q.enqueue b 111 (* unsynced: lost *);
  crash heap 5;
  Dq.Buffered_q.recover b;
  let live () = (Dq.Buffered_q.instance b).Dq.Queue_intf.to_list () in
  let range lo hi = List.init (hi - lo + 1) (fun k -> lo + k) in
  Alcotest.(check (list int)) "the synced live entries" (range 104 110)
    (live ());
  Alcotest.(check int) "consumed from the meta word" 43
    (Dq.Buffered_q.consumed b);
  Alcotest.(check int) "appended from the meta word" 50
    (Dq.Buffered_q.appended b);
  for i = 43 to 49 do
    Alcotest.(check int)
      (Printf.sprintf "journal entry %d" i)
      (61 + i)
      (Dq.Buffered_q.journal_value b i)
  done;
  (* Nine more fill the ring: 16 live entries. *)
  for v = 112 to 120 do
    Dq.Buffered_q.enqueue b v
  done;
  Dq.Buffered_q.sync b;
  crash heap 6;
  Dq.Buffered_q.recover b;
  Alcotest.(check (list int)) "a full wrapped ring survives"
    (range 104 110 @ range 112 120)
    (live ());
  List.iter
    (fun v ->
      Alcotest.(check (option int)) "FIFO after recovery" (Some v)
        (Dq.Buffered_q.dequeue b))
    (range 104 110 @ range 112 120)

(* A line written behind beyond the floor is discarded, and its entries
   are appended over.  Before the crash the journal's first line fills
   (and is written behind) above a floor of 4 — with a drain queued on
   the heap's device, so the fill issues no line commit; recovery drops
   entries 4-7, and the appends that refill them must persist the line
   again — a write-behind or commit that trusted the old line's flush
   would leave the dropped values 5-8 to come back. *)
let test_recover_then_refill_line () =
  let heap = wall_heap ~line_ms:1 in
  let b = Dq.Buffered_q.create ~watermark:64 heap in
  for v = 1 to 4 do
    Dq.Buffered_q.enqueue b v
  done;
  Dq.Buffered_q.sync b;
  ignore (queue_drains heap ~lines:200);
  for v = 5 to 12 do
    Dq.Buffered_q.enqueue b v
  done;
  crash heap 11;
  Dq.Buffered_q.recover b;
  let live () = (Dq.Buffered_q.instance b).Dq.Queue_intf.to_list () in
  Alcotest.(check (list int)) "the floor" [ 1; 2; 3; 4 ] (live ());
  for v = 13 to 16 do
    Dq.Buffered_q.enqueue b v
  done;
  Dq.Buffered_q.sync b;
  crash heap 12;
  Dq.Buffered_q.recover b;
  Alcotest.(check (list int)) "the refilled line survives"
    [ 1; 2; 3; 4; 13; 14; 15; 16 ]
    (live ())

(* Another thread's commit may count a line its filler wrote behind
   without committing it (the device was busy): the commit trusts the
   filler's write-behind fence, so the line must survive every crash
   policy.  The filler appends one line on a busy device; a second
   thread appends four more and trips the watermark, committing the
   filler's line with its own tail. *)
let test_commit_covers_written_behind_line () =
  List.iter
    (fun policy ->
      for seed = 1 to 5 do
        let heap = wall_heap ~line_ms:1 in
        let b =
          Dq.Buffered_q.create ~watermark:12 ~capacity:64 ~join_commits:false
            heap
        in
        ignore (queue_drains heap ~lines:1000);
        enqueue_range b 1 8;
        Alcotest.(check int) "written behind, not committed" 0
          (Dq.Buffered_q.committed_floor b);
        let filler = Nvm.Tid.get () in
        Nvm.Tid.set (Nvm.Tid.register ());
        enqueue_range b 9 12;
        Nvm.Tid.set filler;
        Alcotest.(check int) "the other thread's commit counts the line" 12
          (Dq.Buffered_q.committed_floor b);
        crash ~policy heap seed;
        Dq.Buffered_q.recover b;
        Alcotest.(check (list int))
          (Printf.sprintf "the line survives (%s, seed %d)"
             (Nvm.Crash.policy_name policy) seed)
          (List.init 12 succ)
          ((Dq.Buffered_q.instance b).Dq.Queue_intf.to_list ())
      done)
    [
      Nvm.Crash.All_flushed;
      Nvm.Crash.Only_persisted;
      Nvm.Crash.Torn_prefix;
      Nvm.Crash.Random_evictions;
    ]

(* Recovery allocates nothing: the journal region is the tier's whole
   NVM footprint.  A thousand cycles of enqueue 10, dequeue 10, sync, a
   crash and recovery must leave the live-region count at or below where
   the first cycle left it. *)
let test_recover_allocates_nothing () =
  let heap, b = make_buffered () in
  let live () = Nvm.Stats.live_regions (Nvm.Heap.occupancy heap) in
  let after_first = ref 0 in
  for cycle = 1 to 1_000 do
    for v = 1 to 10 do
      Dq.Buffered_q.enqueue b v
    done;
    for _ = 1 to 10 do
      ignore (Dq.Buffered_q.dequeue b)
    done;
    Dq.Buffered_q.sync b;
    crash ~policy:Nvm.Crash.All_flushed heap cycle;
    Dq.Buffered_q.recover b;
    if cycle = 1 then after_first := live ()
    else if live () > !after_first then
      Alcotest.failf "cycle %d: %d live regions, %d after cycle 1" cycle
        (live ()) !after_first
  done

(* -- Service: per-stream acks levels ----------------------------------------- *)

let enc = Spec.Durable_check.encode

let weak_service ?(acks = Broker.Service.Acks_leader) () =
  fresh_tid ();
  Broker.Service.create ~shards:2 ~mode:Nvm.Heap.Checked ~acks ()

let test_acks_names () =
  List.iter
    (fun l ->
      Alcotest.(check bool) "name roundtrip" true
        (Broker.Service.acks_of_name (Broker.Service.acks_name l) = l))
    [
      Broker.Service.Acks_none;
      Broker.Service.Acks_leader;
      Broker.Service.Acks_all_synced;
    ];
  (try
     ignore (Broker.Service.acks_of_name "bogus");
     Alcotest.fail "bogus level accepted"
   with Invalid_argument _ -> ())

let test_tier_wiring () =
  let strict = (fresh_tid (); Broker.Service.create ~shards:1 ()) in
  Alcotest.(check bool) "strict default: no tier" false
    (Broker.Service.buffered_tier strict);
  (* Weak default level without the tier is refused outright. *)
  (try
     fresh_tid ();
     ignore (Broker.Service.create ~acks:Broker.Service.Acks_leader
               ~buffered:false ());
     Alcotest.fail "weak acks without tier accepted"
   with Invalid_argument _ -> ());
  let weak = weak_service () in
  Alcotest.(check bool) "weak default: tier present" true
    (Broker.Service.buffered_tier weak);
  (* Per-stream overrides on a strict service need the tier too. *)
  (try
     Broker.Service.set_stream_acks strict ~stream:0 Broker.Service.Acks_none;
     Alcotest.fail "weak stream level without tier accepted"
   with Invalid_argument _ -> ());
  Broker.Service.set_stream_acks weak ~stream:3 Broker.Service.Acks_all_synced;
  Alcotest.(check string) "stream override" "all-synced"
    (Broker.Service.acks_name (Broker.Service.stream_acks weak ~stream:3));
  Alcotest.(check string) "others keep the default" "leader"
    (Broker.Service.acks_name (Broker.Service.stream_acks weak ~stream:4))

let test_tiered_fifo_and_sync () =
  let service = weak_service () in
  for seq = 1 to 20 do
    match Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq) with
    | Broker.Backpressure.Accepted -> ()
    | v -> Alcotest.failf "enqueue: %s" (Broker.Backpressure.verdict_name v)
  done;
  Alcotest.(check bool) "buffered tier carries a lag" true
    (Broker.Service.total_durability_lag service > 0);
  (match Broker.Service.sync_stream service ~stream:0 with
  | Broker.Backpressure.Accepted -> ()
  | v -> Alcotest.failf "sync_stream: %s" (Broker.Backpressure.verdict_name v));
  Alcotest.(check int) "stream's shard synced" 0
    (Broker.Service.durability_lags service).(Broker.Service.shard_of_stream
                                                service ~stream:0);
  Broker.Service.sync_all service;
  Alcotest.(check int) "all synced" 0
    (Broker.Service.total_durability_lag service);
  (* FIFO through the buffered tier. *)
  for seq = 1 to 20 do
    match Broker.Service.dequeue service ~stream:0 with
    | Broker.Service.Item v ->
        Alcotest.(check int) "FIFO seq" seq (Spec.Durable_check.seq_of v)
    | _ -> Alcotest.fail "expected an item"
  done

let test_sync_quarantined () =
  let service = weak_service () in
  ignore (Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq:1));
  let shard = Broker.Service.shard_of_stream service ~stream:0 in
  Broker.Service.quarantine service ~shard ~reason:"drill";
  (match Broker.Service.sync_stream service ~stream:0 with
  | Broker.Backpressure.Unavailable -> ()
  | v ->
      Alcotest.failf "quarantined sync: %s" (Broker.Backpressure.verdict_name v));
  Broker.Service.sync_all service (* must skip the quarantined shard *);
  Broker.Service.clear_quarantine service ~shard;
  Broker.Service.sync_all service;
  Alcotest.(check int) "synced after readmission" 0
    (Broker.Service.total_durability_lag service)

(* A stream never placed on the buffered tier has nothing for
   [sync_stream] to commit: its sync must leave the shard's tier alone
   while another stream's items wait there, and that stream's own sync
   commits them. *)
let test_strict_sync_commits_nothing () =
  fresh_tid ();
  let service = Broker.Service.create ~shards:1 ~buffered:true () in
  Broker.Service.set_stream_acks service ~stream:1 Broker.Service.Acks_none;
  for seq = 1 to 3 do
    List.iter
      (fun stream ->
        match
          Broker.Service.enqueue service ~stream (enc ~producer:stream ~seq)
        with
        | Broker.Backpressure.Accepted -> ()
        | v ->
            Alcotest.failf "enqueue: %s" (Broker.Backpressure.verdict_name v))
      [ 0; 1 ]
  done;
  let tier =
    Option.get (Broker.Shard.buffered (Broker.Service.shards service).(0))
  in
  let commits () = (Dq.Buffered_q.stats tier).Dq.Buffered_q.s_commits in
  let before = commits () in
  let sync stream =
    match Broker.Service.sync_stream service ~stream with
    | Broker.Backpressure.Accepted -> ()
    | v -> Alcotest.failf "sync_stream: %s" (Broker.Backpressure.verdict_name v)
  in
  sync 0;
  Alcotest.(check int) "strict stream's sync: no commit" before (commits ());
  Alcotest.(check int) "buffered items still wait" 3
    (Broker.Service.total_durability_lag service);
  sync 1;
  Alcotest.(check int) "buffered stream's sync commits" (before + 1)
    (commits ());
  Alcotest.(check int) "and covers its items" 0
    (Broker.Service.total_durability_lag service)

(* The durability census counts every journal persist.  A fresh tier
   at watermark 64: 128 appends fill 16 journal lines, each written
   behind as it fills (one flush and one fence apiece), and trip two
   commits that end on a line boundary, so each publishes only its
   meta word.  18 flushes, as when a commit flushed the group's lines
   itself; 18 fences instead of that design's 4.  The shard's device
   is kept busy, so no line commits: this is the watermark group's
   persist shape, 1/8 + 1/64 flushes and fences per enqueue. *)
let test_census_counts_write_behind () =
  fresh_tid ();
  let service =
    Broker.Service.create ~shards:1 ~acks:Broker.Service.Acks_none
      ~latency:(wall_latency ~line_ms:1) ()
  in
  ignore
    (queue_drains
       (Broker.Shard.heap (Broker.Service.shards service).(0))
       ~lines:1000);
  for seq = 1 to 128 do
    match Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq) with
    | Broker.Backpressure.Accepted -> ()
    | v -> Alcotest.failf "enqueue: %s" (Broker.Backpressure.verdict_name v)
  done;
  let j = Broker.Census.journal_persists service in
  Alcotest.(check int) "two watermark commits" 2 j.Broker.Census.j_commits;
  Alcotest.(check int) "16 lines + 2 meta words flushed" 18
    j.Broker.Census.j_flushes;
  Alcotest.(check int) "16 write-behinds + 2 meta fences" 18
    j.Broker.Census.j_fences

(* The census counts line commits and syncs alike, each persist once.
   On [Latency.off] the device always idles and a line needs no time to
   fill: 132 appends commit each of their 16 full lines behind its
   write-behind, and a sync commits the four-entry tail (a tail flush
   and fence, then the meta word).  17 commits; 16 lines + 16 meta
   words + the tail and its meta word = 34 flushes and 34 fences. *)
let test_census_counts_line_commits () =
  fresh_tid ();
  let service =
    Broker.Service.create ~shards:1 ~acks:Broker.Service.Acks_none ()
  in
  for seq = 1 to 132 do
    match Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq) with
    | Broker.Backpressure.Accepted -> ()
    | v -> Alcotest.failf "enqueue: %s" (Broker.Backpressure.verdict_name v)
  done;
  Broker.Service.sync_all service;
  let j = Broker.Census.journal_persists service in
  Alcotest.(check int) "16 line commits + 1 sync commit" 17
    j.Broker.Census.j_commits;
  Alcotest.(check int) "16 lines, 16 meta words, a tail and a meta word" 34
    j.Broker.Census.j_flushes;
  Alcotest.(check int) "16 write-behinds, 16 meta fences, 2 sync fences" 34
    j.Broker.Census.j_fences

let test_service_crash_recovers_synced_floor () =
  let service = weak_service () in
  let streams = 4 and per_stream = 30 in
  for stream = 0 to streams - 1 do
    for seq = 1 to per_stream do
      match Broker.Service.enqueue service ~stream (enc ~producer:stream ~seq)
      with
      | Broker.Backpressure.Accepted -> ()
      | v -> Alcotest.failf "enqueue: %s" (Broker.Backpressure.verdict_name v)
    done
  done;
  Broker.Service.sync_all service;
  let depths = Broker.Service.depths service in
  let rng = Random.State.make [| 99 |] in
  let report =
    Broker.Recovery.crash_and_recover ~rng
      ~producer_of:Spec.Durable_check.producer_of service
  in
  if not (Broker.Recovery.ok report) then
    Alcotest.fail "recovery validation failed";
  Alcotest.(check (array int)) "synced floor survives in full" depths
    (Broker.Service.depths service);
  (* Drain everything; each producer's values must come out in seq
     order (dequeue drains the stream's *shard*, which interleaves the
     streams pinned to it, so check FIFO per producer). *)
  let next = Array.make streams 1 in
  let drained = ref 0 in
  let rec drain () =
    match Broker.Service.dequeue_any service with
    | Broker.Service.Item v ->
        let p = Spec.Durable_check.producer_of v in
        Alcotest.(check int)
          (Printf.sprintf "producer %d FIFO" p)
          next.(p)
          (Spec.Durable_check.seq_of v);
        next.(p) <- next.(p) + 1;
        incr drained;
        drain ()
    | Broker.Service.Empty -> ()
    | _ -> Alcotest.fail "shard unavailable mid-drain"
  in
  drain ();
  Alcotest.(check int) "every synced item drained" (streams * per_stream)
    !drained

let () =
  Alcotest.run "buffered"
    [
      ( "group-commit",
        [
          Alcotest.test_case "watermark trips a commit" `Quick
            test_watermark_commit;
          Alcotest.test_case "sync is the boundary" `Quick test_sync_boundary;
          Alcotest.test_case "join is per-call" `Quick test_join_override;
          Alcotest.test_case "dequeues keep FIFO" `Quick test_queue_semantics;
          Alcotest.test_case "full ring refuses" `Quick test_journal_full;
          Alcotest.test_case "ring is line-aligned" `Quick
            test_capacity_line_aligned;
          Alcotest.test_case "absorbed fences write nothing behind" `Quick
            test_absorbed_write_behind;
          Alcotest.test_case "commit callback snapshots" `Quick
            test_on_commit_callback;
          Alcotest.test_case "claims survive slot reuse" `Quick
            test_ring_reuse_stress;
          Alcotest.test_case "dequeues touch no NVM" `Quick
            test_dequeue_touches_no_nvm;
          Alcotest.test_case "racing claims count exactly" `Quick
            test_racing_claims_count_exactly;
          Alcotest.test_case "concurrent syncs all count" `Quick
            test_concurrent_syncs_count;
        ] );
      ( "line-commit",
        [
          Alcotest.test_case "a slow line on an idle device commits" `Quick
            test_line_commit_on_idle_device;
          Alcotest.test_case "a fast line waits for the watermark" `Quick
            test_fast_line_waits_for_watermark;
          Alcotest.test_case "a queued drain defers the line" `Quick
            test_busy_device_defers_line;
          Alcotest.test_case "absorbed fences commit no line" `Quick
            test_absorbed_fences_no_line_commit;
          Alcotest.test_case "a leader enqueue never joins it" `Quick
            test_leader_never_joins_line_commit;
        ] );
      ( "crash-floor",
        [
          Alcotest.test_case "unsynced tail drops as a unit" `Quick
            test_recover_floor;
          Alcotest.test_case "synced dequeue stays consumed" `Quick
            test_recover_consumed;
          Alcotest.test_case "sync means survives" `Quick
            test_recover_after_sync_keeps_all;
          Alcotest.test_case "wrapped ring recovers" `Quick
            test_recover_wrapped_ring;
          Alcotest.test_case "dropped line is refilled" `Quick
            test_recover_then_refill_line;
          Alcotest.test_case "another thread's commit keeps the line" `Quick
            test_commit_covers_written_behind_line;
          Alcotest.test_case "1,000 recoveries allocate nothing" `Quick
            test_recover_allocates_nothing;
        ] );
      ( "service-acks",
        [
          Alcotest.test_case "level names" `Quick test_acks_names;
          Alcotest.test_case "tier wiring and validation" `Quick
            test_tier_wiring;
          Alcotest.test_case "tiered FIFO and sync verdicts" `Quick
            test_tiered_fifo_and_sync;
          Alcotest.test_case "sync vs quarantine" `Quick test_sync_quarantined;
          Alcotest.test_case "a strict stream's sync commits nothing" `Quick
            test_strict_sync_commits_nothing;
          Alcotest.test_case "crash recovers the synced floor" `Quick
            test_service_crash_recovers_synced_floor;
          Alcotest.test_case "census counts write-behinds" `Quick
            test_census_counts_write_behind;
          Alcotest.test_case "census counts line commits" `Quick
            test_census_counts_line_commits;
        ] );
    ]
