(* Tests for the buffered-durability tier: the journal queue
   (lib/core/buffered_q.ml) — a commit as each line fills, the explicit
   [sync] boundary, its refusal of absorbed fences, the watermark's
   pacing, recovery from the highest seal whose lines are sealed full
   (allocating nothing and reading each seal once), ring-full refusal,
   claim-by-CAS dequeues under slot reuse — and the broker's per-stream
   acks levels mapped onto it: tier routing, level validation, sync
   verdicts, and a full-system crash recovering exactly the synced
   floor. *)

let fresh_tid () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ())

let fresh_heap ?(mode = Nvm.Heap.Checked) () =
  fresh_tid ();
  Nvm.Heap.create ~mode ~latency:Nvm.Latency.off ()

let make_buffered ?watermark ?capacity ?(mode = Nvm.Heap.Checked) () =
  let heap = fresh_heap ~mode () in
  (heap, Dq.Buffered_q.create ?watermark ?capacity heap)

(* Fences that drain on a wall-clock device, one line in [line_ms]
   milliseconds ({!Nvm.Latency.dimm_wall}, rescaled). *)
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

(* Queue [lines] line drains on [heap]'s device from a spare region:
   a drain issued next completes only after them. *)
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

let span_agg heap label =
  match Nvm.Span.find_aggregate (Nvm.Heap.spans heap) label with
  | None -> Alcotest.failf "no %S span" label
  | Some a -> a

(* The journal layout ([Buffered_q]'s header): a ring of 8-word lines,
   seven entries and then the seal word, in the heap's one log region.
   Used to write crash images directly. *)
let per_line = Nvm.Line.words_per_line - 1
let ring_lines ~capacity = (capacity + per_line - 1) / per_line

let seal_addr heap ~capacity l =
  let base = ref 0 in
  Nvm.Heap.iter_regions ~tag:Nvm.Region.Log_area heap ~f:(fun r ->
      base := Nvm.Region.base_addr r);
  !base + ((l mod ring_lines ~capacity) * Nvm.Line.words_per_line) + per_line

(* Lose line [l]'s seal from a crash image, as an eviction can when the
   seal was stored but not yet fenced. *)
let lose_seal heap ~capacity l =
  let a = seal_addr heap ~capacity l in
  Nvm.Heap.write heap a 0;
  Nvm.Heap.persist_line heap a

(* -- Buffered_q: group commits ---------------------------------------------- *)

(* The append that fills a journal line commits it at once, under an
   excluded "write-behind" span: one flush and one fence for the line,
   whatever the watermark. *)
let test_line_fill_commits () =
  let heap, b = make_buffered ~watermark:64 () in
  enqueue_range b 1 6;
  Alcotest.(check int) "no commit mid-line" 0 (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "lag is the open line" 6
    (Dq.Buffered_q.durability_lag b);
  Dq.Buffered_q.enqueue b 7;
  Alcotest.(check int) "the full line commits" 7
    (Dq.Buffered_q.committed_floor b);
  Alcotest.(check int) "lag paid down" 0 (Dq.Buffered_q.durability_lag b);
  let s = Dq.Buffered_q.stats b in
  Alcotest.(check int) "one commit" 1 s.Dq.Buffered_q.s_commits;
  Alcotest.(check int) "no explicit sync" 0 s.Dq.Buffered_q.s_syncs;
  let a = span_agg heap Dq.Instrumented.write_behind_label in
  Alcotest.(check (list int)) "one write-behind: a flush and a fence"
    [ 1; 1; 1 ]
    [ a.Nvm.Span.count; a.Nvm.Span.sum.Nvm.Stats.flushes;
      a.Nvm.Span.sum.Nvm.Stats.fences ]

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
  (* join only changes whether the producer waits for a drain; the
     commit itself (and the floor) is identical either way. *)
  let _, b = make_buffered ~watermark:4 () in
  for v = 1 to 7 do
    Dq.Buffered_q.enqueue ~join:(v mod 2 = 0) b v
  done;
  Alcotest.(check int) "floor advanced regardless of join" 7
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

(* [capacity] counts unconsumed entries, not ring slots: the ring
   rounds it up to whole seven-entry lines, and an append still fails
   once the backlog reaches [capacity]. *)
let test_capacity_counts_entries () =
  List.iter
    (fun capacity ->
      match make_buffered ~capacity () with
      | _ -> Alcotest.failf "capacity %d accepted" capacity
      | exception Invalid_argument _ -> ())
    [ 0; -1 ];
  let _, b = make_buffered ~capacity:12 () in
  enqueue_range b 1 12;
  (try
     Dq.Buffered_q.enqueue b 13;
     Alcotest.fail "a 12-entry journal took a 13th"
   with Dq.Buffered_q.Journal_full -> ());
  Alcotest.(check int) "12 taken in a two-line ring" 12
    (Dq.Buffered_q.appended b)

(* Every full line commits inside the append that fills it, so no
   append leaves a whole line uncommitted, whatever the watermark, the
   syncs between fills or the ring's wraps: the bound that lets the
   broker's admission watch depth alone.  Each commit, a fill's or a
   sync's, flushes its one sealed line under one fence. *)
let test_lag_stays_below_a_line () =
  List.iter
    (fun watermark ->
      let heap, b = make_buffered ~watermark ~capacity:21 () in
      for v = 1 to 200 do
        Dq.Buffered_q.enqueue b v;
        if v > 10 then ignore (Dq.Buffered_q.dequeue b);
        if v mod 11 = 0 then Dq.Buffered_q.sync b;
        let lag = Dq.Buffered_q.durability_lag b in
        if lag >= per_line then
          Alcotest.failf "watermark %d, append %d: lag %d, a whole line"
            watermark v lag;
        if v mod per_line = 0 && lag <> 0 then
          Alcotest.failf "watermark %d, append %d: the fill left lag %d"
            watermark v lag
      done;
      let commits = (Dq.Buffered_q.stats b).Dq.Buffered_q.s_commits in
      let persists label =
        let a = span_agg heap label in
        [ a.Nvm.Span.sum.Nvm.Stats.flushes; a.Nvm.Span.sum.Nvm.Stats.fences ]
      in
      Alcotest.(check (list int))
        (Printf.sprintf "watermark %d: a flush and a fence per commit"
           watermark)
        [ commits; commits ]
        (List.map2 ( + )
           (persists Dq.Instrumented.write_behind_label)
           (persists Dq.Instrumented.sync_label)))
    [ 1; 7; 64 ]

(* The journal has one commit path, and a commit's fence must be issued
   at once: inside a batched-fence scope it would land only when the
   scope closes, so [enqueue] and [sync] refuse such a caller before
   touching any state.  A dequeue issues no persist and still works
   there ([Shard.dequeue_batch] runs its dequeues in such a scope), and
   the next append outside the scope commits its line as usual. *)
let test_absorbed_fences_refused () =
  let heap, b = make_buffered () in
  enqueue_range b 1 6;
  Dq.Buffered_q.sync b;
  let state () =
    ( Dq.Buffered_q.appended b,
      Dq.Buffered_q.committed_floor b,
      (Dq.Buffered_q.instance b).Dq.Queue_intf.to_list () )
  in
  let before = state () in
  let stats = Nvm.Stats.snapshot (Nvm.Heap.stats heap) in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s ran under absorbed fences" what
    | exception Invalid_argument _ -> ()
  in
  let unchanged = Alcotest.(triple int int (list int)) in
  Nvm.Heap.with_batched_fences heap (fun () ->
      refused "an append" (fun () -> Dq.Buffered_q.enqueue b 7);
      refused "a sync" (fun () -> Dq.Buffered_q.sync b);
      Alcotest.check unchanged "appended, floor and contents unchanged"
        before (state ());
      let d = Nvm.Stats.diff_total (Nvm.Heap.stats heap) ~since:stats in
      Alcotest.(check (list int)) "no write, flush or fence"
        [ 0; 0; 0 ]
        [ d.Nvm.Stats.writes; d.Nvm.Stats.flushes; d.Nvm.Stats.fences ];
      Alcotest.(check (option int)) "a dequeue still works" (Some 1)
        (Dq.Buffered_q.dequeue b));
  Alcotest.(check int) "the refused sync is not counted" 1
    (Dq.Buffered_q.stats b).Dq.Buffered_q.s_syncs;
  Dq.Buffered_q.enqueue b 7;
  Alcotest.(check (pair int int)) "the line fill outside commits" (7, 1)
    (Dq.Buffered_q.committed_floor b, Dq.Buffered_q.committed_consumed b);
  Alcotest.(check (list int)) "contents" [ 2; 3; 4; 5; 6; 7 ]
    ((Dq.Buffered_q.instance b).Dq.Queue_intf.to_list ())

let test_on_commit_callback () =
  let _, b = make_buffered ~watermark:2 () in
  let seen = ref [] in
  Dq.Buffered_q.set_on_commit b
    (Some (fun ~floor ~consumed ~drain:_ -> seen := (floor, consumed) :: !seen));
  enqueue_range b 1 9;
  ignore (Dq.Buffered_q.dequeue b);
  Dq.Buffered_q.sync b;
  Alcotest.(check (list (pair int int)))
    "cuts in commit order" [ (9, 1); (7, 0) ] !seen

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

(* -- Buffered_q: the watermark paces ------------------------------------------

   The watermark triggers no commit.  The append that fills the first
   line at or past [watermark] entries since the previous pacing point
   is the next one; an acknowledging producer there waits for the
   commit ticket saved at the previous point. *)

(* A device that keeps up never makes a leader wait: each pacing point
   joins a ticket that drained while the next line filled. *)
let test_idle_device_never_waits () =
  let line_ms = 50 in
  let heap = wall_heap ~line_ms in
  let b = Dq.Buffered_q.create ~watermark:7 ~capacity:64 heap in
  let slowest = ref 0. in
  for v = 1 to 28 do
    if v mod per_line = 1 then Unix.sleepf (2. *. line_s ~line_ms);
    let t0 = Unix.gettimeofday () in
    Dq.Buffered_q.enqueue ~join:true b v;
    slowest := Float.max !slowest (Unix.gettimeofday () -. t0)
  done;
  Alcotest.(check int) "every line committed" 28
    (Dq.Buffered_q.committed_floor b);
  Alcotest.(check bool)
    (Printf.sprintf "no call waited out a drain (slowest %.1f ms)"
       (!slowest *. 1e3))
    true
    (!slowest < 0.5 *. line_s ~line_ms)

(* A leader that outruns the device is paced to it: back-to-back
   appends at watermark 14 wait at every other line, so the producer
   ends about the device's drain time behind its first append, and on
   return from every call at most two watermarks and a line are
   written but not yet durable. *)
let test_outrunning_producer_is_paced () =
  let line_ms = 4 in
  let heap = wall_heap ~line_ms in
  let b = Dq.Buffered_q.create ~watermark:14 ~capacity:256 heap in
  let drains = ref [] in
  Dq.Buffered_q.set_on_commit b
    (Some
       (fun ~floor ~consumed:_ ~drain ->
         drains := (floor, Nvm.Heap.drain_deadline drain) :: !drains));
  let durable now =
    List.fold_left
      (fun acc (floor, deadline) ->
        if deadline <= now then max acc floor else acc)
      0 !drains
  in
  let lines = 12 in
  let t0 = Unix.gettimeofday () in
  let worst = ref 0 in
  for v = 1 to lines * per_line do
    Dq.Buffered_q.enqueue ~join:true b v;
    worst := max !worst (v - durable (Unix.gettimeofday ()))
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "at most two watermarks and a line undrained (%d)" !worst)
    true
    (!worst <= (2 * 14) + per_line);
  Alcotest.(check bool)
    (Printf.sprintf "paced to the device (%.1f ms)" (elapsed *. 1e3))
    true
    (elapsed >= float_of_int (lines - 4) *. line_s ~line_ms)

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
  let heap, b = make_buffered () in
  enqueue_range b 1 9;
  (* floor 7 (the first line's commit); 8 and 9 are the unsynced tail. *)
  crash heap 42;
  Dq.Buffered_q.recover b;
  let q = Dq.Buffered_q.instance b in
  Alcotest.(check (list int)) "exactly the committed prefix"
    [ 1; 2; 3; 4; 5; 6; 7 ]
    (q.Dq.Queue_intf.to_list ());
  Alcotest.(check int) "appended reset to floor" 7 (Dq.Buffered_q.appended b);
  Alcotest.(check int) "no residual lag" 0 (Dq.Buffered_q.durability_lag b)

(* A full line's commit is a whole cut: its fence alone persists the
   line, with no sync behind it, and its seal carries the consumed count
   next to the floor, so the dequeues it covers stay dequeued. *)
let test_line_commit_is_a_cut () =
  List.iter
    (fun policy ->
      let heap, b = make_buffered () in
      enqueue_range b 1 3;
      ignore (Dq.Buffered_q.dequeue b);
      ignore (Dq.Buffered_q.dequeue b);
      enqueue_range b 4 7;
      crash ~policy heap 17;
      Dq.Buffered_q.recover b;
      Alcotest.(check (list int))
        (Printf.sprintf "the line's cut (%s)" (Nvm.Crash.policy_name policy))
        [ 3; 4; 5; 6; 7 ]
        ((Dq.Buffered_q.instance b).Dq.Queue_intf.to_list ()))
    [ Nvm.Crash.Only_persisted; Nvm.Crash.Torn_prefix ]

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
   end (a 16-entry capacity rounds up to three lines, 21 slots), and the
   seal's floor and consumed count are past it.  Recovery must bring
   back exactly the synced live entries, in order, matching the
   persisted journal; appends after it fill the ring on from the floor
   and survive the next crash once synced. *)
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
  (* 40 entries appended and consumed: the next ten take slots 19-20 and
     0-7. *)
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
  Alcotest.(check int) "consumed from the seal" 43
    (Dq.Buffered_q.consumed b);
  Alcotest.(check int) "appended from the seal" 50
    (Dq.Buffered_q.appended b);
  for i = 43 to 49 do
    Alcotest.(check int)
      (Printf.sprintf "journal entry %d" i)
      (61 + i)
      (Dq.Buffered_q.journal_value b i)
  done;
  (* Nine more fill the journal: 16 live entries. *)
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

(* A seal written before a crash must not outlive it.  Lines 1 and 2
   are sealed full, and the crash keeps only line 2's seal (the image an
   eviction leaves when line 1's seal was not yet fenced; the test
   writes it directly), so recovery lands below line 1, at the end of
   line 0.  Line 1 is then refilled and sealed, and an All_flushed crash
   follows: line 2 still holds its old entries, and its old seal, had
   recovery left it, would chain onto the refilled line 1 and bring back
   values 15-21, which nobody acknowledged after the first crash. *)
let test_recover_then_refill_line () =
  let capacity = 64 in
  let heap, b = make_buffered ~capacity () in
  enqueue_range b 1 21;
  crash ~policy:Nvm.Crash.All_flushed heap 11;
  lose_seal heap ~capacity 1;
  Dq.Buffered_q.recover b;
  let live () = (Dq.Buffered_q.instance b).Dq.Queue_intf.to_list () in
  let range lo hi = List.init (hi - lo + 1) (fun k -> lo + k) in
  Alcotest.(check (list int)) "the chain stops below line 1" (range 1 7)
    (live ());
  enqueue_range b 101 107;
  crash ~policy:Nvm.Crash.All_flushed heap 12;
  Dq.Buffered_q.recover b;
  Alcotest.(check (list int)) "the refilled line, and nothing after it"
    (range 1 7 @ range 101 107)
    (live ())

(* A window may straddle one line more than the ring has.  A 14-entry
   capacity is a two-line ring: with entry 6 (value 7) still live,
   entries 14-19 wrap onto ring line 0, whose seal then names line 2
   while line 0's last entry stays live.  The line sealed there vouches
   for it, under every crash policy. *)
let test_wrapped_window_keeps_its_lowest_line () =
  List.iter
    (fun policy ->
      let heap, b = make_buffered ~capacity:14 () in
      enqueue_range b 1 14;
      for _ = 1 to 6 do
        ignore (Dq.Buffered_q.dequeue b)
      done;
      enqueue_range b 15 20;
      Dq.Buffered_q.sync b;
      crash ~policy heap 23;
      Dq.Buffered_q.recover b;
      Alcotest.(check (list int))
        (Printf.sprintf "a window over three lines (%s)"
           (Nvm.Crash.policy_name policy))
        (List.init 14 (fun k -> 7 + k))
        ((Dq.Buffered_q.instance b).Dq.Queue_intf.to_list ()))
    [
      Nvm.Crash.All_flushed;
      Nvm.Crash.Only_persisted;
      Nvm.Crash.Torn_prefix;
      Nvm.Crash.Random_evictions;
    ]

(* Recovery reads each seal word once, and each live entry once.  A
   default-capacity tier holds 200 full lines, and the crash image loses
   line 100's seal, so each of the 99 seals above it fails its window.
   The bound is one pass over the seal words, plus the live entries,
   plus one walk down the windows (at most a ring's length): a recovery
   that rescanned the ring for each failing seal would read far more. *)
let test_recover_reads_bounded () =
  let capacity = 1 lsl 16 in
  let heap, b = make_buffered () in
  enqueue_range b 1 (200 * per_line);
  crash ~policy:Nvm.Crash.All_flushed heap 31;
  lose_seal heap ~capacity 100;
  let before = Nvm.Stats.snapshot (Nvm.Heap.stats heap) in
  Dq.Buffered_q.recover b;
  let reads =
    (Nvm.Stats.diff_total (Nvm.Heap.stats heap) ~since:before).Nvm.Stats.reads
  in
  Alcotest.(check int) "recovered to the line below the lost seal"
    (100 * per_line) (Dq.Buffered_q.appended b);
  let lines = ring_lines ~capacity in
  let live = Dq.Buffered_q.appended b - Dq.Buffered_q.consumed b in
  Alcotest.(check bool)
    (Printf.sprintf "%d reads, bound %d" reads (lines + live + lines))
    true
    (reads <= lines + live + lines)

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
  (match Broker.Service.clear_quarantine service ~shard with
  | Ok () -> ()
  | Error e -> Alcotest.failf "lift: %s" e);
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

(* A combining broker applies its strict batches inside batched-fence
   scopes, where the journal refuses appends, so its buffered streams
   must reach the journal outside them.  Three producer domains share
   one shard: an all-synced stream whose batches the combiner applies,
   and an acks=leader and an acks=none stream on the journal.  A
   batched drain (its dequeues run inside a scope, where the journal's
   are legal) then returns every item in per-producer order, and the
   next line filled after it commits. *)
let test_combining_beside_the_journal () =
  fresh_tid ();
  let service =
    Broker.Service.create ~shards:1 ~combining:true ~buffered:true ()
  in
  Broker.Service.set_stream_acks service ~stream:1 Broker.Service.Acks_leader;
  Broker.Service.set_stream_acks service ~stream:2 Broker.Service.Acks_none;
  let per_stream = 120 in
  let producer stream =
    Domain.spawn (fun () ->
        Nvm.Tid.set (1 + stream);
        let rec go seq =
          if seq <= per_stream then begin
            let n = min (1 + (seq mod 5)) (per_stream - seq + 1) in
            let items =
              List.init n (fun i -> enc ~producer:stream ~seq:(seq + i))
            in
            (match Broker.Service.enqueue_batch service ~stream items with
            | k, Broker.Backpressure.Accepted when k = n -> ()
            | k, v ->
                Alcotest.failf "stream %d: %d of %d accepted, %s" stream k n
                  (Broker.Backpressure.verdict_name v));
            go (seq + n)
          end
        in
        go 1)
  in
  List.iter Domain.join (List.map producer [ 0; 1; 2 ]);
  let shard = (Broker.Service.shards service).(0) in
  let tier = Option.get (Broker.Shard.buffered shard) in
  let journal = (Dq.Buffered_q.instance tier).Dq.Queue_intf.to_list () in
  Alcotest.(check (list int)) "the journal holds the buffered streams"
    [ 1; 2 ]
    (List.sort_uniq compare (List.map Spec.Durable_check.producer_of journal));
  Alcotest.(check int) "all of them" (2 * per_stream) (List.length journal);
  Alcotest.(check bool) "the combiner applied strict batches" true
    ((span_agg (Broker.Shard.heap shard) Dq.Instrumented.combine_label)
       .Nvm.Span.count > 0);
  let next = Array.make 3 1 in
  let rec drain () =
    match Broker.Service.dequeue_batch service ~stream:0 ~max:8 with
    | Broker.Service.Items [] -> ()
    | Broker.Service.Items l ->
        List.iter
          (fun v ->
            let p = Spec.Durable_check.producer_of v in
            Alcotest.(check int)
              (Printf.sprintf "producer %d FIFO" p)
              next.(p)
              (Spec.Durable_check.seq_of v);
            next.(p) <- next.(p) + 1)
          l;
        drain ()
    | _ -> Alcotest.fail "dequeue_batch refused"
  in
  drain ();
  Alcotest.(check (array int)) "every item delivered"
    (Array.make 3 (per_stream + 1))
    next;
  for seq = per_stream + 1 to per_stream + per_line do
    match Broker.Service.enqueue service ~stream:1 (enc ~producer:1 ~seq) with
    | Broker.Backpressure.Accepted -> ()
    | v -> Alcotest.failf "enqueue: %s" (Broker.Backpressure.verdict_name v)
  done;
  let appended = Dq.Buffered_q.appended tier in
  Alcotest.(check int) "the next fill commits its line"
    (appended - (appended mod per_line))
    (Dq.Buffered_q.committed_floor tier)

(* The journal has one persist shape, wherever the device stands: the
   same 140 acks=none appends on an idle and on a busy wall-clock shard
   (a thousand line drains queued ahead of them) each read one commit,
   one flush and one fence per seven enqueues, and no post-flush
   access. *)
let test_census_one_persist_shape () =
  let shape ~busy =
    fresh_tid ();
    let service =
      Broker.Service.create ~shards:1 ~acks:Broker.Service.Acks_none
        ~latency:(wall_latency ~line_ms:1) ()
    in
    let heap = Broker.Shard.heap (Broker.Service.shards service).(0) in
    if busy then ignore (queue_drains heap ~lines:1000);
    let before = Nvm.Stats.snapshot (Nvm.Heap.stats heap) in
    for seq = 1 to 140 do
      match Broker.Service.enqueue service ~stream:0 (enc ~producer:0 ~seq) with
      | Broker.Backpressure.Accepted -> ()
      | v -> Alcotest.failf "enqueue: %s" (Broker.Backpressure.verdict_name v)
    done;
    let d = Nvm.Stats.diff_total (Nvm.Heap.stats heap) ~since:before in
    let j = Broker.Census.journal_persists service in
    [
      j.Broker.Census.j_commits;
      j.Broker.Census.j_flushes;
      j.Broker.Census.j_fences;
      Nvm.Stats.post_flush_accesses d;
    ]
  in
  let expected = [ 20; 20; 20; 0 ] in
  Alcotest.(check (list int)) "idle: commits, flushes, fences, post-flush"
    expected (shape ~busy:false);
  Alcotest.(check (list int)) "busy: the same" expected (shape ~busy:true)

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
          Alcotest.test_case "a full line commits" `Quick
            test_line_fill_commits;
          Alcotest.test_case "sync is the boundary" `Quick test_sync_boundary;
          Alcotest.test_case "join is per-call" `Quick test_join_override;
          Alcotest.test_case "dequeues keep FIFO" `Quick test_queue_semantics;
          Alcotest.test_case "full ring refuses" `Quick test_journal_full;
          Alcotest.test_case "capacity counts entries" `Quick
            test_capacity_counts_entries;
          Alcotest.test_case "lag stays below a line" `Quick
            test_lag_stays_below_a_line;
          Alcotest.test_case "a batched scope refuses appends and syncs"
            `Quick test_absorbed_fences_refused;
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
      ( "pacing",
        [
          Alcotest.test_case "an idle device never makes a leader wait"
            `Quick test_idle_device_never_waits;
          Alcotest.test_case "an outrunning leader is paced" `Quick
            test_outrunning_producer_is_paced;
        ] );
      ( "crash-floor",
        [
          Alcotest.test_case "unsynced tail drops as a unit" `Quick
            test_recover_floor;
          Alcotest.test_case "a line's commit is a cut" `Quick
            test_line_commit_is_a_cut;
          Alcotest.test_case "synced dequeue stays consumed" `Quick
            test_recover_consumed;
          Alcotest.test_case "sync means survives" `Quick
            test_recover_after_sync_keeps_all;
          Alcotest.test_case "wrapped ring recovers" `Quick
            test_recover_wrapped_ring;
          Alcotest.test_case "dropped line is refilled" `Quick
            test_recover_then_refill_line;
          Alcotest.test_case "a wrapped window keeps its lowest line" `Quick
            test_wrapped_window_keeps_its_lowest_line;
          Alcotest.test_case "recovery reads each seal once" `Quick
            test_recover_reads_bounded;
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
          Alcotest.test_case "combining beside the journal" `Quick
            test_combining_beside_the_journal;
          Alcotest.test_case "census counts one persist shape" `Quick
            test_census_one_persist_shape;
        ] );
    ]
