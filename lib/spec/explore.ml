(* Systematic mid-operation crash exploration.

   The crash-recovery test suites crash at operation boundaries; the
   white-box tests replay specific mid-operation states by hand.  This
   module closes the gap mechanically: code under test runs as
   effect-based fibers that yield at *every* simulated-NVRAM access (the
   step hook of {!Nvm.Heap}), a seeded scheduler drives an arbitrary
   interleaving, and a crash can be injected at any yield point — i.e.
   between any two persist-relevant instructions of the real algorithm
   code.  A crash drops the unfinished fibers' continuations: a dead
   thread runs no further step, not even its unwinders.

   Lock-free queues only: algorithms that spin on volatile ownership words
   (the PTM queues, ONLL) have schedules in which the single-threaded
   scheduler would spin forever. *)

open Effect
open Effect.Deep

type _ Effect.t += Step : unit Effect.t

(* Yield to the scheduler.  Spin loops — the combiner's waiters, the
   buffered tier's append lock — poll volatile words the heap step
   hook never sees, so they must yield themselves or a fiber scheduled
   before the lock holder would spin the scheduler forever.  Outside a
   fiber (the post-crash drain) the perform is unhandled and the yield
   is a no-op. *)
let yield () = try perform Step with Effect.Unhandled _ -> ()

type fiber =
  | Unstarted of (unit -> unit)
  | Paused of (unit, fiber) continuation
  | Finished

let resume = function
  | Unstarted f ->
      match_with f ()
        {
          retc = (fun () -> Finished);
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Step -> Some (fun (k : (a, fiber) continuation) -> Paused k)
              | _ -> None);
        }
  | Paused k -> continue k ()
  | Finished -> Finished

let run ~heap ~rng ~crash_at bodies =
  let fibers = Array.map (fun f -> Unstarted f) bodies in
  Nvm.Heap.set_step_hook heap (Some yield);
  let rec go steps =
    let alive =
      List.filter
        (fun i -> match fibers.(i) with Finished -> false | _ -> true)
        (List.init (Array.length fibers) Fun.id)
    in
    if alive = [] then Some steps
    else if match crash_at with Some c -> steps >= c | None -> false then
      None
    else begin
      let i = List.nth alive (Random.State.int rng (List.length alive)) in
      Nvm.Tid.set i;
      fibers.(i) <- resume fibers.(i);
      go (steps + 1)
    end
  in
  let finished = go 0 in
  Nvm.Heap.set_step_hook heap None;
  finished

let crash_and_recover ~heap ~rng ~policy recover =
  Nvm.Crash.crash ~rng ~policy heap;
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ());
  recover ()

let rounds n f =
  let rec go i =
    if i >= n then Ok () else Result.bind (f i) (fun () -> go (i + 1))
  in
  go 0

let audit ~name heap =
  Fence_audit.check_aggregates ~name (Nvm.Span.aggregates (Nvm.Heap.spans heap))

type op = Enq of int | Deq | Sync

(* What an exploration runs: a registry queue (strict), or the
   buffered-durability tier, which runs no registry algorithm. *)
type tier = Strict of Dq.Registry.entry | Buffered

let tier_name = function
  | Strict entry -> entry.Dq.Registry.name
  | Buffered -> Dq.Buffered_q.name

(* Run one exploration: [plans.(i)] is fiber [i]'s operation sequence;
   [crash_at = Some s] injects a full-system crash after [s] scheduler
   steps (if the run lasts that long; with [crash_finished], also after
   a run that finished first).  Returns the linearizability verdict over
   the full history, then the persist-bound audit of the run's spans,
   and, when the run finished before the cut, its step count. *)
let explore ~policy ~combining ~crash_finished tier ~seed ~plans ~crash_at :
    (int option, string) result =
  let n = Array.length plans in
  Nvm.Tid.reset ();
  Nvm.Tid.set n (* the orchestrating thread sits after the fibers *);
  let heap = Nvm.Heap.create ~mode:Nvm.Heap.Checked ~latency:Nvm.Latency.off () in
  (* The buffered tier runs with a two-line ring (14 entries) so a plan
     of 15 enqueues wraps it; the concrete handle is kept for
     persist-stamping, instrumentation goes on top.  Its name has no row
     in the bounds table: its op spans legitimately own a whole commit's
     fence when their append hits the ring guard. *)
  let buf, q0 =
    match tier with
    | Buffered ->
        let b =
          Nvm.Span.with_span ~exclude:true (Nvm.Heap.spans heap)
            Dq.Instrumented.create_label (fun () ->
              Dq.Buffered_q.create ~capacity:14 ~yield heap)
        in
        (Some b, Dq.Instrumented.wrap heap (Dq.Buffered_q.instance b))
    | Strict entry ->
        (None, (Dq.Registry.instrumented entry).Dq.Registry.make heap)
  in
  let buffered = Option.is_some buf in
  let q =
    if combining then
      Dq.Combining_q.instance (Dq.Combining_q.create ~yield heap q0)
    else q0
  in
  (* Persist-stamp ledger (buffered mode): each group commit covers a
     prefix of the journal — record, per covered value, the persist
     clock of the commit that first covered its enqueue resp. dequeue.
     Keyed by value: campaign plans enqueue distinct values. *)
  let enq_stamp : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let deq_stamp : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (match buf with
  | Some b ->
      let stamped_floor = ref 0 and stamped_consumed = ref 0 in
      Dq.Buffered_q.set_on_commit b
        (Some
           (fun ~floor ~consumed ~drain:_ ->
             let stamp = Nvm.Span.persist_now (Nvm.Heap.spans heap) in
             for i = !stamped_floor to floor - 1 do
               Hashtbl.replace enq_stamp (Dq.Buffered_q.journal_value b i)
                 stamp
             done;
             stamped_floor := max !stamped_floor floor;
             for i = !stamped_consumed to consumed - 1 do
               Hashtbl.replace deq_stamp (Dq.Buffered_q.journal_value b i)
                 stamp
             done;
             stamped_consumed := max !stamped_consumed consumed))
  | None -> ());
  let rng = Random.State.make [| seed; 0x5EED |] in
  let h = History.create () in
  let body i () =
    List.iter
      (function
        | Sync ->
            (* The explicit persistence boundary: a group commit + drain
               over the buffered tier, a no-op over strict queues.  Not a
               history operation — it has no sequential effect; its trace
               is the persist stamps of the operations it covers. *)
            q.Dq.Queue_intf.sync ()
        | Enq v ->
            History.record_enqueue h ~tid:i v (fun () ->
                q.Dq.Queue_intf.enqueue v)
        | Deq ->
            ignore (History.record_dequeue h ~tid:i q.Dq.Queue_intf.dequeue))
      plans.(i)
  in
  let finished = run ~heap ~rng ~crash_at (Array.init n body) in
  let crashed = Option.is_none finished || crash_finished in
  if crashed then begin
    (* Buffered mode: stamp every operation the issued commits covered —
       by value, from the on-commit ledger — before the image is cut.
       (Pending dequeues carry no value and stay unstamped; the checker
       may still linearize them to reach the recovered state.) *)
    if buffered then
      List.iter
        (fun (o : History.op) ->
          let stamp table v =
            match Hashtbl.find_opt table v with
            | Some p when o.History.persist = None ->
                o.History.persist <- Some p
            | _ -> ()
          in
          match o.History.kind with
          | History.Enqueue v -> stamp enq_stamp v
          | History.Dequeue (Some v) -> stamp deq_stamp v
          | History.Dequeue None -> ())
        (History.ops h);
    crash_and_recover ~heap ~rng ~policy q.Dq.Queue_intf.recover
  end
  else Nvm.Tid.set n;
  (* Drain the queue.  Strict mode (and crash-free runs): the drain's
     dequeues join the history, ending with the failing dequeue that
     observes emptiness.  Buffered mode across a crash: the drain *is*
     the recovered state, checked against the pre-crash history by the
     crash-cut checker — persistence lagged execution, so the strict
     checker's pending-only latitude would reject legitimately dropped
     unsynced suffixes. *)
  let buffered_crash = crashed && buffered in
  let rec drain acc =
    let r =
      if buffered_crash then q.Dq.Queue_intf.dequeue ()
      else History.record_dequeue h ~tid:n q.Dq.Queue_intf.dequeue
    in
    match r with Some v -> drain (v :: acc) | None -> List.rev acc
  in
  let recovered = drain [] in
  let verdict =
    if buffered_crash then
      Lin_check.check_crash_cut_report (History.ops h) ~recovered
    else Lin_check.check_report (History.ops h)
  in
  Result.bind verdict (fun () -> audit heap ~name:(tier_name tier))
  |> Result.map (fun () -> finished)

let explore_once ?(policy = Nvm.Crash.Random_evictions) ?(combining = false)
    entry ~seed ~plans ~crash_at =
  explore ~policy ~combining ~crash_finished:false (Strict entry) ~seed
    ~plans ~crash_at
  |> Result.map ignore

(* A randomized campaign: [rounds] seeds, each with a random 2-3 fiber
   plan of enqueues/dequeues and a crash at a random step (and one
   crash-free control round in three).  [policy] selects the crash
   adversary: test suites run the campaign under both the default
   [Random_evictions] and the adversarial [Only_persisted], so the
   "nothing beyond explicit persists" corner is explored on every run,
   not only when the random policy happens to land there.

   A strict round draws its crash point from 1..60.  A buffered run is
   far shorter (a dequeue takes no step), so a buffered round first runs
   its plan crash-free, then crashes it at a step drawn within that
   run's length, the last one crashing the finished run. *)
let campaign_of ~policy ~combining tier ~rounds:n : (unit, string) result =
  let buffered = match tier with Buffered -> true | Strict _ -> false in
  let shown_name =
    tier_name tier ^ if combining then Dq.Combining_q.name_suffix else ""
  in
  rounds n (fun seed ->
      let rng = Random.State.make [| seed; 0xCA4 |] in
      let nfibers = 2 + Random.State.int rng 2 in
      let value = ref 0 in
      let plans =
        Array.init nfibers (fun _ ->
            List.init
              (1 + Random.State.int rng 3)
              (fun _ ->
                (* Buffered plans mix in explicit sync boundaries (the
                   short-circuit keeps strict plan generation — and so
                   every existing seed's schedule — unperturbed). *)
                if buffered && Random.State.int rng 5 = 0 then Sync
                else if Random.State.int rng 3 < 2 then begin
                  incr value;
                  Enq !value
                end
                else Deq))
      in
      let once crash_at =
        explore ~policy ~combining
          ~crash_finished:(buffered && crash_at <> None)
          tier ~seed ~plans ~crash_at
        |> Result.map_error
             (Printf.sprintf "%s: seed %d (crash_at %s, policy %s): %s"
                shown_name seed
                (match crash_at with
                | Some c -> string_of_int c
                | None -> "none")
                (Nvm.Crash.policy_name policy))
      in
      let crash_at =
        if seed mod 3 = 2 then Ok None
        else if buffered then
          Result.map
            (fun steps -> Some (1 + Random.State.int rng (Option.get steps)))
            (once None)
        else Ok (Some (1 + Random.State.int rng 60))
      in
      Result.bind crash_at once |> Result.map ignore)

let campaign ?(policy = Nvm.Crash.Random_evictions) ?(combining = false) entry
    ~rounds =
  campaign_of ~policy ~combining (Strict entry) ~rounds

let buffered_campaign ~policy ~rounds =
  campaign_of ~policy ~combining:false Buffered ~rounds

(* -- Directed buffered sweep -------------------------------------------------

   Campaign plans hold at most nine operations, so they seldom fill a
   seven-entry journal line and never wrap the ring: the write-behind
   and ring-slot reuse are reached only by a directed plan long enough
   to do both.  The sweep crashes one fixed schedule of such a plan at
   every step, through the point after its last operation returned, so
   every write-behind, commit and slot overwrite is crashed on both
   sides. *)
let buffered_sweep ~policy ~seed ~plans : (unit, string) result =
  let rec sweep k =
    match
      explore ~policy ~combining:false ~crash_finished:true Buffered ~seed
        ~plans ~crash_at:(Some k)
    with
    | Ok (Some _) -> Ok ()
    | Ok None -> sweep (k + 1)
    | Error e ->
        Error
          (Printf.sprintf "%s: seed %d, crash at step %d (policy %s): %s"
             Dq.Buffered_q.name seed k (Nvm.Crash.policy_name policy) e)
  in
  sweep 1

(* -- Directed checkpoint-flip boundary campaign ---------------------------

   The incremental checkpoint's whole crash contract hangs on one point
   of atomicity: the committed word flips epochs with a single movnti +
   fence ({!Dq.Checkpoint}).  The randomized campaign above crashes
   inside *operations*; this one crashes inside {!Dq.Checkpoint.run}
   itself, at every persist-relevant instruction — through the image
   stream, across the flip, into retirement, and after the run returns
   (when the previous epoch's regions are already freed) — and requires
   the queue's contents to be exactly invariant: a checkpoint is
   contents-neutral, so whatever side of the flip the crash lands on,
   recovery must reproduce the same items from either the previous
   committed epoch (or native scan) or the fresh image. *)

(* One run: quiescent churn, a committed predecessor checkpoint (so a
   crash inside the next run must fall back to a *previous epoch*, not
   to an empty history), more churn, then [Checkpoint.run] cut after
   [crash_at] steps, and the crash. *)
let checkpoint_flip_once ?(policy = Nvm.Crash.Only_persisted)
    (entry : Dq.Registry.entry) ~seed ~crash_at : (bool, string) result =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ());
  let heap =
    Nvm.Heap.create ~mode:Nvm.Heap.Checked ~latency:Nvm.Latency.off ()
  in
  (* Uninstrumented: the checkpoint records its own [ckpt:*] spans, so
     the audit below bounds the flip, not the churn's operations (the
     campaigns above audit those). *)
  let q = entry.Dq.Registry.make heap in
  match q.Dq.Queue_intf.checkpoint with
  | None -> Error (entry.Dq.Registry.name ^ ": no checkpoint handle")
  | Some ck ->
      let rng = Random.State.make [| seed; 0xF11B |] in
      let value = ref 0 in
      let churn n =
        for _ = 1 to n do
          if Random.State.int rng 3 < 2 then begin
            incr value;
            q.Dq.Queue_intf.enqueue !value
          end
          else ignore (q.Dq.Queue_intf.dequeue ())
        done
      in
      churn (8 + Random.State.int rng 8);
      ignore (Dq.Checkpoint.run ck);
      churn (8 + Random.State.int rng 8);
      let expected = q.Dq.Queue_intf.to_list () in
      (* One fiber: its scheduling draws from an rng of its own, so the
         crash adversary's draws do not depend on the crash point. *)
      let finished =
        Option.is_some
          (run ~heap ~rng:(Random.State.make [| seed |])
             ~crash_at:(Some crash_at)
             [| (fun () -> ignore (Dq.Checkpoint.run ck)) |])
      in
      if finished && q.Dq.Queue_intf.to_list () <> expected then
        Error "completed checkpoint changed the queue contents"
      else begin
        crash_and_recover ~heap ~rng ~policy q.Dq.Queue_intf.recover;
        let got = q.Dq.Queue_intf.to_list () in
        if got <> expected then
          Error
            (Printf.sprintf
               "contents changed across crash: expected %d items, got %d"
               (List.length expected) (List.length got))
        else
          Result.map (fun () -> finished)
            (audit ~name:entry.Dq.Registry.name heap)
      end

(* Sweep every crash point of the flip boundary, through the point after
   the run returns, for [seeds] seeds. *)
let checkpoint_flip_campaign ?policy (entry : Dq.Registry.entry) ~seeds :
    (unit, string) result =
  rounds seeds (fun seed ->
      let rec sweep k =
        match checkpoint_flip_once ?policy entry ~seed ~crash_at:k with
        | Ok true -> Ok ()
        | Ok false -> sweep (k + 1)
        | Error e ->
            Error
              (Printf.sprintf "%s: seed %d, crash at checkpoint step %d: %s"
                 entry.Dq.Registry.name seed k e)
      in
      sweep 1)
