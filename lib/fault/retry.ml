(* Client-side resilience: bounded retries with jittered exponential
   backoff.

   The broker's transient verdicts — [Retry] (mid-recovery), [Busy]
   (same, on the dequeue side) and [Unavailable] (quarantined shard) —
   all mean "not now, maybe soon".  A well-behaved client retries them
   with exponential backoff, jittered so a thousand clients released by
   the same recovery don't stampede the broker in lockstep, and bounded
   twice: by an attempt budget and by an optional wall-clock deadline.

   [Overflow] is different in kind — a full shard stays full until
   someone consumes — so the enqueue adapters only retry it when the
   caller says consumers are running ([retry_overflow], the storm's
   case); otherwise it surfaces immediately as [Fatal].

   Jitter draws from a caller-supplied rng: combinators stay
   deterministic under a seeded plan, like everything else in this
   library. *)

type policy = {
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  multiplier : float;
  jitter : float;  (* fraction of each delay randomized, 0..1 *)
  deadline_s : float option;  (* wall-clock budget across all attempts *)
}

let default =
  {
    max_attempts = 8;
    base_delay_s = 0.0005;
    max_delay_s = 0.05;
    multiplier = 2.0;
    jitter = 0.5;
    deadline_s = None;
  }

type 'e error =
  | Exhausted of { attempts : int; elapsed_s : float; last : 'e }
  | Deadline_exceeded of { attempts : int; elapsed_s : float; last : 'e }
  | Fatal of 'e

let error_name = function
  | Exhausted _ -> "exhausted"
  | Deadline_exceeded _ -> "deadline-exceeded"
  | Fatal _ -> "fatal"

(* The generic combinator.  [op ~attempt] reports [`Transient] (retry
   after a backoff) or [`Fatal] (surface immediately).  [on_retry] fires
   before each backoff sleep — retry accounting for reports. *)
let with_backoff ~rng ?(policy = default) ?(on_retry = fun ~attempt:_ _ -> ())
    op =
  let t0 = Unix.gettimeofday () in
  let rec go attempt delay =
    match op ~attempt with
    | Ok _ as ok -> ok
    | Error (`Fatal e) -> Error (Fatal e)
    | Error (`Transient e) ->
        let elapsed_s = Unix.gettimeofday () -. t0 in
        if attempt >= policy.max_attempts then
          Error (Exhausted { attempts = attempt; elapsed_s; last = e })
        else if
          match policy.deadline_s with
          | Some d -> elapsed_s >= d
          | None -> false
        then Error (Deadline_exceeded { attempts = attempt; elapsed_s; last = e })
        else begin
          on_retry ~attempt e;
          (* Uniform jitter in [1-j, 1+j] around the nominal delay —
             applied from the very first retry: the first backoff is
             the one every client released by the same recovery takes
             at once, so an unjittered first sleep is the stampede. *)
          let jit =
            1. +. (policy.jitter *. ((Random.State.float rng 2.) -. 1.))
          in
          (* The deadline caps the sleep itself, not just the attempt
             count: a backoff must never overshoot the caller's
             wall-clock budget and report the overrun afterwards. *)
          let sleep =
            match policy.deadline_s with
            | Some d -> Float.max 0. (Float.min (delay *. jit) (d -. elapsed_s))
            | None -> delay *. jit
          in
          Unix.sleepf sleep;
          go (attempt + 1) (Float.min policy.max_delay_s (delay *. policy.multiplier))
        end
  in
  go 1 policy.base_delay_s

(* -- Broker adapters --------------------------------------------------------- *)

let verdict_of (v : Broker.Backpressure.verdict) ~retry_overflow =
  match v with
  | Broker.Backpressure.Accepted -> Ok ()
  | Broker.Backpressure.Retry | Broker.Backpressure.Unavailable ->
      Error (`Transient (Broker.Backpressure.verdict_name v))
  | Broker.Backpressure.Overflow ->
      if retry_overflow then
        Error (`Transient (Broker.Backpressure.verdict_name v))
      else Error (`Fatal (Broker.Backpressure.verdict_name v))

let enqueue ~rng ?policy ?on_retry ?(retry_overflow = false) service ~stream
    item =
  with_backoff ~rng ?policy ?on_retry (fun ~attempt:_ ->
      verdict_of ~retry_overflow (Broker.Service.enqueue service ~stream item))

(* Batch enqueue: on a partial acceptance (Overflow with a non-empty
   granted prefix) only the unaccepted remainder is re-batched, so the
   stream's order is preserved and nothing is enqueued twice. *)
let enqueue_batch ~rng ?policy ?on_retry ?(retry_overflow = false) service
    ~stream items =
  let total = List.length items in
  let pending = ref items in
  let accepted = ref 0 in
  let r =
    with_backoff ~rng ?policy ?on_retry (fun ~attempt:_ ->
        match !pending with
        | [] -> Ok ()
        | batch -> (
            let n, verdict =
              Broker.Service.enqueue_batch service ~stream batch
            in
            accepted := !accepted + n;
            if n > 0 then
              pending := List.filteri (fun i _ -> i >= n) batch;
            match verdict with
            | Broker.Backpressure.Accepted -> Ok ()
            | v -> verdict_of ~retry_overflow v))
  in
  match r with
  | Ok () -> (total, Ok ())
  | Error e -> (!accepted, Error e)

(* -- Admission adapters ------------------------------------------------------ *)

(* Admission verdicts split differently from backpressure ones.  A shed
   (Quota_exceeded / Overloaded / Deadline_exceeded) is the admission
   layer saying "the system is past its knee or you are past your
   contract" — retrying it by default is how overload turns into
   collapse, so sheds are Fatal unless the caller opts in
   ([retry_shed], the storm's case: quotas refill and watermarks drain
   between attempts, and its producers must make progress to keep the
   acked range contiguous).  The service's own verdicts keep their
   backpressure classification. *)
let admission_decision_of (d : Broker.Admission.decision) ~retry_shed
    ~retry_overflow =
  match d with
  | Broker.Admission.Admitted _ -> Ok ()
  | Broker.Admission.Shed s ->
      let name = Broker.Admission.shed_name s in
      if retry_shed then Error (`Transient name) else Error (`Fatal name)
  | Broker.Admission.Rejected v -> verdict_of ~retry_overflow v

let admission_enqueue ~rng ?policy ?on_retry ?(retry_shed = false)
    ?(retry_overflow = false) admission ~tenant ~stream ?arrival item =
  with_backoff ~rng ?policy ?on_retry (fun ~attempt:_ ->
      admission_decision_of ~retry_shed ~retry_overflow
        (Broker.Admission.enqueue admission ~tenant ~stream ?arrival item))

(* Batched admission enqueue: partial grants (quota prefixes and
   service-side partial acceptance) re-batch only the unadmitted
   remainder, exactly like [enqueue_batch]. *)
let admission_enqueue_batch ~rng ?policy ?on_retry ?(retry_shed = false)
    ?(retry_overflow = false) admission ~tenant ~stream ?arrival items =
  let total = List.length items in
  let pending = ref items in
  let accepted = ref 0 in
  let r =
    with_backoff ~rng ?policy ?on_retry (fun ~attempt:_ ->
        match !pending with
        | [] -> Ok ()
        | batch -> (
            let n, decision =
              Broker.Admission.enqueue_batch admission ~tenant ~stream
                ?arrival batch
            in
            accepted := !accepted + n;
            if n > 0 then pending := List.filteri (fun i _ -> i >= n) batch;
            match decision with
            | Broker.Admission.Admitted _ -> Ok ()
            | d -> admission_decision_of ~retry_shed ~retry_overflow d))
  in
  match r with
  | Ok () -> (total, Ok ())
  | Error e -> (!accepted, Error e)

let dequeue_any ~rng ?policy ?on_retry service =
  with_backoff ~rng ?policy ?on_retry (fun ~attempt:_ ->
      match Broker.Service.dequeue_any service with
      | Broker.Service.Item v -> Ok (Some v)
      | Broker.Service.Empty -> Ok None
      | Broker.Service.Busy -> Error (`Transient "busy")
      | Broker.Service.Unavailable -> Error (`Transient "unavailable"))
