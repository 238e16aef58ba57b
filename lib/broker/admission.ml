(* Admission control in front of the sharded service: quotas,
   watermarks, deadline shedding and graceful degradation.

   The layer exists for the open-loop regime.  Closed-loop clients slow
   down when the broker does; open-loop arrivals do not, so past the
   device's saturation knee the only choices are unbounded queueing
   (every latency percentile grows without bound) or turning the excess
   away before it costs device bandwidth.  Everything here runs before
   the shard sees the operation:

   - the token bucket charges a tenant for what it actually got
     admitted (rejections refund), so one tenant's storm cannot starve
     the others' contracted rates;
   - watermarks read the target shard's queue depth against its bound
     and answer in tiers: yellow degrades (demote an all-synced tenant
     onto the leader tier, trading per-op drains for group commits),
     red sheds.  The buffered tier's durability lag is no signal: every
     journal line commits inside the append that fills it, so the lag
     stays below one line ({!Dq.Buffered_q});
   - the deadline check sheds work that has already missed its SLA at
     admission time: enqueueing it would spend a full device drain
     making an answer nobody is waiting for, which is exactly how
     backlogs turn into collapse.

   Demotion and restoration ([restore_demoted]) only change a stream's
   level, and the service keeps per-stream FIFO under any level change
   (a stream once on the buffered tier stays there), so either may
   happen under live traffic.

   One mutex guards the buckets, counters and demotion table.  The
   serialization is deliberate: admission decisions are a few dozen
   nanoseconds against the 200 us device drains they gate, and a single
   lock keeps the charge/refund accounting exact under multi-domain
   producers.  The lock is NOT held across the service call itself —
   the device drain under a wall-clock profile sleeps for whole device
   slots, and holding the admission mutex through it would serialize
   every producer behind every other producer's drain, across shards.
   Admission decides locked, enqueues unlocked, then settles the
   refund/counters locked again. *)

type watermarks = { yellow_depth : float; red_depth : float }

let default_watermarks = { yellow_depth = 0.5; red_depth = 0.85 }

type level = Green | Yellow | Red

let level_name = function
  | Green -> "green"
  | Yellow -> "yellow"
  | Red -> "red"

type tenant = {
  rate_hz : float;
  burst : float;
  acks : Service.acks;
  deadline_s : float option;
}

let unlimited ?(acks = Service.Acks_all_synced) () =
  { rate_hz = infinity; burst = infinity; acks; deadline_s = None }

type shed = Quota_exceeded | Overloaded of string | Deadline_exceeded

type decision =
  | Admitted of Service.acks
  | Shed of shed
  | Rejected of Backpressure.verdict

let shed_name = function
  | Quota_exceeded -> "quota-exceeded"
  | Overloaded _ -> "overloaded"
  | Deadline_exceeded -> "deadline-exceeded"

let decision_name = function
  | Admitted _ -> "admitted"
  | Shed s -> shed_name s
  | Rejected v -> "rejected:" ^ Backpressure.verdict_name v

(* Mutable per-tenant state: the bucket plus the census counters. *)
type tstate = {
  mutable cfg : tenant;
  mutable tokens : float;
  mutable refilled_at : float;
  mutable sent : int;
  mutable admitted : int;
  mutable degraded : int;
  mutable shed_quota : int;
  mutable shed_overload : int;
  mutable shed_deadline : int;
  mutable rejected : int;
}

type t = {
  svc : Service.t;
  wm : watermarks;
  now : unit -> float;
  mu : Mutex.t;
  tenants : (int, tstate) Hashtbl.t;
  demoted : (int, Service.acks) Hashtbl.t;  (* stream -> requested level *)
}

let create ?(watermarks = default_watermarks) ?(now = Unix.gettimeofday) svc =
  {
    svc;
    wm = watermarks;
    now;
    mu = Mutex.create ();
    tenants = Hashtbl.create 16;
    demoted = Hashtbl.create 16;
  }

let service t = t.svc

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let state_locked t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some s -> s
  | None ->
      let cfg = unlimited () in
      let s =
        {
          cfg;
          tokens = cfg.burst;
          refilled_at = t.now ();
          sent = 0;
          admitted = 0;
          degraded = 0;
          shed_quota = 0;
          shed_deadline = 0;
          shed_overload = 0;
          rejected = 0;
        }
      in
      Hashtbl.add t.tenants tenant s;
      s

let set_tenant t ~tenant cfg =
  locked t (fun () ->
      let s = state_locked t ~tenant in
      s.cfg <- cfg;
      s.tokens <- Float.min s.tokens cfg.burst;
      if cfg.rate_hz = infinity then s.tokens <- cfg.burst)

let tenant_config t ~tenant =
  locked t (fun () -> (state_locked t ~tenant).cfg)

(* -- Watermarks -------------------------------------------------------------- *)

(* Read the target shard's depth gauge (bound included).  A lock-free
   read of a monotonic-ish counter: a slightly stale level is fine —
   watermarks are thresholds, not invariants. *)
let shard_level t ~shard =
  let sh = (Service.shards t.svc).(shard) in
  let frac =
    float_of_int (Shard.depth sh) /. float_of_int (Shard.depth_bound sh)
  in
  if frac >= t.wm.red_depth then Red
  else if frac >= t.wm.yellow_depth then Yellow
  else Green

let red_reason t ~shard =
  let sh = (Service.shards t.svc).(shard) in
  Printf.sprintf "shard %d depth %d/%d >= %.0f%%" shard (Shard.depth sh)
    (Shard.depth_bound sh) (t.wm.red_depth *. 100.)

(* -- Token bucket ------------------------------------------------------------ *)

let refill_locked s ~now =
  if s.cfg.rate_hz <> infinity then begin
    let dt = Float.max 0. (now -. s.refilled_at) in
    s.tokens <- Float.min s.cfg.burst (s.tokens +. (s.cfg.rate_hz *. dt))
  end;
  s.refilled_at <- now

(* Grant up to [want] tokens, returning the granted count (prefix
   semantics for batches). *)
let acquire_locked s ~now ~want =
  if s.cfg.rate_hz = infinity then want
  else begin
    refill_locked s ~now;
    let n = min want (int_of_float s.tokens) in
    s.tokens <- s.tokens -. float_of_int n;
    n
  end

let refund_locked s n =
  if s.cfg.rate_hz <> infinity && n > 0 then
    s.tokens <- Float.min s.cfg.burst (s.tokens +. float_of_int n)

(* -- Degradation ------------------------------------------------------------- *)

(* The demotion a yellow watermark buys: an all-synced tenant's stream
   moves onto the buffered leader tier — group commits instead of a
   full drain per op, durability lag below one journal line.  The
   stream keeps its FIFO: its older items sit on the strict tier, which
   drains first. *)
let demote_locked t ~stream ~requested =
  if Hashtbl.mem t.demoted stream then Service.Acks_leader
  else begin
    Hashtbl.replace t.demoted stream requested;
    Service.set_stream_acks t.svc ~stream Service.Acks_leader;
    Service.Acks_leader
  end

let effective_locked t ~stream ~(cfg : tenant) ~level =
  match Hashtbl.find_opt t.demoted stream with
  | Some _ -> Service.Acks_leader  (* already demoted: stay demoted *)
  | None -> (
      match (level, cfg.acks) with
      | Yellow, Service.Acks_all_synced when Service.buffered_tier t.svc ->
          demote_locked t ~stream ~requested:cfg.acks
      | _ -> cfg.acks)

let demoted_streams t =
  locked t (fun () ->
      Hashtbl.fold (fun s _ acc -> s :: acc) t.demoted []
      |> List.sort compare)

let restore_demoted t =
  locked t (fun () ->
      let restored =
        Hashtbl.fold
          (fun stream requested acc -> (stream, requested) :: acc)
          t.demoted []
        |> List.sort compare
      in
      List.iter
        (fun (stream, requested) ->
          Service.set_stream_acks t.svc ~stream requested;
          Hashtbl.remove t.demoted stream)
        restored;
      List.map fst restored)

(* -- The admission pipeline -------------------------------------------------- *)

(* Make sure the stream's service-side acks level matches what the
   tenant contracted (streams inherit the service default otherwise).
   Idempotent; the demotion table overrides. *)
let ensure_stream_acks_locked t ~stream ~(effective : Service.acks) =
  if Service.stream_acks t.svc ~stream <> effective then
    Service.set_stream_acks t.svc ~stream effective

(* The decision phase runs under the mutex; the verdict says what to
   do once it is released. *)
type plan =
  | Answer of int * decision  (* settled without touching the service *)
  | Go of int * Service.acks  (* granted tokens, effective acks level *)

let enqueue_batch t ~tenant ~stream ?arrival items =
  match items with
  | [] -> (0, Admitted (tenant_config t ~tenant).acks)
  | items ->
      let want = List.length items in
      let now = t.now () in
      let arrival = Option.value ~default:now arrival in
      let shard = Service.shard_of_stream t.svc ~stream in
      let plan =
        locked t (fun () ->
            let s = state_locked t ~tenant in
            s.sent <- s.sent + want;
            (* Quarantine passthrough: the service could not accept this
               regardless of quota, and the caller must see the
               difference between "shard fenced off" and "you are over
               your rate". *)
            if Service.shard_quarantined t.svc ~shard then begin
              s.rejected <- s.rejected + want;
              Answer (0, Rejected Backpressure.Unavailable)
            end
            else
              (* Deadline shed: the whole batch shares one arrival stamp,
                 and an op that has already burned its SLA budget in the
                 arrival backlog cannot meet it no matter how fast the
                 device is. *)
              let late =
                match s.cfg.deadline_s with
                | Some d -> now -. arrival > d
                | None -> false
              in
              if late then begin
                s.shed_deadline <- s.shed_deadline + want;
                Answer (0, Shed Deadline_exceeded)
              end
              else
                match shard_level t ~shard with
                | Red ->
                    s.shed_overload <- s.shed_overload + want;
                    Answer (0, Shed (Overloaded (red_reason t ~shard)))
                | (Green | Yellow) as level ->
                    let granted = acquire_locked s ~now ~want in
                    if granted = 0 then begin
                      s.shed_quota <- s.shed_quota + want;
                      Answer (0, Shed Quota_exceeded)
                    end
                    else begin
                      let effective =
                        effective_locked t ~stream ~cfg:s.cfg ~level
                      in
                      ensure_stream_acks_locked t ~stream ~effective;
                      Go (granted, effective)
                    end)
      in
      match plan with
      | Answer (n, d) -> (n, d)
      | Go (granted, effective) ->
          (* Unlocked: the enqueue may sleep through whole device
             slots, and other producers' admission decisions must not
             queue behind it. *)
          let batch =
            if granted = want then items
            else List.filteri (fun i _ -> i < granted) items
          in
          let n, verdict = Service.enqueue_batch t.svc ~stream batch in
          locked t (fun () ->
              let s = state_locked t ~tenant in
              refund_locked s (granted - n);
              s.admitted <- s.admitted + n;
              let requested = s.cfg.acks in
              if effective <> requested then s.degraded <- s.degraded + n;
              match verdict with
              | Backpressure.Accepted when granted < want ->
                  s.shed_quota <- s.shed_quota + (want - granted);
                  (n, Shed Quota_exceeded)
              | Backpressure.Accepted -> (n, Admitted effective)
              | v ->
                  s.shed_quota <- s.shed_quota + (want - granted);
                  s.rejected <- s.rejected + (granted - n);
                  (n, Rejected v))

let enqueue t ~tenant ~stream ?arrival item =
  let n, d = enqueue_batch t ~tenant ~stream ?arrival [ item ] in
  assert (n = 0 || n = 1);
  d

(* -- Accounting -------------------------------------------------------------- *)

type row = {
  a_tenant : int;
  a_sent : int;
  a_admitted : int;
  a_degraded : int;
  a_shed_quota : int;
  a_shed_overload : int;
  a_shed_deadline : int;
  a_rejected : int;
}

let row_of tenant (s : tstate) =
  {
    a_tenant = tenant;
    a_sent = s.sent;
    a_admitted = s.admitted;
    a_degraded = s.degraded;
    a_shed_quota = s.shed_quota;
    a_shed_overload = s.shed_overload;
    a_shed_deadline = s.shed_deadline;
    a_rejected = s.rejected;
  }

let rows t =
  locked t (fun () ->
      Hashtbl.fold (fun tenant s acc -> row_of tenant s :: acc) t.tenants []
      |> List.sort (fun a b -> compare a.a_tenant b.a_tenant))

let totals t =
  List.fold_left
    (fun acc r ->
      {
        a_tenant = -1;
        a_sent = acc.a_sent + r.a_sent;
        a_admitted = acc.a_admitted + r.a_admitted;
        a_degraded = acc.a_degraded + r.a_degraded;
        a_shed_quota = acc.a_shed_quota + r.a_shed_quota;
        a_shed_overload = acc.a_shed_overload + r.a_shed_overload;
        a_shed_deadline = acc.a_shed_deadline + r.a_shed_deadline;
        a_rejected = acc.a_rejected + r.a_rejected;
      })
    {
      a_tenant = -1;
      a_sent = 0;
      a_admitted = 0;
      a_degraded = 0;
      a_shed_quota = 0;
      a_shed_overload = 0;
      a_shed_deadline = 0;
      a_rejected = 0;
    }
    (rows t)

let pp_rows ppf t =
  match rows t with
  | [] -> Format.fprintf ppf "admission: no tenants seen@."
  | rows_ ->
      List.iter
        (fun r ->
          Format.fprintf ppf
            "  tenant %d: sent %d, admitted %d (%d degraded), shed %d \
             (quota %d, overload %d, deadline %d), rejected %d@."
            r.a_tenant r.a_sent r.a_admitted r.a_degraded
            (r.a_shed_quota + r.a_shed_overload + r.a_shed_deadline)
            r.a_shed_quota r.a_shed_overload r.a_shed_deadline r.a_rejected)
        rows_;
      let tot = totals t in
      Format.fprintf ppf
        "admission: %d sent, %d admitted (%d degraded), %d shed, %d \
         rejected over %d tenants@."
        tot.a_sent tot.a_admitted tot.a_degraded
        (tot.a_shed_quota + tot.a_shed_overload + tot.a_shed_deadline)
        tot.a_rejected (List.length rows_)
