(* The four workloads and their seeded arrival schedules.

   Every workload shares one shape: OptUnlinkedQ on 2 shards with
   Round_robin pinning under the Nvm.Latency.dimm_wall device profile,
   one producer domain and one consumer domain.  Arrivals are planned up
   front (Load.Arrivals for the Poisson offsets, Harness.Zipf for the
   keys), so the load is open-loop: a slow broker makes ops late, it
   does not slow the schedule down. *)

module S = Broker.Service

type tenant = {
  share : float;  (* fraction of the workload's base rate *)
  acks : S.acks;
  keys : int;  (* streams; stream = tenant * stream_space + key *)
  quota_hz : float;  (* admission token rate; infinity = none *)
  quota_burst : float;
  deadline_s : float option;  (* admission sheds ops older than this *)
}

type kind =
  | Open_loop
      (* Fast heaps, every op through Broker.Admission, the consumer on
         Service.dequeue_any; one window of --seconds *)
  | Crash_cycles
      (* Checked heaps with the durable offset maps: enqueue_once and
         dequeue_committed in short load slices, each followed by a
         quiesce, a checkpoint tick and a full crash recovery *)

type t = {
  name : string;
  kind : kind;
  rate_hz : float;  (* base offered rate, all tenants together *)
  burst : float;  (* rate multiplier over the middle third of the window *)
  tenants : tenant list;
}

let tenant ?(quota_hz = infinity) ?(quota_burst = infinity)
    ?deadline_s ~share ~acks ~keys () =
  { share; acks; keys; quota_hz; quota_burst; deadline_s }

(* About half of one producer's strict capacity (3.03 kops/s in the
   durability bench's all-synced row), so the per-op persist path does
   the work and admission never engages. *)
let strict_steady =
  {
    name = "strict-steady";
    kind = Open_loop;
    rate_hz = 1500.;
    burst = 1.;
    tenants = [ tenant ~share:1. ~acks:S.Acks_all_synced ~keys:64 () ];
  }

(* A buffered dequeue still pays a 120 us device drain (the strict
   tier's empty probe), so one consumer caps near 7k dequeues/s; 3 kHz
   keeps it under half busy, where a slower host stretches the deliver
   tail instead of multiplying it. *)
let buffered_stream =
  {
    name = "buffered-stream";
    kind = Open_loop;
    rate_hz = 3000.;
    burst = 1.;
    tenants = [ tenant ~share:1. ~acks:S.Acks_leader ~keys:64 () ];
  }

(* The burst takes the strict tenants well past one producer's capacity,
   so the producer falls behind the schedule: deadline sheds and the
   quota do the work.  At 3x the burst sits at about 90% of the
   producer's capacity, where lateness swings with each schedule (10-12%
   seed-to-seed spread in deliver_p50_ms); at 4x deadline sheds hold the
   producer's lateness at the hot tenant's deadline and the spread falls
   to 1-3%.  With a synchronous producer the backlog waits in the
   generator, not in shard depth or lag, so no watermark trips and no
   stream is demoted. *)
let overload_burst =
  {
    name = "overload-burst";
    kind = Open_loop;
    rate_hz = 2000.;
    burst = 4.;
    tenants =
      [
        tenant ~share:0.55 ~acks:S.Acks_all_synced ~keys:8 ~deadline_s:0.010 ();
        tenant ~share:0.30 ~acks:S.Acks_leader ~keys:64 ();
        tenant ~share:0.15 ~acks:S.Acks_all_synced ~keys:64 ~quota_hz:400.
          ~quota_burst:64. ();
      ];
  }

(* One tenant whose keys are split 48 strict / 16 leader (key mod 4 = 3
   is leader, so a hot key sits on each tier).  An exactly-once publish
   drains twice (queue node, dedup record), about 0.6 ms on a Checked
   heap: 500 Hz keeps the producer under a third busy, where a slower
   host stretches the tail instead of multiplying it. *)
let crash_recover =
  {
    name = "crash-recover";
    kind = Crash_cycles;
    rate_hz = 500.;
    burst = 1.;
    tenants = [ tenant ~share:1. ~acks:S.Acks_all_synced ~keys:64 () ];
  }

let all = [ strict_steady; buffered_stream; overload_burst; crash_recover ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (expected one of: %s)" name
           (String.concat ", " (List.map (fun w -> w.name) all)))

(* Crash-recover: one 100 ms load slice per cycle, five cycles per
   second of --seconds, at most [max_cycles].  A cycle's crash image,
   recovery and checkpoint take about as long again as its slice, so the
   cycles fill the window; 125 cycles at 25 s leave 12 samples beyond
   p90.  The cap exists because each recovery abandons the buffered
   mirror's regions (about 3 per shard per cycle): 200 cycles leave a
   shard heap near 600 of Nvm.Heap.max_regions' 1024. *)
let slice_s = 0.1
let max_cycles = 200

let cycles ~seconds =
  max 1 (min max_cycles (int_of_float (Float.round (seconds *. 5.))))

(* The load itself spans the window for open-loop workloads and the
   concatenated slices for crash cycles. *)
let load_seconds w ~seconds =
  match w.kind with
  | Open_loop -> seconds
  | Crash_cycles -> float_of_int (cycles ~seconds) *. slice_s

let stream_space = 4096
let stream_of ~tenant ~key = (tenant * stream_space) + key
let key_of stream = stream mod stream_space
let tenant_of stream = stream / stream_space

(* The stream's requested durability level. *)
let stream_acks w stream =
  match w.kind with
  | Crash_cycles ->
      if key_of stream mod 4 = 3 then S.Acks_leader else S.Acks_all_synced
  | Open_loop -> (List.nth w.tenants (tenant_of stream)).acks

(* Every stream of the workload, key-major across tenants: pinning in
   this order spreads each tenant's hot keys over the shards. *)
let streams w =
  let max_keys = List.fold_left (fun m t -> max m t.keys) 0 w.tenants in
  List.concat_map
    (fun key ->
      List.concat
        (List.mapi
           (fun ti t -> if key < t.keys then [ stream_of ~tenant:ti ~key ] else [])
           w.tenants))
    (List.init max_keys Fun.id)

(* Sentinel streams for warmup, far above every tenant stream. *)
let warmup_stream ~tier ~shard = ((stream_space - 1 - tier) * stream_space) + shard

type op = { offset : float; tenant : int; stream : int; value : int }

(* The schedule: per-tenant Poisson offsets (the burst multiplies the
   rate over the middle third of the load), Zipf keys, merged by time,
   sequence numbers per stream in schedule order.  A function of the
   workload, the seed and the load length only. *)
let plan w ~seed ~seconds =
  let duration_s = load_seconds w ~seconds in
  let bursts =
    if w.burst = 1. then []
    else
      [
        {
          Load.Arrivals.b_start_s = duration_s /. 3.;
          b_dur_s = duration_s /. 3.;
          b_mult = w.burst;
        };
      ]
  in
  let per_tenant =
    List.mapi
      (fun ti t ->
        let rng =
          Random.State.make
            [| Harness.Zipf.worker_seed ~seed ~worker:(2 * ti) |]
        in
        let zipf =
          Harness.Zipf.create_worker ~n:t.keys ~seed
            ~worker:((2 * ti) + 1) ()
        in
        Load.Arrivals.plan ~rng ~rate_hz:(w.rate_hz *. t.share) ~duration_s
          ~bursts ()
        |> Array.map (fun off ->
               (off, ti, stream_of ~tenant:ti ~key:(Harness.Zipf.draw zipf))))
      w.tenants
  in
  let all = Array.concat per_tenant in
  Array.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) all;
  let next_seq = Hashtbl.create 256 in
  Array.map
    (fun (offset, tenant, stream) ->
      let seq = Option.value ~default:1 (Hashtbl.find_opt next_seq stream) in
      Hashtbl.replace next_seq stream (seq + 1);
      {
        offset;
        tenant;
        stream;
        value = Spec.Durable_check.encode ~producer:stream ~seq;
      })
    all
