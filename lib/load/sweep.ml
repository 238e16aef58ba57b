(* Rate sweep, knee location, bench rows and the regression gate for
   [dq load]. *)

type point = { p_mult : float; p_offered_hz : float; p_report : Gen.report }

type result = {
  sw_mode : string;
  sw_capacity_hz : float;
  sw_points : point list;
  sw_knee_mult : float;
  sw_knee_hz : float;
}

let capacity_estimate (cfg : Gen.config) =
  let l = cfg.Gen.latency in
  let per_shard =
    if l.Nvm.Latency.enabled && l.Nvm.Latency.drain_wall
       && l.Nvm.Latency.fence_per_flush_ns > 0
    then 1e9 /. float_of_int l.Nvm.Latency.fence_per_flush_ns
    else 20_000.
  in
  let share = if cfg.Gen.consumers > 0 then 2. else 1. in
  per_shard *. float_of_int cfg.Gen.shards /. share

(* The shared tenant mix: a hot-keyed strict tenant carrying most of
   the load, a buffered (leader) tenant, and a quota-capped strict
   tenant whose bucket binds only above the knee.  t_rate_hz values
   are weights; [run] rescales them per point.

   The shed deadline is 2x the SLA, not the SLA itself: a deadline at
   the SLA sheds exactly the ops sitting on the p99 boundary, so the
   knee's two qualifiers (admit >= 99%, p99 <= SLA) fight each other
   at marginal load and the knee never locates.  At 2x, admission
   sheds only work that is already hopeless — the same bound the gate
   allows accepted ops above the knee. *)
let tenant_mix ~sla_s ~quota_hz =
  [
    {
      Gen.tenant_default with
      Gen.t_rate_hz = 0.55;
      t_keyspace = 32;
      t_theta = 0.99;
      t_deadline_s = Some (2. *. sla_s);
    };
    {
      Gen.tenant_default with
      Gen.t_rate_hz = 0.30;
      t_acks = Broker.Service.Acks_leader;
      t_keyspace = 64;
      t_theta = 0.8;
    };
    {
      Gen.tenant_default with
      Gen.t_rate_hz = 0.15;
      t_keyspace = 16;
      t_quota_hz = quota_hz;
      t_quota_burst = 64.;
      t_deadline_s = Some (2. *. sla_s);
    };
  ]

let smoke_config () =
  let base = { Gen.config_default with Gen.duration_s = 0.6 } in
  let cap = capacity_estimate base in
  { base with Gen.tenants = tenant_mix ~sla_s:base.Gen.sla_s ~quota_hz:(0.10 *. cap) }

let full_config () =
  let base =
    {
      Gen.config_default with
      Gen.shards = 4;
      producers = 4;
      consumers = 2;
      duration_s = 2.5;
    }
  in
  let cap = capacity_estimate base in
  { base with Gen.tenants = tenant_mix ~sla_s:base.Gen.sla_s ~quota_hz:(0.10 *. cap) }

let admit_frac (r : Gen.report) =
  let t = r.Gen.rep_totals in
  if t.Broker.Admission.a_sent = 0 then 1.
  else
    float_of_int t.Broker.Admission.a_admitted
    /. float_of_int t.Broker.Admission.a_sent

(* The knee: highest point that admits >= 99% of offered load and
   meets the strict SLA — located only if some higher point exists
   and fails one of the two (otherwise the sweep never saturated). *)
let knee points =
  let qualifies p = admit_frac p.p_report >= 0.99 && p.p_report.Gen.rep_sla_ok in
  let rec last_good acc = function
    | [] -> acc
    | p :: rest -> last_good (if qualifies p then Some p else acc) rest
  in
  match last_good None points with
  | None -> (0., 0.)
  | Some k ->
      if List.exists (fun p -> p.p_mult > k.p_mult && not (qualifies p)) points
      then (k.p_mult, k.p_offered_hz)
      else (0., 0.)

let run ?mults ~mode (cfg : Gen.config) =
  let mults =
    match mults with
    | Some m -> m
    | None ->
        if mode = "smoke" then [ 0.4; 0.8; 1.6; 3.0 ]
        else [ 0.3; 0.6; 0.9; 1.2; 2.0; 4.0 ]
  in
  let cap = capacity_estimate cfg in
  let weight_sum =
    List.fold_left (fun s t -> s +. t.Gen.t_rate_hz) 0. cfg.Gen.tenants
  in
  let points =
    List.map
      (fun mult ->
        let total = cap *. mult in
        let tenants =
          List.map
            (fun t ->
              { t with Gen.t_rate_hz = total *. t.Gen.t_rate_hz /. weight_sum })
            cfg.Gen.tenants
        in
        let r = Gen.run { cfg with Gen.tenants } in
        { p_mult = mult; p_offered_hz = total; p_report = r })
      (List.sort compare mults)
  in
  let knee_mult, knee_hz = knee points in
  {
    sw_mode = mode;
    sw_capacity_hz = cap;
    sw_points = points;
    sw_knee_mult = knee_mult;
    sw_knee_hz = knee_hz;
  }

let ms v = v *. 1e3

let rows res =
  let point p =
    let r = p.p_report in
    let t = r.Gen.rep_totals in
    let m = r.Gen.rep_strict_durable in
    Harness.Bench_row.
      [ str "bench" "load"; str "kind" "point"; str "mode" res.sw_mode;
        num 2 "mult" p.p_mult; num 1 "offered_hz" p.p_offered_hz;
        num 1 "admitted_hz" r.Gen.rep_admitted_hz;
        num 4 "admit_frac" (admit_frac r); num 3 "p50_ms" (ms m.Metrics.p50_s);
        num 3 "p99_ms" (ms m.Metrics.p99_s);
        num 3 "p999_ms" (ms m.Metrics.p999_s);
        num 3 "all_p99_ms" (ms r.Gen.rep_durable.Metrics.p99_s);
        num 3 "deq_p99_ms" (ms r.Gen.rep_dequeue.Metrics.p99_s);
        int "degraded" t.Broker.Admission.a_degraded;
        int "shed_quota" t.Broker.Admission.a_shed_quota;
        int "shed_overload" t.Broker.Admission.a_shed_overload;
        int "shed_deadline" t.Broker.Admission.a_shed_deadline;
        int "rejected" t.Broker.Admission.a_rejected;
        int "demoted" r.Gen.rep_demoted; num 1 "sla_ms" (ms r.Gen.rep_sla_s);
        int "sla_ok" (if r.Gen.rep_sla_ok then 1 else 0) ]
  in
  List.map point res.sw_points
  @ [ Harness.Bench_row.
        [ str "bench" "load"; str "kind" "knee"; str "mode" res.sw_mode;
          num 2 "knee_mult" res.sw_knee_mult; num 1 "knee_hz" res.sw_knee_hz;
          num 1 "capacity_hz" res.sw_capacity_hz ] ]

let write_json ~path res = Harness.Bench_row.write ~lines:true ~path (rows res)

let gate ~baseline ~frac res =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun p ->
      match p.p_report.Gen.rep_check with
      | Ok () -> ()
      | Error e -> err "point %.2fx: delivery check failed: %s" p.p_mult e)
    res.sw_points;
  if res.sw_knee_hz <= 0. then
    err "knee not located: no sweep point both met the SLA and saturated above";
  List.iter
    (fun p ->
      if res.sw_knee_mult > 0. && p.p_mult > res.sw_knee_mult then begin
        let t = p.p_report.Gen.rep_totals in
        let reacted =
          t.Broker.Admission.a_shed_quota + t.Broker.Admission.a_shed_overload
          + t.Broker.Admission.a_shed_deadline + t.Broker.Admission.a_rejected
          > 0
        in
        if not reacted then
          err "point %.2fx is above the knee but nothing was shed or rejected"
            p.p_mult;
        let strict = p.p_report.Gen.rep_strict_durable in
        let bound = 2. *. p.p_report.Gen.rep_sla_s /. frac in
        if strict.Metrics.n > 0 && strict.Metrics.p99_s > bound then
          err
            "point %.2fx: accepted strict p99 %.1fms exceeds degraded-mode \
             bound %.1fms"
            p.p_mult (ms strict.Metrics.p99_s) (ms bound)
      end)
    res.sw_points;
  let rows = rows res in
  List.iter
    (fun spec ->
      List.iter
        (fun (f : Harness.Bench_row.failure) -> err "%s: %s" f.key f.detail)
        (Harness.Bench_row.gate ~frac { spec with baseline } rows))
    [ Harness.Bench_row.load_points; Harness.Bench_row.load_knee ];
  List.rev !errs

let pp ppf res =
  Format.fprintf ppf
    "mode %s: capacity estimate %.0f Hz, %d points@\n" res.sw_mode
    res.sw_capacity_hz
    (List.length res.sw_points);
  List.iter
    (fun p ->
      let r = p.p_report in
      let t = r.Gen.rep_totals in
      Format.fprintf ppf
        "  %.2fx  offered %7.0f Hz  admitted %7.0f Hz (%.0f%%)  strict p99 \
         %6.2fms  shed q/o/d %d/%d/%d  degraded %d  sla %s@\n"
        p.p_mult p.p_offered_hz r.Gen.rep_admitted_hz
        (100. *. admit_frac r)
        (ms r.Gen.rep_strict_durable.Metrics.p99_s)
        t.Broker.Admission.a_shed_quota t.Broker.Admission.a_shed_overload
        t.Broker.Admission.a_shed_deadline t.Broker.Admission.a_degraded
        (if r.Gen.rep_sla_ok then "ok" else "MISS"))
    res.sw_points;
  if res.sw_knee_hz > 0. then
    Format.fprintf ppf "  knee: %.2fx capacity = %.0f Hz@\n" res.sw_knee_mult
      res.sw_knee_hz
  else Format.fprintf ppf "  knee: not located@\n"
