(* The traced run's span capture.

   No span sink is attached in normal service operation.  A traced run
   installs one on every shard heap's tracker: each closed span (queue
   op, offset-map op, group commit) is stamped with its wall-clock close
   time and counter delta into a buffer preallocated for the closing
   domain, attributed to the driver call in flight on that domain.
   Spans closing on a domain without a buffer (the main domain's syncs,
   recovery domains) are not recorded. *)

type buf = {
  mutable len : int;
  mutable dropped : int;
  mutable cur : int;  (* op of the in-flight call; -1 until known *)
  op : int array;
  label : string array;
  close : float array;
  fences : int array;
  flushes : int array;
  movntis : int array;
}

let buf ~cap =
  {
    len = 0;
    dropped = 0;
    cur = -1;
    op = Array.make cap (-1);
    label = Array.make cap "";
    close = Array.make cap 0.;
    fences = Array.make cap 0;
    flushes = Array.make cap 0;
    movntis = Array.make cap 0;
  }

let key : buf option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let attach b = Domain.DLS.set key (Some b)

let sink (c : Nvm.Span.closed) =
  if not (c.instant || c.excluded) then
    match Domain.DLS.get key with
    | None -> ()
    | Some b ->
        let j = b.len in
        if j = Array.length b.op then b.dropped <- b.dropped + 1
        else begin
          b.op.(j) <- b.cur;
          b.label.(j) <- c.label;
          b.close.(j) <- Unix.gettimeofday ();
          b.fences.(j) <- c.delta.Nvm.Stats.fences;
          b.flushes.(j) <- c.delta.Nvm.Stats.flushes;
          b.movntis.(j) <- c.delta.Nvm.Stats.movntis;
          b.len <- j + 1
        end

let install svc =
  Array.iter
    (fun sh -> Nvm.Span.set_sink (Nvm.Heap.spans (Broker.Shard.heap sh)) (Some sink))
    (Broker.Service.shards svc)

let uninstall svc =
  Array.iter
    (fun sh -> Nvm.Span.set_sink (Nvm.Heap.spans (Broker.Shard.heap sh)) None)
    (Broker.Service.shards svc)

(* The device time a fence drains: its flushes and movntis at the
   profile's per-line drain costs (the wall-clock service time, not the
   contention-scaled modelled nanoseconds). *)
let device_s ~flushes ~movntis =
  let l = Nvm.Latency.dimm_wall in
  float_of_int
    ((flushes * l.Nvm.Latency.fence_per_flush_ns)
    + (movntis * l.Nvm.Latency.fence_per_movnti_ns))
  *. 1e-9

let drain_s b j = device_s ~flushes:b.flushes.(j) ~movntis:b.movntis.(j)

let drain_since b ~mark =
  let s = ref 0. in
  for j = mark to b.len - 1 do
    s := !s +. drain_s b j
  done;
  !s

(* A consumer call's spans are known to serve an op only once it
   returns an item: adopt them, or drop them after an empty poll. *)
let adopt b ~mark ~op =
  for j = mark to b.len - 1 do
    b.op.(j) <- op
  done

let discard b ~mark = b.len <- mark

(* -- Stage chains ----------------------------------------------------------- *)

(* Per admitted op, the end-to-end intervals split into stages:
     ack      = late + call
     call     = drain + nondevice
     durable  = ack                          (strict)
              = ack + fill + commit_drain    (leader)
     deliver  = ack + residence
   Stages that are physical waits must not be negative: the producer
   never starts before the op is due, a call lasts at least the device
   time it drained, a commit's drain ends after its issue, and nothing
   is delivered before its enqueue call began.  Residence itself may be
   negative: the consumer can take an item while its producer still
   sleeps out the drain. *)
let chain_violations (ops : Ops.t) ~drain =
  let eps = 1e-6 and slack = 1e-5 in
  let bad = ref [] in
  let fail i what =
    if List.length !bad < 5 then
      bad := Printf.sprintf "op %d: %s" i what :: !bad
  in
  for i = 0 to ops.n - 1 do
    let o = ops.outcome.(i) in
    if Ops.admitted o then begin
      let late = ops.start.(i) -. ops.due.(i)
      and call = ops.ack.(i) -. ops.start.(i)
      and ack = ops.ack.(i) -. ops.due.(i) in
      if Float.abs (late +. call -. ack) > eps then fail i "ack <> late + call";
      if late < -.slack then fail i "called before due";
      let nondevice = call -. drain.(i) in
      if nondevice < -.slack then fail i "call shorter than its device drain";
      let durable = ops.durable.(i) -. ops.due.(i) in
      if o = Ops.strict then begin
        if durable <> ack then fail i "strict durable <> ack"
      end
      else begin
        let fill = ops.commit_issue.(i) -. ops.ack.(i)
        and commit_drain = ops.durable.(i) -. ops.commit_issue.(i) in
        if ops.commit_issue.(i) = 0. then fail i "leader op never committed"
        else if Float.abs (ack +. fill +. commit_drain -. durable) > eps then
          fail i "durable <> ack + fill + commit_drain"
        else if commit_drain < -.slack then fail i "commit drained before issue"
      end;
      let residence = ops.deliver.(i) -. ops.ack.(i)
      and deliver = ops.deliver.(i) -. ops.due.(i) in
      if Float.abs (ack +. residence -. deliver) > eps then
        fail i "deliver <> ack + residence";
      if ops.deliver.(i) < ops.start.(i) -. slack then
        fail i "delivered before its enqueue began"
    end
  done;
  List.rev !bad

(* -- Chrome trace ----------------------------------------------------------- *)

(* One async track per op (shared id), on a wall-clock microsecond axis
   from the window open: the op's stages, and inside its calls the
   spans the sink attributed to it, each drawn over its device drain. *)
let export oc (ops : Ops.t) ~t0 (bufs : buf list) =
  let us t = (t -. t0) *. 1e6 in
  let first = ref true in
  let ev ?(args = "") name ph ~id ~tid ts =
    if !first then first := false else output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":\"%s\",\"cat\":\"op\",\"ph\":\"%s\",\"id\":%d,\"pid\":0,\"tid\":%d,\"ts\":%.3f%s}"
      name ph id tid (us ts) args
  in
  let span ?args name ~id ~tid a b =
    if b >= a then begin
      ev ?args name "b" ~id ~tid a;
      ev name "e" ~id ~tid b
    end
  in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to ops.n - 1 do
    let o = ops.outcome.(i) in
    if o <> Ops.pending then begin
      span "late" ~id:i ~tid:0 ops.due.(i) ops.start.(i);
      span "call" ~id:i ~tid:0 ops.start.(i) ops.ack.(i);
      if o = Ops.buffered then begin
        span "fill" ~id:i ~tid:0 ops.ack.(i) ops.commit_issue.(i);
        span "commit_drain" ~id:i ~tid:0 ops.commit_issue.(i) ops.durable.(i)
      end;
      if ops.deliver.(i) > 0. then begin
        span "residence" ~id:i ~tid:1 ops.ack.(i) ops.deliver.(i);
        span "dequeue" ~id:i ~tid:1 ops.deq_start.(i) ops.deliver.(i)
      end
    end
  done;
  List.iteri
    (fun tid b ->
      for j = 0 to b.len - 1 do
        if b.op.(j) >= 0 then
          span b.label.(j) ~id:b.op.(j) ~tid
            ~args:
              (Printf.sprintf
                 ",\"args\":{\"fences\":%d,\"flushes\":%d,\"movntis\":%d}"
                 b.fences.(j) b.flushes.(j) b.movntis.(j))
            (b.close.(j) -. drain_s b j)
            b.close.(j)
      done)
    bufs;
  output_string oc "\n]}\n"
