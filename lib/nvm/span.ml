(* Op-scoped persist spans.  See span.mli for the model.

   The per-thread totals array is the same [Stats.t] the heap used to bump
   directly; every primitive now routes through [record], which also
   advances a per-thread logical instruction clock (the trace timestamp).
   A span frame snapshots the thread's counters at open; its delta at
   close is exact for that operation.  Excluded (setup) spans add their
   delta to every enclosing frame's baseline so steady-state op spans are
   never charged for allocator growth.  A frame opened inside an excluded
   one is excluded too, and is charged to no frame but its own: a
   constructor's "setup:create" does not also count the "setup:alloc"
   frames of the regions it allocates.

   Hot-path discipline: opening and closing a span allocates nothing in
   steady state.  Frames live in a preallocated per-thread stack whose
   baseline records are refreshed in place ([Stats.blit]); the close delta
   is computed into a reused scratch record; aggregation memoizes the last
   label's bucket (operation labels are compile-time string constants, so
   physical equality identifies the common case without hashing).  A
   [closed] record is materialised only for the public [close_span], the
   trace ring, and the sink — none of which are on the benchmark path. *)

type kind =
  | Read
  | Write
  | Cas
  | Flush
  | Fence
  | Movnti
  | Post_flush_read
  | Post_flush_write

type closed = {
  label : string;
  tid : int;
  seq : int;
  t0 : int;
  t1 : int;
  delta : Stats.counters;
  excluded : bool;
  instant : bool;  (* a point event ([event]), not a span *)
}

type agg = {
  agg_label : string;
  mutable count : int;
  sum : Stats.counters;
  mutable max_flushes : int;
  mutable max_fences : int;
  mutable max_movntis : int;
  mutable max_post_flush : int;
}

type frame = {
  mutable f_label : string;
  mutable f_t0 : int;
  mutable f_exclude : bool;
  at_open : Stats.counters;  (* baseline; shifted by excluded children *)
}

type per_thread = {
  mutable frames : frame array;  (* preallocated stack; [depth] live *)
  mutable depth : int;
  mutable clock : int;  (* logical instruction clock: one tick per record *)
  mutable next_seq : int;
  scratch : Stats.counters;  (* close-time delta, reused *)
  aggs : (string, agg) Hashtbl.t;
  mutable last_label : string;  (* memoized aggregation bucket *)
  mutable last_agg : agg option;
  mutable ring : closed option array;  (* [||] when tracing is off *)
  mutable ring_next : int;
  (* Tail padding: per-thread records are allocated back to back and
     [clock] is bumped on every recorded instruction; keep neighbouring
     threads off this record's cache line. *)
  mutable pad_0 : int;
  mutable pad_1 : int;
  mutable pad_2 : int;
  mutable pad_3 : int;
  mutable pad_4 : int;
  mutable pad_5 : int;
  mutable pad_6 : int;
  mutable pad_7 : int;
}

type t = {
  totals : Stats.t;
  threads : per_thread array;
  mutable sink : (closed -> unit) option;
  persists : int Atomic.t;
      (* global persist-point clock: one tick per fence issued anywhere
         on the owning heap.  An operation's persist point is the stamp
         of the fence that covers its effects; the buffered-durability
         checker correlates these with invocation/response times. *)
}

let fresh_frame () =
  { f_label = ""; f_t0 = 0; f_exclude = false; at_open = Stats.zero () }

let initial_frames = 8

let create () =
  {
    totals = Stats.create ();
    threads =
      Array.init Tid.max_threads (fun _ ->
          {
            frames = Array.init initial_frames (fun _ -> fresh_frame ());
            depth = 0;
            clock = 0;
            next_seq = 0;
            scratch = Stats.zero ();
            aggs = Hashtbl.create 8;
            last_label = String.make 1 '\000';
            last_agg = None;
            ring = [||];
            ring_next = 0;
            pad_0 = 0;
            pad_1 = 0;
            pad_2 = 0;
            pad_3 = 0;
            pad_4 = 0;
            pad_5 = 0;
            pad_6 = 0;
            pad_7 = 0;
          });
    sink = None;
    persists = Atomic.make 0;
  }

let stats t = t.totals

(* -- Persist-point clock -------------------------------------------------- *)

let persist_point t = 1 + Atomic.fetch_and_add t.persists 1
let persist_now t = Atomic.get t.persists

(* -- Recording ----------------------------------------------------------- *)

(* [record_at] is the fused entry point for heap primitives that already
   hold the calling thread's id: one totals bump, one clock tick. *)
let record_at ?(n = 1) t ~tid kind =
  let c = Array.unsafe_get t.totals tid in
  (match kind with
  | Read -> c.Stats.reads <- c.Stats.reads + n
  | Write -> c.Stats.writes <- c.Stats.writes + n
  | Cas -> c.Stats.cas <- c.Stats.cas + n
  | Flush -> c.Stats.flushes <- c.Stats.flushes + n
  | Fence -> c.Stats.fences <- c.Stats.fences + n
  | Movnti -> c.Stats.movntis <- c.Stats.movntis + n
  | Post_flush_read ->
      c.Stats.post_flush_reads <- c.Stats.post_flush_reads + n
  | Post_flush_write ->
      c.Stats.post_flush_writes <- c.Stats.post_flush_writes + n);
  let pt = Array.unsafe_get t.threads tid in
  pt.clock <- pt.clock + n

let record ?n t kind = record_at ?n t ~tid:(Tid.get ()) kind

let charge_ns_at t ~tid ns =
  let c = Array.unsafe_get t.totals tid in
  c.Stats.modelled_ns <- c.Stats.modelled_ns + ns

let charge_ns t ns = charge_ns_at t ~tid:(Tid.get ()) ns

(* -- Span lifecycle ------------------------------------------------------- *)

let grow_frames pt =
  let old = pt.frames in
  let n = Array.length old in
  pt.frames <-
    Array.init (2 * n) (fun i -> if i < n then old.(i) else fresh_frame ())

let open_span_at ?(exclude = false) t ~tid label =
  let pt = t.threads.(tid) in
  if pt.depth = Array.length pt.frames then grow_frames pt;
  let f = pt.frames.(pt.depth) in
  f.f_label <- label;
  f.f_t0 <- pt.clock;
  f.f_exclude <-
    exclude || (pt.depth > 0 && pt.frames.(pt.depth - 1).f_exclude);
  Stats.blit ~src:(Stats.get t.totals tid) ~dst:f.at_open;
  pt.depth <- pt.depth + 1

let open_span ?exclude t label = open_span_at ?exclude t ~tid:(Tid.get ()) label

let fresh_agg label =
  {
    agg_label = label;
    count = 0;
    sum = Stats.zero ();
    max_flushes = 0;
    max_fences = 0;
    max_movntis = 0;
    max_post_flush = 0;
  }

(* Aggregate the scratch delta under [label]; the memo hit is a pointer
   comparison because operation labels are shared string constants. *)
let aggregate pt label =
  let agg =
    if label == pt.last_label then
      match pt.last_agg with Some a -> a | None -> assert false
    else begin
      let a =
        match Hashtbl.find_opt pt.aggs label with
        | Some a -> a
        | None ->
            let a = fresh_agg label in
            Hashtbl.add pt.aggs label a;
            a
      in
      pt.last_label <- label;
      pt.last_agg <- Some a;
      a
    end
  in
  let d = pt.scratch in
  agg.count <- agg.count + 1;
  Stats.add agg.sum d;
  if d.Stats.flushes > agg.max_flushes then agg.max_flushes <- d.Stats.flushes;
  if d.Stats.fences > agg.max_fences then agg.max_fences <- d.Stats.fences;
  if d.Stats.movntis > agg.max_movntis then agg.max_movntis <- d.Stats.movntis;
  let pf = Stats.post_flush_accesses d in
  if pf > agg.max_post_flush then agg.max_post_flush <- pf

(* Pop the innermost frame, leaving its delta in [pt.scratch] and
   returning it.  Shared by the allocating and non-allocating closes. *)
let close_common t ~tid =
  let pt = t.threads.(tid) in
  if pt.depth = 0 then invalid_arg "Nvm.Span.close_span: no open span";
  pt.depth <- pt.depth - 1;
  let f = pt.frames.(pt.depth) in
  Stats.sub_into pt.scratch (Stats.get t.totals tid) f.at_open;
  (* An excluded span's work must not be charged to its parents:
     shift every enclosing baseline forward by its delta. *)
  if f.f_exclude then
    for j = 0 to pt.depth - 1 do
      Stats.add pt.frames.(j).at_open pt.scratch
    done;
  aggregate pt f.f_label;
  let seq = pt.next_seq in
  pt.next_seq <- seq + 1;
  (f, seq)

(* Materialise a [closed] record (trace ring, sink, public close). *)
let materialise pt (f : frame) seq ~tid =
  {
    label = f.f_label;
    tid;
    seq;
    t0 = f.f_t0;
    t1 = pt.clock;
    delta = Stats.copy pt.scratch;
    excluded = f.f_exclude;
    instant = false;
  }

let retain_and_sink t pt sp =
  let cap = Array.length pt.ring in
  if cap > 0 then begin
    pt.ring.(pt.ring_next mod cap) <- Some sp;
    pt.ring_next <- pt.ring_next + 1
  end;
  match t.sink with Some f -> f sp | None -> ()

(* Record a labeled point event (a sync boundary, a drain ticket) at the
   calling thread's current clock tick.  Only materialised when a trace
   ring or sink is live, so the hot path pays one branch; instants carry
   a zero delta and never enter the per-label aggregates. *)
let event t label =
  let tid = Tid.get () in
  let pt = t.threads.(tid) in
  if Array.length pt.ring > 0 || t.sink <> None then begin
    let seq = pt.next_seq in
    pt.next_seq <- seq + 1;
    retain_and_sink t pt
      {
        label;
        tid;
        seq;
        t0 = pt.clock;
        t1 = pt.clock;
        delta = Stats.zero ();
        excluded = false;
        instant = true;
      }
  end

let close_span t =
  let tid = Tid.get () in
  let f, seq = close_common t ~tid in
  let pt = t.threads.(tid) in
  let sp = materialise pt f seq ~tid in
  retain_and_sink t pt sp;
  sp

(* Non-allocating close for the hot path: only materialises when the ring
   or the sink actually needs the record. *)
let close_span_unit_at t ~tid =
  let f, seq = close_common t ~tid in
  let pt = t.threads.(tid) in
  if Array.length pt.ring > 0 || t.sink <> None then
    retain_and_sink t pt (materialise pt f seq ~tid)

let with_span ?exclude t label f =
  let tid = Tid.get () in
  open_span_at ?exclude t ~tid label;
  match f () with
  | v ->
      close_span_unit_at t ~tid;
      v
  | exception e ->
      close_span_unit_at t ~tid;
      raise e

(* One-argument variant: lets a wrapper pass the wrapped function and its
   argument separately, so instrumenting a call does not allocate a
   closure capturing the argument on every operation. *)
let with_span1 ?exclude t label f x =
  let tid = Tid.get () in
  open_span_at ?exclude t ~tid label;
  match f x with
  | v ->
      close_span_unit_at t ~tid;
      v
  | exception e ->
      close_span_unit_at t ~tid;
      raise e

let depth t = t.threads.(Tid.get ()).depth

let abandon t =
  Array.iter (fun pt -> pt.depth <- 0) t.threads

(* -- Configuration -------------------------------------------------------- *)

let set_sink t sink = t.sink <- sink

let set_tracing t ~capacity =
  if capacity < 0 then invalid_arg "Nvm.Span.set_tracing: negative capacity";
  Array.iter
    (fun pt ->
      pt.ring <- (if capacity = 0 then [||] else Array.make capacity None);
      pt.ring_next <- 0)
    t.threads

(* -- Aggregation ---------------------------------------------------------- *)

let merge_into tbl (a : agg) =
  match Hashtbl.find_opt tbl a.agg_label with
  | None ->
      Hashtbl.add tbl a.agg_label
        {
          a with
          sum = Stats.copy a.sum;
        }
  | Some m ->
      m.count <- m.count + a.count;
      Stats.add m.sum a.sum;
      m.max_flushes <- max m.max_flushes a.max_flushes;
      m.max_fences <- max m.max_fences a.max_fences;
      m.max_movntis <- max m.max_movntis a.max_movntis;
      m.max_post_flush <- max m.max_post_flush a.max_post_flush

let sorted_of_tbl tbl =
  Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
  |> List.sort (fun a b -> compare a.agg_label b.agg_label)

let merge_aggregates aggs =
  let tbl = Hashtbl.create 8 in
  List.iter (merge_into tbl) aggs;
  sorted_of_tbl tbl

let aggregates t =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun pt -> Hashtbl.iter (fun _ a -> merge_into tbl a) pt.aggs)
    t.threads;
  sorted_of_tbl tbl

let find_aggregate t label =
  List.find_opt (fun a -> a.agg_label = label) (aggregates t)

let reset_closed t =
  Array.iter
    (fun pt ->
      Hashtbl.reset pt.aggs;
      pt.last_label <- String.make 1 '\000';
      pt.last_agg <- None;
      Array.fill pt.ring 0 (Array.length pt.ring) None;
      pt.ring_next <- 0)
    t.threads

(* -- Trace export --------------------------------------------------------- *)

(* Ring contents in close order (oldest retained first). *)
let thread_trace pt =
  let cap = Array.length pt.ring in
  if cap = 0 then []
  else begin
    let n = min pt.ring_next cap in
    let first = if pt.ring_next <= cap then 0 else pt.ring_next mod cap in
    List.filter_map
      (fun i -> pt.ring.((first + i) mod cap))
      (List.init n (fun i -> i))
  end

let trace t =
  Array.to_list t.threads |> List.concat_map thread_trace

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let counter_fields (d : Stats.counters) =
  Printf.sprintf
    "\"reads\":%d,\"writes\":%d,\"cas\":%d,\"flushes\":%d,\"fences\":%d,\"movntis\":%d,\"post_flush_reads\":%d,\"post_flush_writes\":%d,\"modelled_ns\":%d"
    d.Stats.reads d.Stats.writes d.Stats.cas d.Stats.flushes d.Stats.fences
    d.Stats.movntis d.Stats.post_flush_reads d.Stats.post_flush_writes
    d.Stats.modelled_ns

let export_jsonl t oc =
  let spans = trace t in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"label\":\"%s\",\"tid\":%d,\"seq\":%d,\"t0\":%d,\"t1\":%d,\"excluded\":%b,\"instant\":%b,%s}\n"
        (json_escape sp.label) sp.tid sp.seq sp.t0 sp.t1 sp.excluded sp.instant
        (counter_fields sp.delta))
    spans;
  List.length spans

(* Chrome trace-event format: complete events ("ph":"X") with the
   per-thread logical instruction clock as the microsecond timestamp.
   Cross-thread alignment is approximate by construction — the clocks are
   per-thread — which Perfetto tolerates for lane-local inspection. *)
let export_chrome t oc =
  let spans = trace t in
  output_string oc "[";
  List.iteri
    (fun i sp ->
      if i > 0 then output_string oc ",";
      if sp.instant then
        (* Point events — sync boundaries, group commits, drain tickets —
           render as thread-scoped instants ("ph":"i") on the same lanes
           as the op spans. *)
        Printf.fprintf oc
          "\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%d,\"pid\":0,\"tid\":%d,\"args\":{\"seq\":%d}}"
          (json_escape sp.label) sp.t0 sp.tid sp.seq
      else
        Printf.fprintf oc
          "\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":0,\"tid\":%d,\"args\":{\"seq\":%d,\"excluded\":%b,%s}}"
          (json_escape sp.label) sp.t0
          (max 1 (sp.t1 - sp.t0))
          sp.tid sp.seq sp.excluded
          (counter_fields sp.delta))
    spans;
  output_string oc "\n]\n";
  List.length spans
