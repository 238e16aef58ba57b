(* Broker-level persist-instruction census.

   Each shard heap keeps exact per-operation span aggregates
   ({!Nvm.Span}); the census merges them across shards so the paper's
   per-queue invariants stay auditable end-to-end through the broker:
   with 1-fence/op queues the broker must execute at most one blocking
   fence per operation — and, batched, at most one per batch per shard —
   and, over the Opt queues, zero accesses to flushed content. *)

(* -- Span census ----------------------------------------------------------- *)

(* The shard instances are span-instrumented ({!Shard.create_all}), so
   each shard heap carries exact per-operation deltas with worst-case
   (max) columns — the per-op shape of the invariants: one violating
   operation fails the audit even in a sea of compliant ones. *)

type per_op = {
  ops : int;  (* enq + deq spans *)
  batches : int;  (* batch spans (batched paths only) *)
  op_fences : float;  (* averages over op spans *)
  op_flushes : float;
  op_movntis : float;
  op_post_flush : float;
  max_op_fences : int;  (* worst single operation *)
  max_op_flushes : int;
  max_op_movntis : int;
  max_op_post_flush : int;
  max_batch_fences : int;  (* worst single batch: bound 1 *)
  op_fences_total : int;  (* exact steady-state sums *)
  batch_fences_total : int;
  op_post_flush_total : int;
  setup_fences : int;  (* fences attributed to setup:* spans *)
}

let span_aggregates service =
  Array.to_list (Service.shards service)
  |> List.concat_map (fun sh ->
         Nvm.Span.aggregates (Nvm.Heap.spans (Shard.heap sh)))
  |> Nvm.Span.merge_aggregates

let is_setup label =
  String.length label >= 6 && String.sub label 0 6 = "setup:"

let per_op_of_aggregates (aggs : Nvm.Span.agg list) : per_op =
  let z =
    {
      ops = 0;
      batches = 0;
      op_fences = 0.;
      op_flushes = 0.;
      op_movntis = 0.;
      op_post_flush = 0.;
      max_op_fences = 0;
      max_op_flushes = 0;
      max_op_movntis = 0;
      max_op_post_flush = 0;
      max_batch_fences = 0;
      op_fences_total = 0;
      batch_fences_total = 0;
      op_post_flush_total = 0;
      setup_fences = 0;
    }
  in
  let sums = Nvm.Stats.zero () in
  let acc =
    List.fold_left
      (fun acc (a : Nvm.Span.agg) ->
        if List.mem a.Nvm.Span.agg_label Dq.Instrumented.op_labels then begin
          Nvm.Stats.add sums a.Nvm.Span.sum;
          {
            acc with
            ops = acc.ops + a.Nvm.Span.count;
            max_op_fences = max acc.max_op_fences a.Nvm.Span.max_fences;
            max_op_flushes = max acc.max_op_flushes a.Nvm.Span.max_flushes;
            max_op_movntis = max acc.max_op_movntis a.Nvm.Span.max_movntis;
            max_op_post_flush =
              max acc.max_op_post_flush a.Nvm.Span.max_post_flush;
            op_fences_total =
              acc.op_fences_total + a.Nvm.Span.sum.Nvm.Stats.fences;
            op_post_flush_total =
              acc.op_post_flush_total
              + Nvm.Stats.post_flush_accesses a.Nvm.Span.sum;
          }
        end
        else if List.mem a.Nvm.Span.agg_label Dq.Instrumented.batch_labels
        then
          {
            acc with
            batches = acc.batches + a.Nvm.Span.count;
            max_batch_fences = max acc.max_batch_fences a.Nvm.Span.max_fences;
            batch_fences_total =
              acc.batch_fences_total + a.Nvm.Span.sum.Nvm.Stats.fences;
          }
        else if is_setup a.Nvm.Span.agg_label then
          {
            acc with
            setup_fences = acc.setup_fences + a.Nvm.Span.sum.Nvm.Stats.fences;
          }
        else acc)
      z aggs
  in
  let f x = if acc.ops = 0 then 0. else float_of_int x /. float_of_int acc.ops in
  {
    acc with
    op_fences = f sums.Nvm.Stats.fences;
    op_flushes = f sums.Nvm.Stats.flushes;
    op_movntis = f sums.Nvm.Stats.movntis;
    op_post_flush = f (Nvm.Stats.post_flush_accesses sums);
  }

let span_census service = per_op_of_aggregates (span_aggregates service)

(* The strict per-span audit: every operation span (and every batch and
   checkpoint-flip span) individually within its bound for this
   service's algorithm — and, when the durable offset tier is attached,
   every map operation span within its variant's bound on the same
   shard heaps. *)
let strict_audit service =
  let aggs = span_aggregates service in
  Result.bind
    (Spec.Fence_audit.check_aggregates ~name:(Service.algorithm service) aggs)
    (fun () ->
      match Service.offsets service with
      | None -> Ok ()
      | Some off ->
          Spec.Fence_audit.check_aggregates ~name:(Offsets.map_name off) aggs)

(* -- Durability census ------------------------------------------------------- *)

(* The buffered tier's view: how far persistence lags execution on each
   shard, and how the lag is being paid down (commits as journal lines
   fill vs explicit syncs).  Empty without the tier. *)

type durability_row = {
  d_shard : int;
  d_lag : int;  (* operations executed but not covered by a commit *)
  d_appended : int;  (* buffered enqueues ever journaled *)
  d_floor : int;  (* enqueues covered by the last issued commit *)
  d_commits : int;  (* commits issued (write-behind, sync, ring guard) *)
  d_syncs : int;  (* explicit sync calls *)
}

let durability service =
  Array.to_list (Service.shards service)
  |> List.filter_map (fun sh ->
         match Shard.buffered sh with
         | None -> None
         | Some b ->
             let st = Dq.Buffered_q.stats b in
             Some
               {
                 d_shard = Shard.id sh;
                 d_lag = Dq.Buffered_q.durability_lag b;
                 d_appended = Dq.Buffered_q.appended b;
                 d_floor = Dq.Buffered_q.committed_floor b;
                 d_commits = st.Dq.Buffered_q.s_commits;
                 d_syncs = st.Dq.Buffered_q.s_syncs;
               })

(* The buffered tier's journal persists over all shard heaps: its
   commits on sync or the ring guard ("sync" spans) and the
   write-behinds that commit each journal line as it fills (excluded
   "write-behind" spans).  The two labels never nest, so each persist
   counts once.  Together with [durability] this is the buffered
   bargain in numbers — journal fences and flushes amortized over
   appended operations against the lag they leave. *)
type journal = { j_commits : int; j_fences : int; j_flushes : int }

let journal_persists service =
  List.fold_left
    (fun j (a : Nvm.Span.agg) ->
      let label = a.Nvm.Span.agg_label in
      if
        label = Dq.Instrumented.sync_label
        || label = Dq.Instrumented.write_behind_label
      then
        {
          j_commits = j.j_commits + a.Nvm.Span.count;
          j_fences = j.j_fences + a.Nvm.Span.sum.Nvm.Stats.fences;
          j_flushes = j.j_flushes + a.Nvm.Span.sum.Nvm.Stats.flushes;
        }
      else j)
    { j_commits = 0; j_fences = 0; j_flushes = 0 }
    (span_aggregates service)

let pp_durability ppf service =
  match durability service with
  | [] -> Format.fprintf ppf "durability: strict (no buffered tier)@."
  | rows ->
      let j = journal_persists service in
      let appended =
        List.fold_left (fun acc r -> acc + r.d_appended) 0 rows
      in
      let per_op n =
        if appended = 0 then 0. else float_of_int n /. float_of_int appended
      in
      List.iter
        (fun r ->
          Format.fprintf ppf
            "  shard %d: lag %d (appended %d, floor %d), %d commits, %d \
             syncs@."
            r.d_shard r.d_lag r.d_appended r.d_floor r.d_commits r.d_syncs)
        rows;
      Format.fprintf ppf
        "durability: total lag %d over %d buffered ops; %d commit spans; \
         the journal's commits own %d fences, %d \
         flushes (%.4f fences/buffered-op, %.4f flushes/buffered-op)@."
        (List.fold_left (fun acc r -> acc + r.d_lag) 0 rows)
        appended j.j_commits j.j_fences j.j_flushes (per_op j.j_fences)
        (per_op j.j_flushes)

(* -- Occupancy census ------------------------------------------------------- *)

(* The compaction view: how much of each shard's DIMM is live vs
   reclaimed by checkpoint retirement.  Under a running checkpoint
   scheduler the live-region count should plateau; without one it grows
   linearly with churn — the difference is exactly what bounds recovery
   time. *)

type occupancy_row = {
  o_shard : int;
  o_live_regions : int;
  o_allocated_regions : int;  (* cumulative, including recycled ids *)
  o_retired_regions : int;
  o_live_words : int;
  o_reclaimed_words : int;
}

let occupancy service =
  Array.to_list (Service.shards service)
  |> List.map (fun sh ->
         let o = Shard.occupancy sh in
         {
           o_shard = Shard.id sh;
           o_live_regions = Nvm.Stats.live_regions o;
           o_allocated_regions = o.Nvm.Stats.regions_allocated;
           o_retired_regions = o.Nvm.Stats.regions_retired;
           o_live_words = Nvm.Stats.live_words o;
           o_reclaimed_words = o.Nvm.Stats.words_reclaimed;
         })

let pp_occupancy ppf service =
  let rows = occupancy service in
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  shard %d: %d live regions (%d allocated, %d retired), %d live \
         words (%d reclaimed)@."
        r.o_shard r.o_live_regions r.o_allocated_regions r.o_retired_regions
        r.o_live_words r.o_reclaimed_words)
    rows;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Format.fprintf ppf
    "occupancy: %d live regions across %d shards; %d retired, %d words \
     reclaimed@."
    (sum (fun r -> r.o_live_regions))
    (List.length rows)
    (sum (fun r -> r.o_retired_regions))
    (sum (fun r -> r.o_reclaimed_words))

(* End to end: batch spans own the fences their op spans elide. *)
let pp_per_op ppf p =
  Format.fprintf ppf
    "span census over %d ops (%d batches): fences/op %.4f (max %d per op, \
     %d per batch), flushes/op %.4f (max %d), movnti/op %.4f (max %d), \
     post-flush/op %.4f (max %d), setup fences %d@."
    p.ops p.batches
    (if p.ops = 0 then 0.
     else
       float_of_int (p.op_fences_total + p.batch_fences_total)
       /. float_of_int p.ops)
    p.max_op_fences p.max_batch_fences p.op_flushes p.max_op_flushes
    p.op_movntis p.max_op_movntis p.op_post_flush p.max_op_post_flush
    p.setup_fences
