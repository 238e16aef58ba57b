(* Span-instrumented queue instances.

   Wraps a {!Queue_intf.instance} so that every logical operation runs
   inside a labeled {!Nvm.Span} on the queue's heap: "enq" and "deq" are
   the steady-state operation spans the fence audit bounds, "recover" is
   deliberately separate (recovery is allowed to fence freely), and queue
   construction runs under an excluded "setup:create" span so initial
   designated-area persists never pollute operation accounting.  The
   broker's batched operations additionally wrap whole batches in a
   "batch" span ({!batch_label}), which under
   {!Nvm.Heap.with_batched_fences} owns the batch's single closing fence
   while the per-op spans inside it observe zero. *)

let enq_label = "enq"
let deq_label = "deq"
let recover_label = "recover"
let batch_label = "batch"

let combine_label = "combine"
(* A combiner's pass over the announce array ({!Combining_q}): like
   "batch", the span owns the pass's single closing fence while the op
   spans it applies observe zero. *)

let sync_label = "sync"
(* A buffered queue's commit on [sync] or on its ring guard
   ({!Buffered_q}): owns the commit's one split fence on behalf of the
   whole group, while the buffered op spans themselves are
   fence-free. *)

let write_behind_label = "write-behind"
(* A buffered queue's write-behind ({!Buffered_q}): the append that
   fills a journal line commits it under this excluded span — one flush
   and one split fence the appending call does not wait for.  Not a
   [setup:] label: its flushes are device work on the op path. *)

let create_label = "setup:create"
let alloc_label = "setup:alloc"  (* opened by Nvm.Heap.alloc_region *)

(* The labels the per-op audit bounds apply to. *)
let op_labels = [ enq_label; deq_label ]

(* The batch-granularity spans that own one closing fence apiece. *)
let batch_labels = [ batch_label; combine_label ]

let wrap heap (inst : Queue_intf.instance) : Queue_intf.instance =
  let spans = Nvm.Heap.spans heap in
  {
    inst with
    enqueue =
      (fun v -> Nvm.Span.with_span1 spans enq_label inst.enqueue v);
    dequeue =
      (fun () -> Nvm.Span.with_span spans deq_label inst.dequeue);
    recover =
      (fun () -> Nvm.Span.with_span spans recover_label inst.recover);
  }

(* Instrumented constructor for a registry entry's [make]. *)
let make (mk : Nvm.Heap.t -> Queue_intf.instance) heap =
  let inst =
    Nvm.Span.with_span ~exclude:true (Nvm.Heap.spans heap) create_label
      (fun () -> mk heap)
  in
  wrap heap inst
