(* The delivery check every workload ends with: after the final drain,
   the consumer's log must hold every admitted op exactly once, nothing
   else, and each stream's ops in sequence order.  Values carry the
   Spec.Durable_check encoding (stream, seq), so this is that module's
   full-run check with an empty remainder: conservation, no duplicates,
   no phantoms, per-stream FIFO. *)

let delivery ~admitted ~delivered =
  Spec.Durable_check.check ~remaining:[]
    [| { Spec.Durable_check.enqueued = admitted; dequeued = delivered } |]
