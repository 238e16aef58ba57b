(* Per-span persist-bound audit over a run's span aggregates.  See the
   mli. *)

type bound = {
  max_fences : int;
  max_flushes : int option;
  max_post_flush : int option;
}

(* The combining front-end ({!Dq.Combining_q}) suffixes instance and
   registry names; its per-op and per-batch bounds are the wrapped
   queue's (combine spans own batch fences, op spans inside observe
   zero), so bounds are looked up under the base name. *)
let base_name name =
  let sfx = Dq.Combining_q.name_suffix in
  let n = String.length name and k = String.length sfx in
  if n > k && String.sub name (n - k) k = sfx then String.sub name 0 (n - k)
  else name

let fences n =
  Some { max_fences = n; max_flushes = None; max_post_flush = None }

(* The paper's per-operation worst cases: ONLL-Q fences once per update
   too, and only the Opt variants additionally promise zero accesses to
   flushed content (the second amendment).  The maps follow Zuriel et
   al. as mirrored by lib/dset: both insert with one fence, link-free
   bounds delete and lookup by one fence (flush-on-traversal-dependence),
   SOFT's delete and lookup are persistence-free.  Post-flush accesses
   are unbounded for maps: reading a persisted SOFT node is a post-flush
   read by design. *)
let bound ~name ~label =
  let queue_op = List.mem label Dq.Instrumented.op_labels in
  let batch = List.mem label Dq.Instrumented.batch_labels in
  let map_op = List.mem label Dset.Instrumented.op_labels in
  match base_name name with
  | _ when label = Dq.Checkpoint.flip_label ->
      Some { max_fences = 1; max_flushes = Some 0; max_post_flush = None }
  | ("UnlinkedQ" | "LinkedQ" | "ONLL-Q") when queue_op || batch -> fences 1
  | "OptUnlinkedQ" | "OptLinkedQ" when queue_op ->
      Some { max_fences = 1; max_flushes = None; max_post_flush = Some 0 }
  | "OptUnlinkedQ" | "OptLinkedQ" when batch -> fences 1
  | "LinkFreeMap" when map_op -> fences 1
  | "SOFTMap" when label = Dset.Instrumented.ins_label -> fences 1
  | "SOFTMap" when map_op ->
      Some { max_fences = 0; max_flushes = Some 0; max_post_flush = None }
  | _ -> None

let audited name =
  List.exists
    (fun label -> bound ~name ~label <> None)
    (Dq.Instrumented.op_labels @ Dset.Instrumented.op_labels)

let check_aggregates ~name aggs =
  let problems =
    List.concat_map
      (fun (a : Nvm.Span.agg) ->
        let label = a.Nvm.Span.agg_label in
        let over what worst = function
          | Some limit when worst > limit ->
              [
                Printf.sprintf "%s: worst %s span made %d %s (bound: %d)"
                  name label worst what limit;
              ]
          | _ -> []
        in
        match bound ~name ~label with
        | None -> []
        | Some b ->
            over "fences" a.Nvm.Span.max_fences (Some b.max_fences)
            @ over "flushes" a.Nvm.Span.max_flushes b.max_flushes
            @ over "post-flush accesses" a.Nvm.Span.max_post_flush
                b.max_post_flush)
      aggs
  in
  if problems = [] then Ok () else Error (String.concat "; " problems)
