(* Registry of every queue algorithm in the evaluation, keyed by the names
   used in the paper's Figure 2.  The harness, tests and benchmarks iterate
   over this list to treat all algorithms uniformly. *)

type entry = {
  name : string;
  make : Nvm.Heap.t -> Queue_intf.instance;
  durable : bool;  (* survives crashes (MSQ does not) *)
  in_figure2 : bool;  (* appears in the paper's Figure 2 *)
}

let entry (type a) name (module Q : Queue_intf.S with type t = a) ~durable
    ~in_figure2 =
  { name; make = Queue_intf.instantiate (module Q); durable; in_figure2 }

let all : entry list =
  [
    entry Durable_msq.name (module Durable_msq) ~durable:true ~in_figure2:true;
    (* UnlinkedQ and OptUnlinkedQ carry a live {!Checkpoint} handle:
       recovery consults the committed epoch (identical to the native
       full scan while no checkpoint was ever taken), and the broker's
       checkpoint scheduler can compact their heaps at quiescence. *)
    {
      name = Unlinked_q.name;
      make = Unlinked_q.make_checkpointed;
      durable = true;
      in_figure2 = true;
    };
    entry Linked_q.name (module Linked_q) ~durable:true ~in_figure2:true;
    {
      name = Opt_unlinked_q.name;
      make = Opt_unlinked_q.make_checkpointed;
      durable = true;
      in_figure2 = true;
    };
    entry Opt_linked_q.name (module Opt_linked_q) ~durable:true ~in_figure2:true;
    entry Izraelevitz_q.name
      (module Izraelevitz_q)
      ~durable:true ~in_figure2:true;
    entry Nvtraverse_q.name (module Nvtraverse_q) ~durable:true ~in_figure2:true;
    entry Ptm_queue.One_file_q.name
      (module Ptm_queue.One_file_q)
      ~durable:true ~in_figure2:true;
    entry Ptm_queue.Redo_opt_q.name
      (module Ptm_queue.Redo_opt_q)
      ~durable:true ~in_figure2:true;
    entry Msq.name (module Msq) ~durable:false ~in_figure2:false;
    entry Onll_q.name (module Onll_q) ~durable:true ~in_figure2:false;
    entry Durable_msq_r.name (module Durable_msq_r) ~durable:true
      ~in_figure2:false;
    (* Design alternatives and ablation variants (DESIGN.md). *)
    entry Wide_unlinked_q.name
      (module Wide_unlinked_q)
      ~durable:true ~in_figure2:false;
    entry Unlinked_q.Local_index.name
      (module Unlinked_q.Local_index)
      ~durable:true ~in_figure2:false;
    entry Opt_unlinked_q.Store_flush.name
      (module Opt_unlinked_q.Store_flush)
      ~durable:true ~in_figure2:false;
    entry Opt_linked_q.Store_flush.name
      (module Opt_linked_q.Store_flush)
      ~durable:true ~in_figure2:false;
    entry Linked_q.No_pred_cut.name
      (module Linked_q.No_pred_cut)
      ~durable:true ~in_figure2:false;
    entry Opt_linked_q.No_pred_cut.name
      (module Opt_linked_q.No_pred_cut)
      ~durable:true ~in_figure2:false;
  ]

let durable = List.filter (fun e -> e.durable) all
let figure2 = List.filter (fun e -> e.in_figure2) all

let find name =
  match List.find_opt (fun e -> e.name = name) all with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.find: unknown queue %S (have: %s)" name
           (String.concat ", " (List.map (fun e -> e.name) all)))

(* Same algorithm, but every instance is span-instrumented: enqueue,
   dequeue and recover each run inside a labeled span on their heap, and
   construction is accounted under an excluded setup span
   ({!Instrumented}).  Composes with [shards]. *)
let instrumented entry = { entry with make = Instrumented.make entry.make }

(* Same algorithm behind the flat-combining enqueue front-end
   ({!Combining_q}): instances elect a combiner that applies announced
   enqueues as single-fence batches with a pipelined drain.  Compose
   over [instrumented] so the combine spans wrap instrumented per-op
   spans — the shape the fence audit bounds. *)
let combining entry =
  {
    entry with
    name = entry.name ^ Combining_q.name_suffix;
    make =
      (fun heap ->
        Combining_q.instance (Combining_q.create heap (entry.make heap)));
  }

(* The buffered-durability tier ({!Buffered_q}) as an entry:
   group-commit persistence with an explicit [sync].  It runs no
   registry algorithm — its journal is the queue — and composes under
   [instrumented] ([instrumented (buffered ())]) like any entry. *)
let buffered ?watermark ?capacity () =
  {
    name = Buffered_q.name;
    make =
      (fun heap ->
        Buffered_q.instance (Buffered_q.create ?watermark ?capacity heap));
    durable = true;
    in_figure2 = false;
  }

(* The four queues contributed by the paper. *)
let contributions =
  [ "UnlinkedQ"; "LinkedQ"; "OptUnlinkedQ"; "OptLinkedQ" ]

(* The durable keyed-store tier: the two hash-map variants registered
   alongside the queues so censuses, strict audits and registry-driven
   tests cover every durable structure uniformly. *)
type map_entry = {
  m_name : string;
  make_map : Nvm.Heap.t -> Dset.Map_intf.instance;
  lazy_remove : bool;  (* removals persist lazily (SOFT) *)
}

let map_entry (type a) (module M : Dset.Map_intf.S with type t = a) =
  {
    m_name = M.name;
    make_map = Dset.Map_intf.instantiate (module M);
    lazy_remove = M.lazy_remove;
  }

let maps : map_entry list =
  [
    map_entry (module Dset.Link_free_map);
    map_entry (module Dset.Soft_map);
  ]

let find_map name =
  match List.find_opt (fun e -> e.m_name = name) maps with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.find_map: unknown map %S (have: %s)" name
           (String.concat ", " (List.map (fun e -> e.m_name) maps)))

let instrumented_map entry =
  { entry with make_map = Dset.Instrumented.make entry.make_map }

(* Shard constructor: [n] independent instances of one algorithm, each on
   its own fresh heap — its own simulated DIMM, with private persist
   statistics and an independently crashable/recoverable NVM image.  The
   broker subsystem composes these into one multi-queue service. *)
let shards ?(mode = Nvm.Heap.Checked) ?(latency = Nvm.Latency.off) entry ~n =
  if n < 1 then invalid_arg "Registry.shards: need at least one shard";
  Array.init n (fun _ ->
      let heap = Nvm.Heap.create ~mode ~latency () in
      (heap, entry.make heap))
