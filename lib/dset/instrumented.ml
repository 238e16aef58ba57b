(* Span-instrumented map instances, mirroring {!Dq.Instrumented} for the
   queues.

   Every logical operation runs inside a labeled {!Nvm.Span} on the
   map's heap: "ins", "del" and "get" are the steady-state operation
   spans the fence audit bounds (see {!Spec.Fence_audit}), "sync" and
   "recover" are deliberately separate (both are allowed to persist
   freely), and construction runs under an excluded "setup:create" span
   so initial designated-area persists never pollute operation
   accounting. *)

let ins_label = "ins"
let del_label = "del"
let get_label = "get"
let sync_label = "sync"
let recover_label = "recover"
let create_label = "setup:create"

(* The labels the per-op map audit bounds apply to. *)
let op_labels = [ ins_label; del_label; get_label ]

let wrap heap (inst : Map_intf.instance) : Map_intf.instance =
  let spans = Nvm.Heap.spans heap in
  {
    inst with
    put =
      (fun ~key ~value ->
        Nvm.Span.with_span spans ins_label (fun () ->
            inst.put ~key ~value));
    remove =
      (fun ~key ->
        Nvm.Span.with_span spans del_label (fun () -> inst.remove ~key));
    get =
      (fun ~key ->
        Nvm.Span.with_span spans get_label (fun () -> inst.get ~key));
    mem =
      (fun ~key ->
        Nvm.Span.with_span spans get_label (fun () -> inst.mem ~key));
    sync = (fun () -> Nvm.Span.with_span spans sync_label inst.sync);
    recover =
      (fun () -> Nvm.Span.with_span spans recover_label inst.recover);
  }

(* Instrumented constructor for a registry map entry's [make_map]. *)
let make (mk : Nvm.Heap.t -> Map_intf.instance) heap =
  let inst =
    Nvm.Span.with_span ~exclude:true (Nvm.Heap.spans heap) create_label
      (fun () -> mk heap)
  in
  wrap heap inst
