(* Per-op stamps, preallocated before the window opens.  The producer
   domain writes the call stamps and the outcome (and, through the
   buffered tier's commit callback, the durable stamps of leader ops);
   the consumer domain writes only the delivery stamps.  Nothing is read
   before both domains are joined. *)

(* Outcomes. *)
let pending = -1
let strict = 0  (* admitted at acks=all-synced: durable at return *)
let buffered = 1  (* admitted on the group-commit tier *)
let shed_quota = 2
let shed_deadline = 3
let shed_overload = 4
let rejected = 5  (* the service's own backpressure verdict *)

let admitted o = o = strict || o = buffered

type t = {
  n : int;
  tenant : int array;
  stream : int array;
  value : int array;
  offset : float array;  (* planned arrival, seconds into the load *)
  due : float array;  (* absolute due time *)
  start : float array;  (* producer call entry *)
  ack : float array;  (* producer call return *)
  outcome : int array;
  durable : float array;
  commit_issue : float array;  (* leader ops: when their commit was issued *)
  deq_start : float array;  (* entry of the dequeue call that delivered it *)
  deliver : float array;  (* that call's return *)
  index : (int, int) Hashtbl.t;  (* value -> op *)
}

let create (plan : Workload.op array) =
  let n = Array.length plan in
  let floats () = Array.make n 0. in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i (o : Workload.op) -> Hashtbl.replace index o.value i) plan;
  {
    n;
    tenant = Array.map (fun (o : Workload.op) -> o.tenant) plan;
    stream = Array.map (fun (o : Workload.op) -> o.stream) plan;
    value = Array.map (fun (o : Workload.op) -> o.value) plan;
    offset = Array.map (fun (o : Workload.op) -> o.offset) plan;
    due = floats ();
    start = floats ();
    ack = floats ();
    outcome = Array.make n pending;
    durable = floats ();
    commit_issue = floats ();
    deq_start = floats ();
    deliver = floats ();
    index;
  }

(* The op carrying [v]; -1 for values outside the schedule (warmup
   sentinels). *)
let find t v = match Hashtbl.find t.index v with i -> i | exception Not_found -> -1

(* Buffered-tier durable stamping: each group commit covers the journal
   suffix since the previous one; those ops become durable at the
   commit's drain deadline (the Nvm.Heap wall clock, Unix.gettimeofday).
   Runs with the tier's append lock held, on the committing domain. *)
let stamp_commits t (b : Dq.Buffered_q.t) =
  let last = ref (Dq.Buffered_q.committed_floor b) in
  Dq.Buffered_q.set_on_commit b
    (Some
       (fun ~floor ~consumed:_ ~drain ->
         let issued = Unix.gettimeofday () in
         let dl = Nvm.Heap.drain_deadline drain in
         let dl = if dl > 0. then dl else issued in
         for j = !last to floor - 1 do
           let i = find t (Dq.Buffered_q.journal_value b j) in
           if i >= 0 && t.durable.(i) = 0. then begin
             t.durable.(i) <- dl;
             t.commit_issue.(i) <- issued
           end
         done;
         last := floor))
