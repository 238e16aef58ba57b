(* Exact linearizability checker for queue histories (Wing & Gong style
   depth-first search with state memoisation).

   A history is linearizable iff some total order of the operations (a)
   respects real-time precedence — an operation whose response precedes
   another's invocation comes first — and (b) drives the sequential queue
   specification to accept every response.  Operations pending at a crash
   may be placed anywhere after their invocation or dropped entirely,
   which is precisely the latitude durable linearizability grants
   (Observation 1), so checking a crash-spanning history reduces to
   checking the crash-free projection with pending operations optional.

   Memoisation keys pack the linearized-set bitmask with the sequential
   state's {!Seq_queue.hash} — no per-probe allocation proportional to
   the queue, which is what affords the 32-operation bound (the old
   comma-joined string key topped out at 24).

   Exponential in the worst case; intended for the small histories the
   test suite generates. *)

let max_ops = 32

(* Apply an operation to the model; [None] if its response is impossible.
   A *pending* dequeue never reported a result: if it is linearized at all
   it removes whatever is at the front (and linearizing it against an
   empty queue is a no-op, indistinguishable from dropping it). *)
let apply (op : History.op) q =
  match (op.kind, op.res) with
  | History.Enqueue v, _ -> Some (Seq_queue.enqueue q v)
  | History.Dequeue _, None -> (
      match Seq_queue.dequeue q with
      | Some (_, q') -> Some q'
      | None -> Some q)
  | History.Dequeue (Some v), Some _ -> (
      match Seq_queue.dequeue q with
      | Some (v', q') when v = v' -> Some q'
      | Some _ | None -> None)
  | History.Dequeue None, Some _ -> if Seq_queue.is_empty q then Some q else None

(* The shared DFS skeleton.  [success mask q] decides whether a search
   node is accepting (strict: every completed op linearized; crash-cut:
   every persist-stamped op linearized and the state equal to the
   recovered one).  The real-time bound is always computed over *all*
   un-linearized completed operations: linearizing past a completed
   operation's response would commit the search to dropping it, and
   under the crash-cut semantics a dropped completed operation must not
   precede anything kept (the surviving state is a prefix), so such
   branches are simply never taken. *)
let search_history (ops : History.op array) ~success =
  let n = Array.length ops in
  let completed = Array.map (fun o -> o.History.res <> None) ops in
  let memo = Hashtbl.create 1024 in
  let key mask q = (mask, Seq_queue.hash q) in
  let rec search mask q =
    if success mask q then true
    else if Hashtbl.mem memo (key mask q) then false
    else begin
      (* The next linearized op must be invoked before every un-linearized
         completed operation's response. *)
      let bound = ref max_int in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) = 0 then
          match ops.(i).History.res with
          | Some r when completed.(i) -> bound := min !bound r
          | Some _ | None -> ()
      done;
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < n do
        let idx = !i in
        incr i;
        if mask land (1 lsl idx) = 0 && ops.(idx).History.inv < !bound then
          match apply ops.(idx) q with
          | Some q' -> if search (mask lor (1 lsl idx)) q' then found := true
          | None -> ()
      done;
      if not !found then Hashtbl.replace memo (key mask q) ();
      !found
    end
  in
  search 0 Seq_queue.empty

let to_array (ops : History.op list) ~caller =
  if List.length ops > max_ops then
    invalid_arg (caller ^ ": history too large for exact checking");
  Array.of_list ops

let subset_done ops ~which mask =
  let ok = ref true in
  Array.iteri (fun i o -> if which o && mask land (1 lsl i) = 0 then ok := false)
    ops;
  !ok

let check (ops : History.op list) : bool =
  let ops = to_array ops ~caller:"Lin_check.check" in
  let required (o : History.op) = o.History.res <> None in
  search_history ops ~success:(fun mask _q ->
      subset_done ops ~which:required mask)

(* Buffered durable linearizability across a crash cut (the second
   amendment's sync boundary): the pre-crash history [ops] carries
   persist stamps, and [recovered] is the queue content observed after
   recovery.  The check accepts iff some linearization of a *kept*
   subset of the operations (a) respects real time, (b) contains every
   persist-stamped operation — everything a group commit covered
   survives, completed or not — and (c) leaves the sequential queue
   exactly in state [recovered].  Un-stamped operations may vanish, but
   only as a suffix: the real-time bound never lets the search linearize
   past a completed operation it has not placed, so a dropped completed
   operation can never precede a kept one — the surviving state is a
   linearizable *prefix*, and the unsynced tail vanishes as a unit. *)
let check_crash_cut (ops : History.op list) ~(recovered : int list) : bool =
  let ops = to_array ops ~caller:"Lin_check.check_crash_cut" in
  let required (o : History.op) = o.History.persist <> None in
  let target = Seq_queue.hash (Seq_queue.of_list recovered) in
  search_history ops ~success:(fun mask q ->
      Seq_queue.hash q = target
      && Seq_queue.to_list q = recovered
      && subset_done ops ~which:required mask)

(* The view rule: fold the states forward, restarting the admissible set
   at every durable operation. *)
let views ~init ~apply ?pending ops =
  let latest, since_durable =
    List.fold_left
      (fun (s, acc) (op, durable) ->
        let s' = apply s op in
        (s', if durable then [ s' ] else s' :: acc))
      (init, [ init ]) ops
  in
  match pending with
  | Some op -> apply latest op :: since_durable
  | None -> since_durable

(* Convenience: check and render a counterexample message. *)
let check_report ops =
  if check ops then Ok ()
  else
    Error
      (Format.asprintf "history not linearizable:@,%a"
         (Format.pp_print_list History.pp_op)
         ops)

let check_crash_cut_report ops ~recovered =
  if check_crash_cut ops ~recovered then Ok ()
  else
    Error
      (Format.asprintf
         "no buffered-durable cut reaches recovered state [%s]:@,%a"
         (String.concat "; " (List.map string_of_int recovered))
         (Format.pp_print_list History.pp_op)
         ops)
