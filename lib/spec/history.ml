(* Concurrent-history recording (Section 3.2 terminology).

   An operation is an invocation/response pair with timestamps from a
   global logical clock.  Crashes cut a history into eras; under durable
   linearizability the history with crash events omitted must be
   linearizable, with operations pending at a crash allowed to take effect
   or vanish — which is exactly how {!Lin_check} treats pending operations.
   An operation is entered at invocation and completed at response, so
   one whose thread died mid-call (an exception, or a fiber the crash
   explorer never resumes) is pending with no further bookkeeping. *)

type kind = Enqueue of int | Dequeue of int option

type op = {
  id : int;
  tid : int;
  mutable kind : kind;
  inv : int;  (* invocation timestamp *)
  mutable res : int option;  (* response timestamp; None = pending *)
  mutable persist : int option;
      (* persist-point stamp: the global persist clock at the group
         commit that covered this operation, [None] while (or if never)
         uncovered.  Stamped after the fact — a commit covers operations
         recorded earlier — hence mutable.  Buffered-durability checking
         ({!Lin_check.check_crash_cut}) requires stamped operations to
         survive a crash; strict histories leave every stamp [None]. *)
}

type t = {
  clock : int Atomic.t;
  next_id : int Atomic.t;
  lock : Mutex.t;
  mutable ops : op list;
}

let create () =
  {
    clock = Atomic.make 0;
    next_id = Atomic.make 0;
    lock = Mutex.create ();
    ops = [];
  }

let tick t = Atomic.fetch_and_add t.clock 1

(* Enter an operation at its invocation, still pending. *)
let invoke t ~tid kind =
  let id = Atomic.fetch_and_add t.next_id 1 in
  let o = { id; tid; kind; inv = tick t; res = None; persist = None } in
  Mutex.lock t.lock;
  t.ops <- o :: t.ops;
  Mutex.unlock t.lock;
  o

let record_enqueue t ~tid v f =
  let o = invoke t ~tid (Enqueue v) in
  f ();
  o.res <- Some (tick t)

let record_dequeue t ~tid f =
  let o = invoke t ~tid (Dequeue None) in
  let result = f () in
  o.kind <- Dequeue result;
  o.res <- Some (tick t);
  result

let ops t =
  Mutex.lock t.lock;
  let l = t.ops in
  Mutex.unlock t.lock;
  List.sort (fun a b -> compare a.inv b.inv) l

let pp_kind ppf = function
  | Enqueue v -> Format.fprintf ppf "enq(%d)" v
  | Dequeue (Some v) -> Format.fprintf ppf "deq()=%d" v
  | Dequeue None -> Format.fprintf ppf "deq()=empty"

let pp_op ppf o =
  Format.fprintf ppf "[%d] t%d %a @%d..%s%s" o.id o.tid pp_kind o.kind o.inv
    (match o.res with Some r -> string_of_int r | None -> "pending")
    (match o.persist with
    | Some p -> Printf.sprintf " persisted@%d" p
    | None -> "")
