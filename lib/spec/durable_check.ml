(* Scalable soundness checks for large concurrent (and crash-spanning)
   runs, where exact linearizability checking is intractable.

   The protocol: every thread enqueues values that encode (producer id,
   sequence number) with the sequence strictly increasing, and logs what it
   dequeued, in order.  The checks below are necessary conditions of
   durable linearizability for a FIFO queue with unique items:

   - conservation: every dequeued value was enqueued; nothing is dequeued
     twice; with a post-run queue snapshot, enqueued = dequeued + remaining
     as disjoint sets (up to operations pending at a crash, which may
     vanish), and nothing remains that was never enqueued;
   - per-producer FIFO: each consumer (and the remaining queue) observes
     any one producer's values in increasing sequence order, and every
     dequeued value precedes every remaining one of its producer;
   - prefix-of-dequeues (Observation 2): after recovery, for each producer
     the surviving values are a suffix of that producer's enqueued values
     minus the dequeued ones. *)

let seq_bits = 20
let encode ~producer ~seq = (producer lsl seq_bits) lor seq
let producer_of v = v lsr seq_bits
let seq_of v = v land ((1 lsl seq_bits) - 1)

type thread_log = {
  enqueued : int list;  (* in enqueue order *)
  dequeued : int list;  (* in dequeue order *)
}

let count_multiset l =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun v ->
      Hashtbl.replace h v (1 + Option.value ~default:0 (Hashtbl.find_opt h v)))
    l;
  h

let check_unique name l =
  let h = count_multiset l in
  Hashtbl.fold
    (fun v n acc ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          if n > 1 then Error (Printf.sprintf "%s: value %d appears %d times" name v n)
          else Ok ())
    h (Ok ())

let check_producer_order name stream =
  let last = Hashtbl.create 16 in
  List.fold_left
    (fun acc v ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          let p = producer_of v in
          let prev = Option.value ~default:(-1) (Hashtbl.find_opt last p) in
          if seq_of v <= prev then
            Error
              (Printf.sprintf "%s: producer %d out of order: seq %d after %d"
                 name p (seq_of v) prev)
          else begin
            Hashtbl.replace last p (seq_of v);
            Ok ()
          end)
    (Ok ()) stream

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

(* [pending] lists values whose enqueues may have been dropped by a crash
   (operations pending when it hit). *)
let check ?(pending = []) ?remaining (logs : thread_log array) =
  let enqueued = List.concat_map (fun l -> l.enqueued) (Array.to_list logs) in
  let dequeued = List.concat_map (fun l -> l.dequeued) (Array.to_list logs) in
  let enq_set = count_multiset enqueued in
  let pend_set = count_multiset pending in
  let* () = check_unique "enqueued" enqueued in
  let* () = check_unique "dequeued" dequeued in
  let* () =
    List.fold_left
      (fun acc v ->
        let* () = acc in
        if Hashtbl.mem enq_set v || Hashtbl.mem pend_set v then Ok ()
        else Error (Printf.sprintf "dequeued value %d was never enqueued" v))
      (Ok ()) dequeued
  in
  let* () =
    Array.to_list logs
    |> List.fold_left
         (fun acc l ->
           let* () = acc in
           check_producer_order "consumer stream" l.dequeued)
         (Ok ())
  in
  match remaining with
  | None -> Ok ()
  | Some remaining ->
      let* () = check_producer_order "remaining queue" remaining in
      let deq_set = count_multiset dequeued in
      let rem_set = count_multiset remaining in
      (* FIFO hands each producer's values out in order: every survivor
         sits above the producer's highest dequeued seq. *)
      let deq_max = Hashtbl.create 16 in
      List.iter
        (fun v ->
          let p = producer_of v in
          let m = Option.value ~default:(-1) (Hashtbl.find_opt deq_max p) in
          Hashtbl.replace deq_max p (max m (seq_of v)))
        dequeued;
      let* () =
        List.fold_left
          (fun acc v ->
            let* () = acc in
            let m = Hashtbl.find_opt deq_max (producer_of v) in
            if Hashtbl.mem deq_set v then
              Error (Printf.sprintf "value %d both dequeued and remaining" v)
            else if not (Hashtbl.mem enq_set v || Hashtbl.mem pend_set v) then
              Error (Printf.sprintf "remaining value %d was never enqueued" v)
            else if Option.value ~default:(-1) m > seq_of v then
              Error
                (Printf.sprintf "producer %d: seq %d remains after a later \
                                 one was dequeued" (producer_of v) (seq_of v))
            else Ok ())
          (Ok ()) remaining
      in
      (* Every completed enqueue must be accounted for. *)
      Hashtbl.fold
        (fun v _ acc ->
          let* () = acc in
          if Hashtbl.mem deq_set v || Hashtbl.mem rem_set v then Ok ()
          else Error (Printf.sprintf "enqueued value %d vanished" v))
        enq_set (Ok ())

(* After a crash: for each producer, the values surviving in the queue must
   form a suffix of its completed enqueues (FIFO prefix of dequeues,
   Observation 2), allowing gaps only for crash-pending enqueues. *)
let check_recovered_suffix ~enqueued_per_producer ~recovered ~pending =
  let pend_set = count_multiset pending in
  let recovered_by_p = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let p = producer_of v in
      let cur = Option.value ~default:[] (Hashtbl.find_opt recovered_by_p p) in
      Hashtbl.replace recovered_by_p p (v :: cur))
    (List.rev recovered);
  Hashtbl.fold
    (fun p enqs acc ->
      let* () = acc in
      let surv = Option.value ~default:[] (Hashtbl.find_opt recovered_by_p p) in
      match surv with
      | [] -> Ok ()
      | first :: _ ->
          (* Every completed enqueue by [p] at or after [first] must have
             survived. *)
          let expected =
            List.filter
              (fun v -> seq_of v >= seq_of first && not (Hashtbl.mem pend_set v))
              enqs
          in
          if expected = List.filter (fun v -> not (Hashtbl.mem pend_set v)) surv
          then Ok ()
          else
            Error
              (Printf.sprintf
                 "producer %d: recovered values are not a suffix of its enqueues"
                 p))
    enqueued_per_producer (Ok ())
