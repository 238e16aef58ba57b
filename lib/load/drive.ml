(* The one broker driver.  Workers check in on [ready] once set up (a
   producer after its warm body); the calling domain waits for all of
   them, runs the reset, then opens [gate] with [t0].  Producers spin at
   the gate so a closed-loop window starts everywhere at once; consumers
   drain from spawn on.  Every worker body runs under [guard], which
   keeps the first exception and lets the domain go on through the
   rendezvous, so a failure never strands the others. *)

let prepare ~producers ~consumers =
  if producers < 0 || consumers < 0
     || producers + consumers >= Nvm.Tid.max_threads
  then invalid_arg "Drive.prepare: worker counts outside the thread ids";
  Gc.compact ();
  Nvm.Tid.reset ();
  Nvm.Tid.set (producers + consumers)

let minor_heap_words ~ops = max (1 lsl 21) (48 * ops)

(* Major slices are stop-the-world pauses too: pace them down while a
   window's op records, bins and stamps pile up. *)
let window_space_overhead = 1000

type outcome = {
  t0 : float;
  t_done : float;
  consumed : (int * float) list array;
}

let nap () = Unix.sleepf 0.0002

let window ~producers ~consumers ~ops ?(warm = ignore) ?(reset = ignore)
    ?(dequeue = fun _ () -> None) produce =
  let failure = Atomic.make None in
  let guard f =
    try f ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set failure None (Some (e, bt)))
  in
  let failed () = Atomic.get failure <> None in
  let ready = Atomic.make 0 in
  let gate = Atomic.make 0. in
  let producers_left = Atomic.make producers in
  let done_at = Array.make producers 0. in
  let setup tid =
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words ~ops };
    Nvm.Tid.set tid
  in
  let producer w () =
    guard (fun () ->
        setup w;
        warm w);
    Atomic.incr ready;
    while Atomic.get gate = 0. do
      Domain.cpu_relax ()
    done;
    if not (failed ()) then guard (fun () -> produce w ~t0:(Atomic.get gate));
    done_at.(w) <- Unix.gettimeofday ();
    Atomic.decr producers_left
  in
  let consumer k () =
    let deq = ref (fun () -> None) in
    guard (fun () ->
        setup (producers + k);
        deq := dequeue k);
    Atomic.incr ready;
    let bin = ref [] in
    guard (fun () ->
        let finished = ref (failed ()) in
        while not !finished do
          (* Read before polling: an empty answer then proves the
             producers' last items were already visible. *)
          let drained = Atomic.get producers_left = 0 in
          match !deq () with
          | Some v -> bin := (v, Unix.gettimeofday ()) :: !bin
          | None -> if drained || failed () then finished := true else nap ()
        done);
    List.rev !bin
  in
  let so0 = (Gc.get ()).Gc.space_overhead in
  Gc.set { (Gc.get ()) with Gc.space_overhead = window_space_overhead };
  Fun.protect
    ~finally:(fun () ->
      Gc.set { (Gc.get ()) with Gc.space_overhead = so0 })
    (fun () ->
      let prods = ref [] and cons = ref [] in
      guard (fun () ->
          for w = 0 to producers - 1 do
            prods := Domain.spawn (producer w) :: !prods
          done;
          for k = 0 to consumers - 1 do
            cons := Domain.spawn (consumer k) :: !cons
          done);
      let spawned = List.length !prods + List.length !cons in
      while Atomic.get ready < spawned do
        nap ()
      done;
      if not (failed ()) then guard reset;
      let t0 = Unix.gettimeofday () in
      Atomic.set gate t0;
      List.iter Domain.join !prods;
      let consumed = Array.of_list (List.rev_map Domain.join !cons) in
      match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          { t0; t_done = Array.fold_left Float.max t0 done_at; consumed })

let verify service ~enqueued ~consumed =
  let module D = Spec.Durable_check in
  let shards = Broker.Service.to_lists service in
  let logs =
    Array.of_list
      ({ D.enqueued = List.concat enqueued; dequeued = [] }
      :: List.map (fun l -> { D.enqueued = []; dequeued = l }) consumed)
  in
  match D.check ~remaining:(List.concat (Array.to_list shards)) logs with
  | Error _ as e -> e
  | Ok () ->
      (* What Durable_check cannot see: each survivor's shard. *)
      let misplaced si v =
        Broker.Service.shard_of_stream service ~stream:(D.producer_of v) <> si
      in
      let rec first si =
        if si = Array.length shards then Ok ()
        else
          match List.find_opt (misplaced si) shards.(si) with
          | Some v ->
              Error
                (Printf.sprintf "value %d of stream %d sits on shard %d" v
                   (D.producer_of v) si)
          | None -> first (si + 1)
      in
      first 0
