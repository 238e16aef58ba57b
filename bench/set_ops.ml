open Common

(* Durable keyed-store throughput: both map variants under a Zipf-skewed
   key stream, a pure-insert load phase then a mixed
   put/lookup/remove phase, per domain count.  All domains share one map
   instance, so multi-domain rows measure the real contended paths
   (same-key overwrite CASes, SOFT's pnode install).  Rows land in
   BENCH_set.json, gated by {!Harness.Bench_row.set_ops}: single-domain
   throughput per (map, phase).  Smoke runs fewer iterations, trials
   and domain counts. *)
let run ~smoke =
  let iters = if smoke then 20_000 else 100_000 in
  let trials = if smoke then 2 else 3 in
  let key_space = 4_096 in
  let domain_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  (* One trial: [d] domains over one shared map; returns aggregated wall
     Mops for the load phase and the mixed phase. *)
  let trial (entry : Dq.Registry.map_entry) ~d =
    Nvm.Tid.reset ();
    Nvm.Tid.set d;
    let heap =
      Nvm.Heap.create ~mode:Nvm.Heap.Fast ~latency:Nvm.Latency.model_only ()
    in
    let m = entry.Dq.Registry.make_map heap in
    let load_barrier = Harness.Runner.spin_barrier d
    and mixed_barrier = Harness.Runner.spin_barrier d in
    let ls = Array.make d 0. and le = Array.make d 0. in
    let ms = Array.make d 0. and me = Array.make d 0. in
    let workers =
      List.init d (fun w ->
          Domain.spawn (fun () ->
              Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
              Nvm.Tid.set w;
              let z =
                Harness.Zipf.create_worker ~n:key_space ~seed:0x5E70 ~worker:w
                  ()
              in
              let rng = Random.State.make [| 0x5E7B; w |] in
              (* Warm the allocator areas and code paths. *)
              for i = 1 to max 1 (iters / 10) do
                m.Dset.Map_intf.put ~key:(Harness.Zipf.draw z) ~value:i
              done;
              load_barrier ();
              ls.(w) <- Unix.gettimeofday ();
              for i = 1 to iters do
                m.Dset.Map_intf.put ~key:(Harness.Zipf.draw z) ~value:i
              done;
              le.(w) <- Unix.gettimeofday ();
              mixed_barrier ();
              ms.(w) <- Unix.gettimeofday ();
              for i = 1 to iters do
                let key = Harness.Zipf.draw z in
                match Random.State.int rng 10 with
                | 0 | 1 -> ignore (m.Dset.Map_intf.remove ~key)
                | 2 | 3 | 4 | 5 -> ignore (m.Dset.Map_intf.get ~key)
                | _ -> m.Dset.Map_intf.put ~key ~value:i
              done;
              me.(w) <- Unix.gettimeofday ()))
    in
    List.iter Domain.join workers;
    let mops s e =
      let elapsed =
        Array.fold_left max neg_infinity e -. Array.fold_left min infinity s
      in
      float_of_int (d * iters) /. elapsed /. 1e6
    in
    (mops ls le, mops ms me)
  in
  Printf.printf
    "\n\
     == keyed-store throughput (%d iters/domain, zipf over %d keys, median \
     of %d trials) ==\n"
    iters key_space trials;
  Printf.printf "%14s %8s %10s %14s\n" "map" "phase" "domains" "wall Mops/s";
  List.concat_map
    (fun (entry : Dq.Registry.map_entry) ->
      List.concat_map
        (fun d ->
          let results = List.init trials (fun _ -> trial entry ~d) in
          let load = median (List.map fst results) in
          let mixed = median (List.map snd results) in
          List.map
            (fun (phase, mops) ->
              Printf.printf "%14s %8s %10d %14.3f\n%!" entry.Dq.Registry.m_name
                phase d mops;
              Harness.Bench_row.
                [ str "map" entry.Dq.Registry.m_name; str "phase" phase;
                  int "domains" d; int "iters" iters; int "trials" trials;
                  int "keys" key_space; num 3 "mops" mops ])
            [ ("load", load); ("mixed", mixed) ])
        domain_counts)
    Dq.Registry.maps
