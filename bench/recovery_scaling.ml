(* Recovery scaling is measured over the paper's queues plus ONLL; the
   ablation variants are excluded (the no-predcut variants are
   deliberately quadratic in queue size, which is their ablation's point,
   not a recovery property). *)
let recovery_queues =
  List.filter (fun e -> e.Dq.Registry.durable) Dq.Registry.figure2
  @ [ Dq.Registry.find "ONLL-Q"; Dq.Registry.find "DurableMSQ+results" ]

let recovery () =
  Printf.printf "\n== recovery time after a crash (ms) ==\n";
  Printf.printf "%8s" "size";
  List.iter
    (fun e -> Printf.printf "%14s" e.Dq.Registry.name)
    recovery_queues;
  print_newline ();
  List.iter
    (fun size ->
      Printf.printf "%8d" size;
      List.iter
        (fun entry ->
          Nvm.Tid.reset ();
          Nvm.Tid.set 0;
          let heap =
            Nvm.Heap.create ~mode:Nvm.Heap.Checked ~latency:Nvm.Latency.off ()
          in
          let q = entry.Dq.Registry.make heap in
          for i = 1 to size do
            q.Dq.Queue_intf.enqueue i
          done;
          Nvm.Crash.crash ~policy:Nvm.Crash.Only_persisted heap;
          Nvm.Tid.reset ();
          Nvm.Tid.set 0;
          let t0 = Unix.gettimeofday () in
          q.Dq.Queue_intf.recover ();
          let t1 = Unix.gettimeofday () in
          assert (List.length (q.Dq.Queue_intf.to_list ()) = size);
          Printf.printf "%14.2f" ((t1 -. t0) *. 1e3))
        recovery_queues;
      print_newline ())
    [ 1_000; 10_000; 50_000 ]
