(* Bechamel microbenchmark: single-thread enqueue+dequeue pair latency per
   queue, under the simulated NVRAM latencies. *)
let micro () =
  let open Bechamel in
  let open Toolkit in
  Nvm.Tid.reset ();
  Nvm.Tid.set 0;
  let tests =
    List.map
      (fun entry ->
        let heap =
          Nvm.Heap.create ~mode:Nvm.Heap.Fast ~latency:Nvm.Latency.default ()
        in
        let q = entry.Dq.Registry.make heap in
        for i = 1 to 64 do
          q.Dq.Queue_intf.enqueue i
        done;
        Test.make ~name:entry.Dq.Registry.name
          (Staged.stage (fun () ->
               q.Dq.Queue_intf.enqueue 1;
               ignore (q.Dq.Queue_intf.dequeue ()))))
      Dq.Registry.all
  in
  let test = Test.make_grouped ~name:"pair" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  Printf.printf "\n== bechamel: single-thread enq+deq pair latency ==\n%!";
  Hashtbl.iter
    (fun _measure tbl ->
      let rows = ref [] in
      Hashtbl.iter
        (fun name ols ->
          let est =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> e
            | Some [] | None -> nan
          in
          rows := (name, est) :: !rows)
        tbl;
      List.iter
        (fun (name, est) -> Printf.printf "%36s  %10.0f ns/pair\n" name est)
        (List.sort (fun (_, a) (_, b) -> compare a b) !rows))
    results
