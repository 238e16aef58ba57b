open Common

(* Primitive-level heap benchmark: raw throughput of the simulated-NVRAM
   hot paths (read / write / cas / write+flush+fence / movnti+fence) per
   mode and domain count, on private per-domain lines — this measures
   the simulator's own overhead, not algorithmic contention.  Write and
   cas loops persist every 64th operation so checked-mode store logs
   compact instead of growing without bound (as they would in any real
   usage, where fences are never further apart than a batch).

   Rows land in BENCH_heap.json, gated by {!Harness.Bench_row.heap_ops}:
   Fast single-domain throughput per op.  Smoke runs fewer iterations
   and domain counts. *)

let run ~smoke =
  let iters = if smoke then 30_000 else 200_000 in
  let trials = if smoke then 2 else 3 in
  let domain_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let modes = [ (Nvm.Heap.Fast, "fast"); (Nvm.Heap.Checked, "checked") ] in
  (* One trial: [d] domains, each hammering its own line of its own
     region; returns wall Mops aggregated over the domains. *)
  let trial ~mode ~d op_body =
    Nvm.Tid.reset ();
    Nvm.Tid.set d;
    let heap = Nvm.Heap.create ~mode ~latency:Nvm.Latency.model_only () in
    let regions =
      Array.init d (fun _ ->
          Nvm.Heap.alloc_region heap ~tag:Nvm.Region.Meta
            ~words:Nvm.Line.words_per_line)
    in
    Nvm.Heap.reset_fence_contention heap;
    let barrier = Harness.Runner.spin_barrier d in
    let t_start = Array.make d 0. and t_end = Array.make d 0. in
    let workers =
      List.init d (fun w ->
          Domain.spawn (fun () ->
              Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
              Nvm.Tid.set w;
              let addr = Nvm.Region.base_addr regions.(w) in
              (* Warm the code paths and the line state. *)
              for i = 1 to max 1 (iters / 10) do
                op_body heap addr i
              done;
              barrier ();
              t_start.(w) <- Unix.gettimeofday ();
              for i = 1 to iters do
                op_body heap addr i
              done;
              t_end.(w) <- Unix.gettimeofday ()))
    in
    List.iter Domain.join workers;
    let elapsed =
      Array.fold_left max neg_infinity t_end
      -. Array.fold_left min infinity t_start
    in
    float_of_int (d * iters) /. elapsed /. 1e6
  in
  let ops =
    [
      ("read", fun h a _ -> ignore (Nvm.Heap.read h a));
      ( "write",
        fun h a i ->
          Nvm.Heap.write h a i;
          if i land 63 = 0 then begin
            Nvm.Heap.flush h a;
            Nvm.Heap.sfence h
          end );
      ( "cas",
        fun h a i ->
          ignore (Nvm.Heap.cas h a ~expected:(i land 1) ~desired:(1 - (i land 1)));
          if i land 63 = 0 then begin
            Nvm.Heap.flush h a;
            Nvm.Heap.sfence h
          end );
      ( "persist",
        fun h a i ->
          Nvm.Heap.write h a i;
          Nvm.Heap.flush h a;
          Nvm.Heap.sfence h );
      ( "movnti",
        fun h a i ->
          Nvm.Heap.movnti h a i;
          Nvm.Heap.sfence h );
    ]
  in
  Printf.printf
    "\n\
     == heap primitive throughput (%d iters/domain, median of %d trials) ==\n"
    iters trials;
  Printf.printf "%10s %10s %10s %14s\n" "op" "mode" "domains" "wall Mops/s";
  List.concat_map
    (fun (mode, mode_name) ->
      List.concat_map
        (fun d ->
          List.map
            (fun (op_name, body) ->
              let mops =
                median (List.init trials (fun _ -> trial ~mode ~d body))
              in
              Printf.printf "%10s %10s %10d %14.3f\n%!" op_name mode_name d
                mops;
              Harness.Bench_row.
                [ str "op" op_name; str "mode" mode_name; int "domains" d;
                  int "iters" iters; int "trials" trials; num 3 "mops" mops ])
            ops)
        domain_counts)
    modes
