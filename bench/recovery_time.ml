open Common

(* Recovery time vs heap size x checkpoint cadence — the incremental
   checkpoint's reason to exist.  Each point: enqueue [size] items (the
   designated areas grow to hold them all), drain down to a small live
   window (the drained regions stay allocated: the free lists hold
   them), optionally take one checkpoint (stream the window, flip the
   epoch, retire the drained regions), crash under Only_persisted, and
   time the recovery.  Without the checkpoint, recovery scans every
   allocated region — linear in peak heap size forever after; with it,
   the scan is bounded by the live window plus the post-checkpoint
   residue — flat.  Node areas are shrunk (area_lines 1024) so the
   region count actually tracks [size] — but no smaller: UnlinkedQ's
   double-width-CAS head packs the node pointer into 32 bits, so region
   ids must stay under 256 even at the 100x size.

   Rows land in BENCH_recovery.json, gated by
   {!Harness.Bench_row.recovery_time}: recover_ms per (algorithm, size,
   checkpoint), lower is better, baselines under 0.5 ms too noisy to
   gate.  Smoke runs a smaller base size and fewer trials. *)
let run ~smoke =
  let base = if smoke then 400 else 2_000 in
  let trials = if smoke then 2 else 3 in
  let window = 64 in
  let sizes = [ base; base * 10; base * 100 ] in
  let queues = [ "UnlinkedQ"; "OptUnlinkedQ" ] in
  let saved_area = !Reclaim.Ssmem.default_area_lines in
  Reclaim.Ssmem.default_area_lines := 1024;
  Fun.protect
    ~finally:(fun () -> Reclaim.Ssmem.default_area_lines := saved_area)
    (fun () ->
      let trial entry ~size ~ckpt =
        Nvm.Tid.reset ();
        Nvm.Tid.set 0;
        let heap =
          Nvm.Heap.create ~mode:Nvm.Heap.Checked ~latency:Nvm.Latency.off ()
        in
        let q = entry.Dq.Registry.make heap in
        for i = 1 to size do
          q.Dq.Queue_intf.enqueue i
        done;
        for _ = 1 to size - window do
          ignore (q.Dq.Queue_intf.dequeue ())
        done;
        if ckpt then
          Option.iter
            (fun ck -> ignore (Dq.Checkpoint.run ck))
            q.Dq.Queue_intf.checkpoint;
        Nvm.Crash.crash ~policy:Nvm.Crash.Only_persisted heap;
        Nvm.Tid.reset ();
        Nvm.Tid.set 0;
        let t0 = Unix.gettimeofday () in
        q.Dq.Queue_intf.recover ();
        let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
        assert (List.length (q.Dq.Queue_intf.to_list ()) = window);
        let stats =
          match q.Dq.Queue_intf.checkpoint with
          | Some ck -> Dq.Checkpoint.last_recovery ck
          | None -> Dq.Checkpoint.no_recovery
        in
        (ms, stats, Nvm.Heap.occupancy heap)
      in
      let run_point entry ~size ~ckpt =
        median_by
          (fun (ms, _, _) -> ms)
          (List.init trials (fun _ -> trial entry ~size ~ckpt))
      in
      Printf.printf
        "\n\
         == recovery time vs heap size x checkpointing (crash -> healthy \
         ms, live window %d, median of %d trials) ==\n"
        window trials;
      Printf.printf "%14s %9s %6s %12s %8s %10s %8s %8s\n" "queue" "size"
        "ckpt" "recover ms" "epoch" "replayed" "scanned" "regions";
      let rows = ref [] in
      List.iter
        (fun name ->
          let entry = Dq.Registry.find name in
          List.iter
            (fun ckpt ->
              List.iter
                (fun size ->
                  let ms, stats, occ = run_point entry ~size ~ckpt in
                  rows := (name, size, ckpt, ms, stats, occ) :: !rows;
                  Printf.printf "%14s %9d %6s %12.2f %8d %10d %8d %8d\n%!"
                    name size
                    (if ckpt then "on" else "off")
                    ms stats.Dq.Checkpoint.ckpt_epoch
                    stats.Dq.Checkpoint.replayed_items
                    stats.Dq.Checkpoint.scanned_regions
                    (Nvm.Stats.live_regions occ))
                sizes)
            [ false; true ])
        queues;
      let rows = List.rev !rows in
      (* Flatness summary: the checkpointed curve must stay flat while
         the unchecked one tracks the heap. *)
      List.iter
        (fun name ->
          let ms_of ckpt size =
            List.find_map
              (fun (n, s, c, ms, _, _) ->
                if n = name && s = size && c = ckpt then Some ms else None)
              rows
            |> Option.get
          in
          let big = List.nth sizes (List.length sizes - 1) in
          let on = ms_of true big /. Float.max 1e-6 (ms_of true base) in
          let off = ms_of false big /. Float.max 1e-6 (ms_of false base) in
          Printf.printf
            "%s: %dx heap growth -> %.2fx recovery with checkpointing, \
             %.2fx without\n%!"
            name (big / base) on off;
          if (not smoke) && on > 2. then
            Printf.eprintf
              "WARNING: %s checkpointed recovery grew %.2fx over a %dx \
               heap (bound 2x) — compaction is not bounding recovery\n%!"
              name on (big / base))
        queues;
      List.map
        (fun (name, size, ckpt, ms, (stats : Dq.Checkpoint.recovery_stats), occ) ->
          Harness.Bench_row.
            [ str "algorithm" name; int "size" size;
              str "checkpoint" (if ckpt then "on" else "off");
              int "window" window; int "trials" trials; num 3 "recover_ms" ms;
              int "ckpt_epoch" stats.Dq.Checkpoint.ckpt_epoch;
              int "replayed_items" stats.Dq.Checkpoint.replayed_items;
              int "scanned_regions" stats.Dq.Checkpoint.scanned_regions;
              int "live_regions" (Nvm.Stats.live_regions occ);
              int "retired_regions" occ.Nvm.Stats.regions_retired;
              int "reclaimed_words" occ.Nvm.Stats.words_reclaimed ])
        rows)
