(* Table rendering for the reproduced evaluation.

   Figure 2 in the paper has, per workload, a throughput panel and a
   panel of throughput ratios against DurableMSQ (the state-of-the-art
   baseline).  We print the same two series as aligned text tables, one
   row per thread count, one column per queue. *)

let baseline_name = "DurableMSQ"

let pad width s =
  if String.length s >= width then s
  else String.make (width - String.length s) ' ' ^ s

let pad_left width s =
  if String.length s >= width then s else s ^ String.make (width - String.length s) ' '

(* One throughput panel + its ratio-vs-baseline panel. *)
let panel ~title ~threads_list ~queues ~get ~metric =
  let col = 13 in
  Printf.printf "-- %s --\n" title;
  Printf.printf "%s" (pad_left 9 "threads");
  List.iter (fun q -> Printf.printf "%s" (pad col q)) queues;
  print_newline ();
  List.iter
    (fun threads ->
      Printf.printf "%s" (pad_left 9 (string_of_int threads));
      List.iter
        (fun q ->
          match get ~threads ~queue:q with
          | Some r -> Printf.printf "%s" (pad col (Printf.sprintf "%.3f" (metric r)))
          | None -> Printf.printf "%s" (pad col "-"))
        queues;
      print_newline ())
    threads_list;
  Printf.printf "   ratio vs %s:\n" baseline_name;
  List.iter
    (fun threads ->
      Printf.printf "%s" (pad_left 9 (string_of_int threads));
      let base =
        match get ~threads ~queue:baseline_name with
        | Some r -> metric r
        | None -> nan
      in
      List.iter
        (fun q ->
          match get ~threads ~queue:q with
          | Some r ->
              Printf.printf "%s"
                (pad col (Printf.sprintf "%.2fx" (metric r /. base)))
          | None -> Printf.printf "%s" (pad col "-"))
        queues;
      print_newline ())
    threads_list

(* results indexed by [threads_list] x [queues].  The modeled series (exact
   persist-instruction costs under the NVRAM cost model) is the primary
   Figure-2 reproduction; wall clock on a small shared host is printed as a
   supplement. *)
let print_throughput ~workload ~threads_list ~queues
    ~(get : threads:int -> queue:string -> Runner.result option) =
  Printf.printf "\n== %s ==\n" (Workload.name workload);
  panel
    ~title:"modeled throughput (Mops/s, NVRAM cost model; primary series)"
    ~threads_list ~queues ~get
    ~metric:(fun r -> r.Runner.model_mops);
  panel ~title:"wall-clock throughput (Mops/s; host-noise supplement)"
    ~threads_list ~queues ~get
    ~metric:(fun r -> r.Runner.mops)

let print_census (rows : Runner.census list) =
  let col = 14 in
  Printf.printf
    "\n== persist-instruction census (per operation, single thread) ==\n";
  Printf.printf
    "   expected: the four paper queues run exactly 1 fence/op (avg and\n";
  Printf.printf
    "   worst case); the Opt queues make 0 accesses to flushed content\n";
  Printf.printf "   (Section 6).  max = the worst single operation span.\n";
  Printf.printf "%s  op " (pad_left 14 "structure");
  List.iter
    (fun h -> Printf.printf "%s" (pad col h))
    [ "flushes/op"; "fences/op"; "movnti/op"; "postflush/op"; "max fences";
      "max postflush" ];
  print_newline ();
  List.iter
    (fun (c : Runner.census) ->
      let line op (fl, fe, mv, pf) (_, max_fe, _, max_pf) =
        Printf.printf "%s  %s " (pad_left 14 c.Runner.c_queue) op;
        List.iter
          (fun v -> Printf.printf "%s" (pad col (Printf.sprintf "%.2f" v)))
          [ fl; fe; mv; pf ];
        List.iter
          (fun v -> Printf.printf "%s" (pad col (string_of_int v)))
          [ max_fe; max_pf ];
        print_newline ()
      in
      line "enq" c.Runner.enq c.Runner.enq_max;
      line "deq" c.Runner.deq c.Runner.deq_max)
    rows;
  (* Heap occupancy at the end of each run: how many regions the
     workload left live vs retired to the recycle pool.  A queue that
     drains back to empty should plateau at a handful of live regions —
     growth here is the linear recovery the checkpoint tier exists to
     cut. *)
  Printf.printf "\n== heap occupancy at end of run ==\n";
  Printf.printf "%s " (pad_left 14 "structure");
  List.iter
    (fun h -> Printf.printf "%s" (pad col h))
    [ "live regions"; "allocated"; "retired"; "live words"; "reclaimed" ];
  print_newline ();
  List.iter
    (fun (c : Runner.census) ->
      let o = c.Runner.c_occupancy in
      Printf.printf "%s " (pad_left 14 c.Runner.c_queue);
      List.iter
        (fun v -> Printf.printf "%s" (pad col (string_of_int v)))
        [ Nvm.Stats.live_regions o; o.Nvm.Stats.regions_allocated;
          o.Nvm.Stats.regions_retired; Nvm.Stats.live_words o;
          o.Nvm.Stats.words_reclaimed ];
      print_newline ())
    rows

(* -- Keyed-store census ---------------------------------------------------- *)

(* Same table for the durable map tier: one row per op label.  Labels are
   spelled out ([ins] -> insert) so the table reads like the queue one. *)
let op_name = function
  | "ins" -> "insert"
  | "del" -> "delete"
  | "get" -> "lookup"
  | other -> other

let print_map_census (rows : Runner.map_census list) =
  let col = 14 in
  Printf.printf "\n== keyed-store persist census (per operation, single thread) ==\n";
  Printf.printf
    "   expected: both maps insert with exactly 1 fence; LinkFreeMap\n";
  Printf.printf
    "   bounds delete/lookup by 1 fence, SOFTMap runs them with zero\n";
  Printf.printf "   flushes and fences.  max = the worst single operation.\n";
  Printf.printf "%s  op     " (pad_left 14 "structure");
  List.iter
    (fun h -> Printf.printf "%s" (pad col h))
    [ "flushes/op"; "fences/op"; "movnti/op"; "postflush/op"; "max flushes";
      "max fences" ];
  print_newline ();
  List.iter
    (fun (c : Runner.map_census) ->
      List.iter
        (fun (r : Runner.census_row) ->
          let fl, fe, mv, pf = r.Runner.r_avg in
          let max_fl, max_fe, _, _ = r.Runner.r_max in
          Printf.printf "%s  %-6s" (pad_left 14 c.Runner.mc_map)
            (op_name r.Runner.r_op);
          List.iter
            (fun v -> Printf.printf "%s" (pad col (Printf.sprintf "%.2f" v)))
            [ fl; fe; mv; pf ];
          List.iter
            (fun v -> Printf.printf "%s" (pad col (string_of_int v)))
            [ max_fl; max_fe ];
          print_newline ())
        c.Runner.mc_rows)
    rows

(* -- Machine-readable census ---------------------------------------------- *)

(* The first column is "structure" (not "queue"): the same schema now
   carries rows for both the queue tier and the keyed-store tier. *)
let census_row structure op (fl, fe, mv, pf) (mfl, mfe, mmv, mpf) =
  Bench_row.
    [ str "structure" structure; str "op" op; num 3 "flushes_per_op" fl;
      num 3 "fences_per_op" fe; num 3 "movnti_per_op" mv;
      num 3 "postflush_per_op" pf; int "max_flushes" mfl; int "max_fences" mfe;
      int "max_movnti" mmv; int "max_postflush" mpf ]

(* One row per (structure, op) — queue rows first, then keyed-store
   rows — and one occupancy row per queue. *)
let census_rows ~maps (rows : Runner.census list) =
  ( List.concat_map
      (fun (c : Runner.census) ->
        [ census_row c.Runner.c_queue "enqueue" c.Runner.enq c.Runner.enq_max;
          census_row c.Runner.c_queue "dequeue" c.Runner.deq c.Runner.deq_max ])
      rows
    @ List.concat_map
        (fun (c : Runner.map_census) ->
          List.map
            (fun (r : Runner.census_row) ->
              census_row c.Runner.mc_map (op_name r.Runner.r_op) r.Runner.r_avg
                r.Runner.r_max)
            c.Runner.mc_rows)
        maps,
    List.map
      (fun (c : Runner.census) ->
        let o = c.Runner.c_occupancy in
        Bench_row.
          [ str "structure" c.Runner.c_queue; str "op" "occupancy";
            int "live_regions" (Nvm.Stats.live_regions o);
            int "regions_allocated" o.Nvm.Stats.regions_allocated;
            int "regions_retired" o.Nvm.Stats.regions_retired;
            int "live_words" (Nvm.Stats.live_words o);
            int "words_reclaimed" o.Nvm.Stats.words_reclaimed ])
      rows )

(* The occupancy table is a second CSV section (blank-line separated,
   own header): its columns are per-structure, not per-op, so folding
   them into the op rows would duplicate every value. *)
let census_csv ?(maps = []) oc rows =
  let ops, occupancy = census_rows ~maps rows in
  Bench_row.output_csv oc ops;
  output_string oc "\n";
  Bench_row.output_csv oc (List.map (List.remove_assoc "op") occupancy)

let census_json ?(maps = []) oc rows =
  let ops, occupancy = census_rows ~maps rows in
  Bench_row.output oc (ops @ occupancy)
