(* The paper-sweep knobs and the helpers the bench targets share. *)

let env_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

let ops_per_thread = env_int "DQ_OPS" 6_000

let threads_list =
  match Sys.getenv_opt "DQ_THREADS" with
  | Some s -> List.map int_of_string (String.split_on_char ',' s)
  | None ->
      (* Busy-wait latency simulation is only meaningful without
         oversubscription: sweep up to the host's core count. *)
      let cores = Domain.recommended_domain_count () in
      List.filter (fun t -> t <= cores) [ 1; 2; 4; 8; 16 ]

let reps = env_int "DQ_REPS" 3

(* The trial whose [by] is the median represents its point (the upper
   median for an even count). *)
let median_by by l =
  let sorted = List.sort (fun a b -> compare (by a) (by b)) l in
  List.nth sorted (List.length sorted / 2)

let median l = median_by Fun.id l
