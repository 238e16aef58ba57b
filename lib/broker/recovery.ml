(* Crash-recovery orchestration for the sharded broker.

   A full-system crash hits every shard at once: the orchestrator
   quiesces the service (in-flight callers observe Retry/Busy), snapshots
   the whole NVM image — every shard heap — via {!Nvm.Crash.crash}, then
   runs each shard's one recovery procedure ([recover_shard]).  Shards
   share no NVM state, so their recoveries are independent and run in
   parallel across domains.  The procedure, single-threaded per shard:

   - both tiers ({!Shard.recover}), which also re-seat the depth gauge
     and the strict-tier bound and return the contents, in one walk;
   - on a service with offsets, the offset map and the volatile dedup
     index rebuilt from those contents ({!Offsets.recover}): each
     producer's entry is the highest sequence the shard still holds or
     some group durably committed, so a retry of a surviving or
     delivered item reads Duplicate rather than enqueue a second copy;
   - validation: uniqueness of the recovered items, and with
     [~producer_of] per-producer FIFO order and routing consistency
     (every recovered item must sit on the shard its stream is pinned
     to) — the {!Spec.Durable_check} conditions of durable
     linearizability, per shard.

   The procedure's verdict owns the shard's quarantine
   ({!Service.record_recovery}): a failed verdict, a raised recovery
   included, fences the shard off before the service resumes, and only
   a later passing verdict lets it serve again.  Nothing else re-admits
   it, so no shard serves from a state its recovery did not rebuild.
   Across shards, the recovered items must be unique too (an item
   surfacing in two shards would mean cross-shard leakage).

   The paper's complete-recovery model (one single-threaded recovery per
   queue before operations resume) is preserved per shard: parallelism is
   only across shards, never within one. *)

type shard_report = {
  shard : int;
  recovered_items : int;
  recover_ms : float;
  ckpt_epoch : int;  (* committed checkpoint epoch consulted; 0 = none *)
  replayed_items : int;  (* items replayed from the checkpoint image *)
  scanned_regions : int;  (* node regions scanned for the residue *)
  check : (unit, string) result;
}

type report = {
  shards : shard_report array;
  domains_used : int;
  wall_ms : float;
  leakage : (unit, string) result;
}

let ok r =
  Result.is_ok r.leakage
  && Array.for_all (fun s -> Result.is_ok s.check) r.shards

let pp ppf r =
  Array.iter
    (fun s ->
      Format.fprintf ppf
        "shard %d: %d items in %.2f ms (epoch %d, %d replayed, %d regions \
         scanned)  %s@."
        s.shard s.recovered_items s.recover_ms s.ckpt_epoch s.replayed_items
        s.scanned_regions
        (match s.check with Ok () -> "OK" | Error e -> "FAIL: " ^ e))
    r.shards;
  Format.fprintf ppf "cross-shard: %s@."
    (match r.leakage with Ok () -> "no leakage" | Error e -> "FAIL: " ^ e);
  Format.fprintf ppf "recovered %d shards on %d domains in %.2f ms@."
    (Array.length r.shards) r.domains_used r.wall_ms

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

(* Validate one recovered shard's contents. *)
let validate_shard ~producer_of ~check_unique ~routing shard contents =
  let name = Printf.sprintf "shard %d" (Shard.id shard) in
  let* () =
    if check_unique then Spec.Durable_check.check_unique name contents
    else Ok ()
  in
  match producer_of with
  | None -> Ok ()
  | Some producer_of ->
      let* () =
        (* Per-producer FIFO: prefix-of-dequeues leaves each stream's
           surviving values in increasing order.  Checked directly per
           stream (items carry their own ordering; [producer_of] only
           extracts the stream). *)
        let last = Hashtbl.create 16 in
        List.fold_left
          (fun acc v ->
            let* () = acc in
            let p = producer_of v in
            match Hashtbl.find_opt last p with
            | Some prev when v <= prev ->
                Error
                  (Printf.sprintf
                     "%s: stream %d out of order: %d after %d" name p v prev)
            | _ ->
                Hashtbl.replace last p v;
                Ok ())
          (Ok ()) contents
      in
      (* Routing consistency: every recovered item must sit on the shard
         its stream is pinned to. *)
      List.fold_left
        (fun acc v ->
          let* () = acc in
          match Routing.pin_of routing ~stream:(producer_of v) with
          | Some s when s <> Shard.id shard ->
              Error
                (Printf.sprintf
                   "%s: item %d of stream %d leaked from shard %d" name v
                   (producer_of v) s)
          | Some _ | None -> Ok ())
        (Ok ()) contents

let check_leakage per_shard_contents =
  let all = List.concat (Array.to_list per_shard_contents) in
  Spec.Durable_check.check_unique "across shards" all

(* The one per-shard recovery procedure: both tiers, then the offsets
   rebuilt from their contents, then validation; the verdict goes to the
   shard's quarantine before the service resumes.  [recover_ms] times
   the two rebuilds, not the validation. *)
let recover_shard ~producer_of ~check_unique service shard =
  let id = Shard.id shard in
  let r0 = Unix.gettimeofday () in
  let recovered =
    try
      let contents = Shard.recover shard in
      Option.iter
        (fun off -> Offsets.recover off ~shard:id contents)
        (Service.offsets service);
      Ok contents
    with exn ->
      Error (Printf.sprintf "recovery raised %s" (Printexc.to_string exn))
  in
  let r1 = Unix.gettimeofday () in
  let contents, check =
    match recovered with
    | Ok contents ->
        ( contents,
          validate_shard ~producer_of ~check_unique
            ~routing:(Service.routing service) shard contents )
    | Error e -> ([], Error e)
  in
  Service.record_recovery service ~shard:id check;
  (* Checkpointed recovery statistics: what the committed epoch bought
     this shard — image replay instead of a full designated-area scan.
     Zeros for algorithms without a checkpoint handle. *)
  let ckpt_epoch, replayed_items, scanned_regions =
    match Shard.checkpoint shard with
    | Some ck ->
        let s = Dq.Checkpoint.last_recovery ck in
        ( s.Dq.Checkpoint.ckpt_epoch,
          s.Dq.Checkpoint.replayed_items,
          s.Dq.Checkpoint.scanned_regions )
    | None -> (0, 0, 0)
  in
  ( {
      shard = id;
      recovered_items = List.length contents;
      recover_ms = (r1 -. r0) *. 1e3;
      ckpt_epoch;
      replayed_items;
      scanned_regions;
      check;
    },
    contents )

(* Snapshot the whole NVM image, then recover all shards in parallel.
   All application threads must have been stopped (the crash model:
   they are gone).  After the call the service is [Serving] again, every
   shard whose verdict failed quarantined, and the calling thread holds
   a fresh {!Nvm.Tid} registration. *)
let crash_and_recover ?rng ?(policy = Nvm.Crash.Random_evictions)
    ?domains ?producer_of ?(check_unique = true) service =
  Service.quiesce service;
  let shards = Service.shards service in
  let n = Array.length shards in
  (* The crash: one power failure, every DIMM's cache contents lost.  A
     refused crash (a Fast heap, a randomized policy without an rng)
     raises at shard 0 before any line is touched — the shards share one
     heap mode and one rng — so the service goes back to serving. *)
  (try Array.iter (fun s -> Nvm.Crash.crash ?rng ~policy (Shard.heap s)) shards
   with Nvm.Crash.Error _ as e ->
     Service.resume service;
     raise e);
  Nvm.Tid.reset ();
  let domains_used =
    let d =
      match domains with
      | Some d -> d
      | None -> Domain.recommended_domain_count ()
    in
    max 1 (min n d)
  in
  let reports = Array.make n None in
  let t0 = Unix.gettimeofday () in
  let workers =
    List.init domains_used (fun w ->
        Domain.spawn (fun () ->
            Nvm.Tid.set w;
            let i = ref w in
            while !i < n do
              reports.(!i) <-
                Some
                  (recover_shard ~producer_of ~check_unique service shards.(!i));
              i := !i + domains_used
            done))
  in
  List.iter Domain.join workers;
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (* The recovery domains are gone too; the caller continues as a fresh
     post-crash thread. *)
  ignore (Nvm.Tid.register ());
  let shard_reports = Array.map (fun r -> fst (Option.get r)) reports in
  let contents = Array.map (fun r -> snd (Option.get r)) reports in
  let leakage =
    if check_unique then check_leakage contents else Ok ()
  in
  Service.resume service;
  { shards = shard_reports; domains_used; wall_ms; leakage }
