(* The broker supervisor: degrade instead of die.

   {!Recovery.crash_and_recover} runs each shard's recovery procedure,
   and the procedure's verdict owns the shard's quarantine: a shard
   whose recovery failed is fenced off ({!Service.record_recovery}) so
   its pinned streams observe [Unavailable], new streams route around
   it, and the rest of the broker keeps serving, until a later
   recovery passes.  The supervisor adds the policy for drills: after a
   full crash-recovery cycle, a drilled shard whose recovery passed is
   lifted too ({!Service.clear_quarantine}, the one operator lift).
   Nothing is re-checked outside a recovery.

   Quarantine never moves a stream's pin: per-producer FIFO lives on one
   shard, and splitting a stream across two shards would silently break
   it.  The honest degraded contract — [Unavailable] until the shard is
   proven sound again — is the whole point. *)

type heal = {
  recovery : Recovery.report;
  newly_quarantined : int list;
  readmitted : int list;
}

(* Every shard's verdict, not only those of shards serving before the
   cycle: a drilled shard whose recovery failed stays quarantined as a
   failed recovery. *)
let healthy h = Recovery.ok h.recovery

(* One full crash-recovery cycle, then classify every shard:
   - a failed verdict on a shard that was serving => newly quarantined
     (the recovery already fenced it off);
   - a passing verdict on a shard quarantined before the cycle =>
     readmitted: the recovery lifted a failed recovery's quarantine,
     and a drill is lifted here (the recovery is the clean re-check). *)
let recover_and_heal ?rng ?policy ?domains ?producer_of ?check_unique service =
  let was_quarantined = Service.quarantined_shards service in
  let recovery =
    Recovery.crash_and_recover ?rng ?policy ?domains ?producer_of
      ?check_unique service
  in
  let passed i = Result.is_ok recovery.shards.(i).check in
  let readmitted = List.filter passed was_quarantined in
  (* The recovery lifted each failed recovery that passed, and this lift
     refuses those; it lifts the drills. *)
  List.iter
    (fun shard -> ignore (Service.clear_quarantine service ~shard))
    readmitted;
  let newly_quarantined =
    List.init (Array.length recovery.shards) Fun.id
    |> List.filter (fun i -> not (passed i || List.mem i was_quarantined))
  in
  { recovery; newly_quarantined; readmitted }

let pp ppf h =
  Recovery.pp ppf h.recovery;
  Array.iter
    (fun (s : Recovery.shard_report) ->
      match s.check with
      | Ok () -> ()
      | Error reason ->
          Format.fprintf ppf "shard %d QUARANTINED: %s@." s.shard reason)
    h.recovery.shards;
  (match h.readmitted with
  | [] -> ()
  | l ->
      Format.fprintf ppf "readmitted:%a@."
        (fun ppf -> List.iter (Format.fprintf ppf " %d"))
        l);
  Format.fprintf ppf "supervisor: %s@."
    (if healthy h then "healthy" else "degraded")

(* -- Checkpoint scheduler -------------------------------------------------

   Incremental checkpointing is the supervisor's other maintenance duty:
   bound recovery time by compacting each shard's heap at quiescence.
   The scheduler is per-shard and quarantine-aware — a quarantined
   shard's contents are by definition suspect, and freezing a suspect
   image into a checkpoint would launder the corruption into the
   committed epoch, so quarantined shards are always skipped.

   Triggering is a threshold on the signal of accumulated garbage: the
   shard heap's live region count (drained regions pile up as the queue
   churns).  Consistency across the tiers is by ordering: the buffered
   tier's journal is synced first, so the group-commit floor the image
   co-exists with is a committed one; the durable offset maps persist
   per-operation on the same heap but own their regions through a
   separate allocator the compactor never touches. *)

type ckpt_decision =
  | Checkpointed of Dq.Checkpoint.report
  | Skipped of string  (* why this shard was left alone *)

(* Checkpoint one shard unconditionally (unless quarantined or the
   algorithm has no checkpoint handle).  Quiescent use only: the walk of
   the live window assumes no concurrent operations. *)
let checkpoint_shard service ~shard:i =
  let shard = (Service.shards service).(i) in
  if Service.shard_quarantined service ~shard:i then Skipped "quarantined"
  else
    match Shard.checkpoint shard with
    | None -> Skipped "no checkpoint handle"
    | Some ck ->
        Shard.sync shard;
        Checkpointed (Dq.Checkpoint.run ck)

type scheduler = { s_min_live_regions : int (* 0 = every tick *) }

let scheduler ?(min_live_regions = 8) (_ : Service.t) =
  { s_min_live_regions = min_live_regions }

let due sched service ~shard:i =
  let occ = Shard.occupancy (Service.shards service).(i) in
  Nvm.Stats.live_regions occ >= sched.s_min_live_regions

(* One scheduler pass over all shards: checkpoint each non-quarantined
   shard whose threshold tripped.  Returns the per-shard decisions. *)
let checkpoint_tick sched service =
  Array.mapi
    (fun i _ ->
      if Service.shard_quarantined service ~shard:i then Skipped "quarantined"
      else if not (due sched service ~shard:i) then Skipped "below threshold"
      else checkpoint_shard service ~shard:i)
    (Service.shards service)

(* Checkpoint every eligible shard regardless of thresholds. *)
let checkpoint_all service =
  Array.mapi
    (fun i _ -> checkpoint_shard service ~shard:i)
    (Service.shards service)

let pp_ckpt_decisions ppf ds =
  Array.iteri
    (fun i d ->
      match d with
      | Checkpointed r ->
          Format.fprintf ppf "shard %d: %a@." i Dq.Checkpoint.pp_report r
      | Skipped why -> Format.fprintf ppf "shard %d: skipped (%s)@." i why)
    ds
