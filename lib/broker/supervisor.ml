(* The broker supervisor: degrade instead of die.

   {!Recovery.crash_and_recover} reports a per-shard validation verdict
   but leaves the policy decision to the caller.  The supervisor is that
   policy: a shard whose recovery check failed is *quarantined* — fenced
   off behind {!Service.quarantine} so its pinned streams observe
   [Unavailable], new streams route around it, and the rest of the
   broker keeps serving.  A quarantined shard re-enters service only
   through {!readmit}, which re-runs the shard validation in place
   ({!Recovery.recheck}) and lifts the quarantine on a clean pass; a
   later full crash-recovery cycle whose verdict comes back clean
   re-admits it automatically.

   Quarantine never moves a stream's pin: per-producer FIFO lives on one
   shard, and splitting a stream across two shards would silently break
   it.  The honest degraded contract — [Unavailable] until the shard is
   proven sound again — is the whole point. *)

type verdict = Healthy | Quarantined of string

let verdict_name = function
  | Healthy -> "healthy"
  | Quarantined _ -> "quarantined"

type heal = {
  recovery : Recovery.report;
  verdicts : verdict array;
  newly_quarantined : int list;
  readmitted : int list;
}

let healthy h = h.newly_quarantined = [] && Result.is_ok h.recovery.leakage

let force_quarantine service ~shard ~reason =
  Service.quarantine service ~shard ~reason

(* Re-admission gate: a quarantined shard serves again only after its
   contents pass a clean re-check (which also re-seats the gauge).
   Guarded against double-readmission: two racing readmit calls (or a
   flapping drill) must not re-run the re-check on a shard that is
   already serving — the gauge re-seat would clobber live traffic's
   depth accounting. *)
let readmit ?producer_of ?check_unique service ~shard =
  if not (Service.shard_quarantined service ~shard) then
    Error (Printf.sprintf "shard %d is not quarantined" shard)
  else
  match Recovery.recheck ?producer_of ?check_unique service ~shard with
  | Ok () ->
      Service.clear_quarantine service ~shard;
      Ok ()
  | Error _ as e -> e

(* One full crash-recovery cycle, then classify every shard:
   - a failed validation verdict => quarantine (reason = the verdict);
   - a clean verdict on a previously quarantined shard => auto-readmit
     (the crash-recovery validation *is* the clean re-check). *)
let recover_and_heal ?rng ?policy ?domains ?producer_of ?check_unique service =
  let was_quarantined = Service.quarantined_shards service in
  let recovery =
    Recovery.crash_and_recover ?rng ?policy ?domains ?producer_of
      ?check_unique service
  in
  let newly_quarantined = ref [] and readmitted = ref [] in
  let verdicts =
    Array.map
      (fun (s : Recovery.shard_report) ->
        match s.check with
        | Error reason ->
            if not (Service.shard_quarantined service ~shard:s.shard) then
              newly_quarantined := s.shard :: !newly_quarantined;
            Service.quarantine service ~shard:s.shard ~reason;
            Quarantined reason
        | Ok () ->
            if List.mem s.shard was_quarantined then begin
              Service.clear_quarantine service ~shard:s.shard;
              readmitted := s.shard :: !readmitted
            end;
            Healthy)
      recovery.shards
  in
  {
    recovery;
    verdicts;
    newly_quarantined = List.rev !newly_quarantined;
    readmitted = List.rev !readmitted;
  }

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

let pp ppf h =
  Recovery.pp ppf h.recovery;
  Array.iteri
    (fun i v ->
      match v with
      | Healthy -> ()
      | Quarantined reason ->
          Format.fprintf ppf "shard %d QUARANTINED: %s@." i reason)
    h.verdicts;
  (match h.readmitted with
  | [] -> ()
  | l ->
      Format.fprintf ppf "readmitted:%a@."
        (fun ppf -> List.iter (Format.fprintf ppf " %d"))
        l);
  Format.fprintf ppf "supervisor: %s@."
    (if healthy h then "healthy" else "degraded")
