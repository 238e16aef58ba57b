(* CrashableMap: crash-consistency specification and exploration for the
   durable keyed-store tier (lib/dset), in the spirit of verified-betrfs'
   CrashableMap.dfy (SNIPPETS.md §1).

   The dfy spec keeps a sequence of views: the ephemeral view is what
   operations act on, the persistent view is what a crash falls back to,
   and [sync] collapses the two; a crash exposes some view between the
   last durable point and the latest ({!Lin_check.views}).  Its authors
   anticipate relaxing the "every intermediate view" guarantee; this
   checker is exactly that anticipated relaxation, made per key: SOFT's
   lazy removals mean a post-crash state need not be a single prefix of
   the applied-op sequence globally (an unpersisted remove of one key can
   coexist with a later persisted put of another), so the view rule is
   applied to each key's register on its own.

   Durability, from each variant's persistence discipline:
   - a put is durable on return for both variants;
   - a remove is durable for the link-free map (one fence before
     returning) but not for SOFT ([lazy_remove]);
   - a sync makes every key's latest operation durable.

   An operation pending at the crash (its thread died mid-call) may
   additionally have taken effect; every policy in {!Nvm.Crash} — the
   benign [All_flushed], the adversarial [Only_persisted], and the
   mid-writeback [Torn_prefix] — must land inside this admissible set.
   Under [All_flushed] with no pending operation the recovered state
   must equal the ephemeral view exactly, and the runner checks that
   stronger claim too. *)

type op = Put of int * int | Remove of int | Sync

let pp_op = function
  | Put (k, v) -> Printf.sprintf "put(%d,%d)" k v
  | Remove k -> Printf.sprintf "remove(%d)" k
  | Sync -> "sync"

let pp_script ops = String.concat " " (List.map pp_op ops)

(* {1 The admissibility check} *)

let key_of = function Put (k, _) | Remove k -> Some k | Sync -> None

(* One key's register: its value, or [None] when absent. *)
let apply_register s = function
  | Put (_, v) -> Some v
  | Remove _ -> None
  | Sync -> s

let check_recovered ~lazy_remove ~applied ?pending ~recovered () =
  (* Each written key's operations, newest first, flagged durable. *)
  let ops : (int, (op * bool) list) Hashtbl.t = Hashtbl.create 32 in
  let add k entry =
    Hashtbl.replace ops k
      (entry :: Option.value ~default:[] (Hashtbl.find_opt ops k))
  in
  List.iter
    (fun op ->
      match op with
      | Put (k, _) -> add k (op, true)
      | Remove k -> add k (op, not lazy_remove)
      | Sync ->
          Hashtbl.filter_map_inplace
            (fun _ -> function
              | (latest, _) :: older -> Some ((latest, true) :: older)
              | [] -> Some [])
            ops)
    applied;
  let views k =
    Lin_check.views ~init:None ~apply:apply_register
      ?pending:(Option.bind pending (fun op ->
                    if key_of op = Some k then Some op else None))
      (List.rev (Option.value ~default:[] (Hashtbl.find_opt ops k)))
  in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* Recovered keys: each once, each holding one of its views (a key
     never written has the single view "absent"). *)
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (k, v) ->
      if Hashtbl.mem seen k then err "key %d recovered twice" k
      else begin
        Hashtbl.add seen k ();
        if not (List.mem (Some v) (views k)) then
          err "key %d recovered as %d, not one of its views" k v
      end)
    recovered;
  (* Missing keys: "absent" must be one of their views. *)
  Hashtbl.iter
    (fun k _ ->
      if not (Hashtbl.mem seen k || List.mem None (views k)) then
        err "key %d missing after recovery (a durable op requires it)" k)
    ops;
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " es)

(* {1 Crash exploration over real map instances} *)

(* One execution: run [script]'s first [crash_after] operations on a
   fresh instance of [entry]; optionally run the next one through the
   crash driver, cut after [step] of its heap primitives; crash, recover,
   and check the recovered contents against the admissible set.  The
   instance is warmed first so designated areas exist before the driver
   runs — a cut inside area creation would poison allocator locks. *)
let run_to_crash (entry : Dq.Registry.map_entry) ~script ~crash_after ?step
    ~policy ~seed () =
  Nvm.Tid.reset ();
  ignore (Nvm.Tid.register ());
  let heap = Nvm.Heap.create () in
  let inst = entry.Dq.Registry.make_map heap in
  let warm_key = 999_983 in
  inst.Dset.Map_intf.put ~key:warm_key ~value:0;
  ignore (inst.Dset.Map_intf.remove ~key:warm_key);
  let warm = [ Put (warm_key, 0); Remove warm_key ] in
  let apply op =
    match op with
    | Put (k, v) -> inst.Dset.Map_intf.put ~key:k ~value:v
    | Remove k -> ignore (inst.Dset.Map_intf.remove ~key:k)
    | Sync -> inst.Dset.Map_intf.sync ()
  in
  let crash_after = min crash_after (List.length script) in
  let prefix = List.filteri (fun i _ -> i < crash_after) script in
  List.iter apply prefix;
  let completed, pending =
    match (step, List.nth_opt script crash_after) with
    | Some s, Some op ->
        (* One fiber: the scheduling rng is its own, so the crash rng
           below draws the same values whatever the cut. *)
        if
          Option.is_none
            (Explore.run ~heap ~rng:(Random.State.make [| seed |])
               ~crash_at:(Some (s + 1))
               [| (fun () -> apply op) |])
        then (prefix, Some op)
        else (prefix @ [ op ], None) (* finished first: boundary crash *)
    | _ -> (prefix, None)
  in
  let applied = warm @ completed in
  Explore.crash_and_recover ~heap ~rng:(Random.State.make [| seed |]) ~policy
    inst.Dset.Map_intf.recover;
  let recovered = inst.Dset.Map_intf.to_alist () in
  let ctx msg =
    Printf.sprintf
      "%s: %s [script: %s | crash after %d ops%s | policy %s | seed %d]"
      entry.Dq.Registry.m_name msg (pp_script script) crash_after
      (match step with
      | Some s -> Printf.sprintf " + %d steps" s
      | None -> "")
      (Nvm.Crash.policy_name policy) seed
  in
  let lazy_remove = entry.Dq.Registry.lazy_remove in
  match
    check_recovered ~lazy_remove ~applied ?pending ~recovered ()
  with
  | Error msg -> Error (ctx msg)
  | Ok () ->
      (* Under the benign policy with no operation in flight, recovery
         must reproduce the ephemeral view exactly. *)
      let exact_due = policy = Nvm.Crash.All_flushed && pending = None in
      let model = Hashtbl.create 32 in
      List.iter
        (function
          | Put (k, v) -> Hashtbl.replace model k (Some v)
          | Remove k -> Hashtbl.replace model k None
          | Sync -> ())
        applied;
      let ephemeral =
        Hashtbl.fold
          (fun k v acc ->
            match v with Some v -> (k, v) :: acc | None -> acc)
          model []
      in
      let sort = List.sort compare in
      if exact_due && sort recovered <> sort ephemeral then
        Error (ctx "All_flushed recovery differs from the ephemeral view")
      else begin
        (* the recovered instance must remain operational *)
        inst.Dset.Map_intf.put ~key:warm_key ~value:7;
        match inst.Dset.Map_intf.get ~key:warm_key with
        | Some 7 -> Ok ()
        | _ -> Error (ctx "map not operational after recovery")
      end

let default_policies =
  [ Nvm.Crash.All_flushed; Nvm.Crash.Only_persisted; Nvm.Crash.Torn_prefix ]

(* Crash at every operation boundary of [script], under every policy. *)
let exhaustive ?(policies = default_policies) entry ~script ~seed =
  let np = List.length policies in
  Explore.rounds
    ((List.length script + 1) * np)
    (fun j ->
      let i = j / np in
      run_to_crash entry ~script ~crash_after:i
        ~policy:(List.nth policies (j mod np))
        ~seed:(seed + i) ())

(* Randomized campaign: random scripts, random crash points, two rounds
   in three cutting mid-operation after a random number of primitives,
   cycling through the policies.  Failures carry the script, crash
   point, policy and seed for replay. *)
let campaign ?(policies = default_policies) entry ~rounds =
  Explore.rounds rounds (fun r ->
      let rng = Random.State.make [| 0xC4A5; r |] in
      let len = 8 + Random.State.int rng 16 in
      let script =
        List.init len (fun _ ->
            match Random.State.int rng 10 with
            | 0 -> Sync
            | i when i < 4 -> Remove (Random.State.int rng 8)
            | _ ->
                Put (Random.State.int rng 8, 100 + Random.State.int rng 900))
      in
      let crash_after = Random.State.int rng (len + 1) in
      let step =
        if r mod 3 = 0 then None else Some (Random.State.int rng 48)
      in
      let policy = List.nth policies (r mod List.length policies) in
      run_to_crash entry ~script ~crash_after ?step ~policy ~seed:r ())
