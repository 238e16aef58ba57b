(** Crash-storm drills: seeded, replayable fault-injection campaigns
    against a live sharded broker.  Each cycle runs one {!Drive} window
    of multi-domain producer/consumer load through the {!Fault.Retry}
    combinators, optionally stages a forced-quarantine drill, crashes
    every shard heap with the {!Fault.Plan}'s policy and seed, heals
    through {!Broker.Supervisor}, and verifies that recovery allocated
    no region (no shard holds more live regions than just before the
    crash), zero acknowledged-item loss and per-stream FIFO
    ({!Drive.verify}).  The same seed replays the identical storm
    ({!Fault.Report.replay_log}). *)

type config = {
  algorithm : string;
  shards : int;
  producers : int;  (** one stream per producer domain *)
  consumers : int;  (** [dequeue_any] drain domains *)
  ops_per_cycle : int;  (** enqueues per producer per cycle *)
  batch : int;  (** 1 = unbatched *)
  combining : bool;
      (** flat-combining enqueue front-end ({!Dq.Combining_q}) on every
          shard — crashes can then land mid-combine, and recovery must
          treat a torn combined batch like a torn client batch *)
  depth_bound : int;
  routing : Broker.Routing.policy;
  drill_every : int;
      (** forced-quarantine drill every Nth cycle; 0 = never *)
  retry : Fault.Retry.policy;
  checkpoint_every : int;
      (** run the supervisor's checkpoint pass ({!Broker.Supervisor})
          every Nth cycle at the quiescent point before the crash
          (0 = never).  Contents-neutral: the replay log is untouched;
          recovery becomes bounded image replay, visible in the
          per-cycle [recover_ms]. *)
  acks : Broker.Service.acks;
      (** the streams' durability level.  Weak levels exercise the
          buffered group-commit tier under the storm: producers sync
          their stream at cycle end and the quiesced storm syncs every
          shard before the crash, so acked still implies survives. *)
  admission : Broker.Admission.tenant option;
      (** when set, every producer enqueues as a tenant (stream w =
          tenant w) under this contract through {!Broker.Admission}
          with graceful degradation on: sheds retry (quotas refill,
          watermarks drain) so the acked range stays contiguous, and a
          producer out of retry budget stops its stream for the cycle.
          An item acknowledged through admission obeys the same
          zero-loss verification — an acked-then-shed contradiction
          surfaces as a verify failure. *)
  arrival_hz : float;
      (** open-loop pacing per producer when [admission] is set: seeded
          exponential inter-arrivals, ops stamped with their scheduled
          arrival so deadline shedding sees queueing age.  0 = tight
          loop. *)
}

val default_config : config
(** OptUnlinkedQ, 4 shards, 4 producers + 2 consumers, 120 ops/cycle in
    batches of 4, [Round_robin], a drill every 5th cycle,
    [Acks_all_synced]. *)

val run : seed:int -> cycles:int -> config -> Fault.Report.t
(** Run the storm on [Checked] heaps (the only ones that can crash).
    The calling thread must be the only live {!Nvm.Tid} user; on return
    it holds a fresh registration.
    @raise Invalid_argument on a producer-less config. *)
