(** Open-loop arrival schedules: seeded Poisson processes with
    piecewise-constant burst phases.

    The schedule is planned up front as virtual offsets from the run
    start — the generator then maps them onto the wall clock with
    {!Nvm.Latency.sleep_until}.  Planning ahead is what makes the load
    open-loop: when the service falls behind, arrivals do not slow
    down; the backlog (and each op's age against its deadline) grows
    instead, exactly like an outside world that does not wait. *)

type burst = {
  b_start_s : float;  (** burst onset, seconds from run start *)
  b_dur_s : float;  (** burst length in seconds *)
  b_mult : float;  (** rate multiplier while active (>= 0) *)
}

val rate_at : rate_hz:float -> bursts:burst list -> float -> float
(** Instantaneous rate at an offset: [rate_hz] times the product of
    every active burst's multiplier. *)

val exp_draw : Random.State.t -> float -> float
(** [exp_draw rng rate]: one exponential inter-arrival time at [rate]
    (per second), from one uniform draw of [rng] clamped away from 0. *)

val plan :
  rng:Random.State.t ->
  rate_hz:float ->
  duration_s:float ->
  ?bursts:burst list ->
  unit ->
  float array
(** Ascending arrival offsets in [0, duration_s).  A non-homogeneous
    Poisson process sampled by thinning against the peak rate, so the
    draw sequence (and thus the schedule) is fully determined by
    [rng]'s seed.  Empty when [rate_hz <= 0.]. *)
