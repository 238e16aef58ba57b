(** Bench rows: the one record format, reader and regression gate
    behind every committed [bench/*_baseline.json] — the bench targets'
    [BENCH_*.json], [dq load]'s sweep and [dq census --json/--csv].

    A row is a flat list of named string or number fields, written as
    one JSON object per line.  A gate matches a run's rows to the
    baseline's rows by named key fields and compares one metric per
    matched row against one fraction, [DQ_GATE_FRAC]. *)

type value = Str of string | Num of float * int  (** value, decimals written *)
type t = (string * value) list

val str : string -> string -> string * value
val int : string -> int -> string * value

val num : int -> string -> float -> string * value
(** [num decimals name v]. *)

val get_num : t -> string -> float option

val output : ?lines:bool -> out_channel -> t list -> unit
(** A JSON array with one row per line, or with [~lines:true] bare JSON
    lines. *)

val output_csv : out_channel -> t list -> unit
(** A header of the first row's field names, then one line per row. *)

val write : ?lines:bool -> path:string -> t list -> unit

val read : string -> t list
(** Every row of a file in either framing, each number keeping the
    decimals it was written with.  Raises on a malformed row. *)

(** {1 The regression gate} *)

type better = Higher | Lower

type spec = {
  target : string;  (** the bench section or command the gate guards *)
  baseline : string;  (** committed baseline path *)
  where : (string * string) list;  (** gate only rows with these fields *)
  keys : string list;  (** fields matching a run row to its baseline row *)
  metric : string;
  better : better;
  floor : float;  (** baseline values under it are too noisy to gate *)
}

type failure = {
  key : string;  (** ["field=value ..."] over the spec's [keys] *)
  detail : string;
}

val gate : frac:float -> spec -> t list -> failure list
(** The run rows whose metric regressed past [frac] of their baseline
    row: below [frac * base] when higher is better, above [base / frac]
    when lower is better.  Key and [where] fields compare as written.
    A missing baseline file compares nothing, and so does [frac = 0]. *)

val frac_of_string : string -> (float, string) result
(** Any finite value [>= 0]. *)

val frac_of_env : unit -> float
(** [DQ_GATE_FRAC], default 0.7.  A malformed value is a usage error:
    it is reported and the program exits 2. *)

(** {1 The committed gates} *)

val heap_ops : spec
(** Fast single-domain [mops] per op. *)

val set_ops : spec
(** Single-domain [mops] per (map, phase). *)

val shard_scaling : spec
(** [wall_mops] per (profile, frontend, batch, shards). *)

val durability_lag : spec
(** [wall_kops] per (level, batch). *)

val recovery_time : spec
(** [recover_ms] per (algorithm, size, checkpoint); lower is better,
    baselines under 0.5 ms are not gated. *)

val load_points : spec
(** [dq load]'s [admitted_hz] per (mode, mult) point. *)

val load_knee : spec
(** [dq load]'s [knee_hz] per mode. *)
