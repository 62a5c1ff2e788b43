(** Discrete-event simulation engine.

    Events are thunks executed in timestamp order (FIFO among equal
    timestamps). A single engine drives one experiment; all randomness comes
    from streams split off the engine's master RNG, so a given seed fully
    determines the run. *)

type t

val create : ?seed:int64 -> unit -> t

(** Current simulated time. *)
val now : t -> Time.t

(** Master RNG; use [Rng.split] to derive per-component streams. *)
val rng : t -> Rng.t

(** Engine-scoped event trace. Defaults to [Obs.Trace.disabled]; components
    cache this at creation time and guard hooks with [Obs.Trace.enabled],
    so install the trace (via [set_trace]) before building the cluster. *)
val trace : t -> Obs.Trace.t

val set_trace : t -> Obs.Trace.t -> unit

(** Engine-scoped metrics registry; components register counters, gauges
    and histograms into it at creation time. *)
val metrics : t -> Obs.Metrics.t

(** [schedule t at f] runs [f] at absolute time [at]. [at] must not be in
    the past. *)
val schedule : t -> Time.t -> (unit -> unit) -> unit

(** [schedule_after t delta f] runs [f] at [now t + delta]. *)
val schedule_after : t -> Time.t -> (unit -> unit) -> unit

(** As [schedule], returning the event's id: the id {!current_id} reports
    while that event runs. Ids are never reused within an engine. *)
val schedule_id : t -> Time.t -> (unit -> unit) -> int

(** Id of the event being executed (or, between events, of the last one
    executed). *)
val current_id : t -> int

(** Run until the event queue is empty. *)
val run : t -> unit

(** Run events with timestamp <= the given horizon; the clock is advanced to
    the horizon afterwards. *)
val run_until : t -> Time.t -> unit

(** Number of events executed so far. *)
val events_processed : t -> int

(** Number of events pending. *)
val pending : t -> int
