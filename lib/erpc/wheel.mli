(** Timing wheel (Carousel, SIGCOMM '17): the rate limiter's data
    structure.

    Fixed-granularity circular array of slots; entries are inserted at
    their scheduled transmission time and drained in slot order by [poll].
    Entries beyond the horizon are clamped to the farthest slot — callers
    pick a horizon larger than the maximum pacing gap (MTU at the minimum
    Timely rate), so clamping is a safety net, not a steady-state path.
    Entry cells are recycled, so steady-state [insert] and [poll] allocate
    nothing. *)

type 'a t

val create : slot_ns:int -> num_slots:int -> 'a t

(** [insert t ~now ~at x] schedules [x] for time [at] (clamped to
    [now, now + horizon)). Entries scheduled in the past fire on the next
    poll. *)
val insert : 'a t -> now:Sim.Time.t -> at:Sim.Time.t -> 'a -> unit

(** [poll t ~now f] delivers every entry whose slot time has been reached,
    in slot order, and returns their count. *)
val poll : 'a t -> now:Sim.Time.t -> ('a -> unit) -> int

val pending : 'a t -> int
val horizon_ns : 'a t -> int
