(** One-shot cancellable timer over an {!Engine}.

    Re-arming an armed timer replaces the previous deadline; stale engine
    events are left in the queue and do nothing when they run (the timer
    fires only from the event its last [arm] scheduled). Arming allocates
    nothing beyond the engine's recycled event cell. *)

type t

val create : Engine.t -> callback:(unit -> unit) -> t

(** Arm (or re-arm) to fire at the given absolute time. *)
val arm : t -> Time.t -> unit

(** Arm (or re-arm) to fire after the given delay. *)
val arm_after : t -> Time.t -> unit

val disarm : t -> unit
val is_armed : t -> bool

(** Deadline of the armed timer. Raises [Invalid_argument] if unarmed. *)
val deadline : t -> Time.t
