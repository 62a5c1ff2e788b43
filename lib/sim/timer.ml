(* Each timer owns one fire closure, built at creation: arming schedules
   it and remembers the event's id, so re-arming allocates nothing. A
   superseded event still runs, but does nothing — only the event the
   last [arm] scheduled may fire, and only while the timer is armed. *)
type t = {
  engine : Engine.t;
  callback : unit -> unit;
  mutable fire : unit -> unit;
  mutable event_id : int;
  mutable armed : bool;
  mutable deadline : Time.t;
}

let create engine ~callback =
  let t =
    { engine; callback; fire = ignore; event_id = -1; armed = false; deadline = Time.zero }
  in
  t.fire <-
    (fun () ->
      if t.armed && Engine.current_id t.engine = t.event_id then begin
        t.armed <- false;
        t.callback ()
      end);
  t

let arm t at =
  t.armed <- true;
  t.deadline <- at;
  t.event_id <- Engine.schedule_id t.engine at t.fire

let arm_after t delta = arm t (Time.add (Engine.now t.engine) delta)
let disarm t = t.armed <- false
let is_armed t = t.armed

let deadline t =
  if not t.armed then invalid_arg "Timer.deadline: timer not armed";
  t.deadline
