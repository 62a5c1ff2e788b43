(* Unit and property tests for the simulation substrate: time, RNG, event
   queue, engine, timers, CPU timelines. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {2 Time} *)

let test_time_conversions () =
  check_int "us" 1_500 (Sim.Time.us 1.5);
  check_int "ms" 2_000_000 (Sim.Time.ms 2.0);
  check_int "s" 3_000_000_000 (Sim.Time.s 3.0);
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Sim.Time.to_us 1_500);
  Alcotest.(check (float 1e-9)) "to_ms" 2.0 (Sim.Time.to_ms 2_000_000);
  check_int "add" 30 (Sim.Time.add 10 20);
  check_int "sub" 7 (Sim.Time.sub 17 10)

let test_serialization_delay () =
  (* 1000 bytes at 8 Gbps = 1000 ns. *)
  check_int "1000B @ 8Gbps" 1_000 (Sim.Time.of_bytes_at_gbps 1000 8.0);
  (* 92 bytes at 25 Gbps = 29.44 -> 30 ns (rounded up). *)
  check_int "92B @ 25Gbps" 30 (Sim.Time.of_bytes_at_gbps 92 25.0);
  check_int "rounding up" 1 (Sim.Time.of_bytes_at_gbps 1 1000.0)

(* {2 Rng} *)

let test_rng_determinism () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    check_bool "same stream" true (Sim.Rng.next a = Sim.Rng.next b)
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create 7L in
  let c = Sim.Rng.split a in
  let v1 = Sim.Rng.next a and v2 = Sim.Rng.next c in
  check_bool "split streams differ" true (v1 <> v2)

let test_rng_int_bounds () =
  let r = Sim.Rng.create 3L in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let r = Sim.Rng.create 4L in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.float r in
    check_bool "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_rng_uniformity () =
  let r = Sim.Rng.create 5L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Sim.Rng.int r 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "bucket %d count %d within 5%% of %d" i c (n / 10))
        true
        (abs (c - (n / 10)) < n / 200))
    buckets

let test_rng_bernoulli () =
  let r = Sim.Rng.create 6L in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Sim.Rng.bool_with_prob r 0.3 then incr hits
  done;
  let ratio = float_of_int !hits /. float_of_int n in
  check_bool (Printf.sprintf "p=0.3 measured %.3f" ratio) true (abs_float (ratio -. 0.3) < 0.01)

(* Golden stream: splitmix64's published reference outputs for seed 0,
   plus derived draws recorded before the state moved out of a boxed
   int64. Every experiment's randomness flows from this stream, so a
   representation change must not shift a single value. *)
let test_rng_golden_stream () =
  let r = Sim.Rng.create 0L in
  List.iter
    (fun want -> Alcotest.(check int64) "splitmix64 seed 0" want (Sim.Rng.next r))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ];
  let r = Sim.Rng.create 42L in
  Alcotest.(check (list int)) "int 1000" [ 605; 291; 954; 860; 250 ]
    (List.init 5 (fun _ -> Sim.Rng.int r 1000));
  Alcotest.(check (list (float 0.)))
    "float"
    [ 0x1.bc8863f47901bp-1; 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1 ]
    (List.init 3 (fun _ -> Sim.Rng.float r));
  let s = Sim.Rng.split r in
  Alcotest.(check int64) "split child" 0x0C4292E221DC4866L (Sim.Rng.next s);
  Alcotest.(check int64) "split parent" 0x9E54D738297F77AEL (Sim.Rng.next r);
  Alcotest.(check (list bool)) "bool_with_prob" [ true; true; false ]
    (List.init 3 (fun _ -> Sim.Rng.bool_with_prob r 0.5));
  Alcotest.(check (float 0.)) "exponential" 0x1.058f738835a12p+6 (Sim.Rng.exponential r 100.)

(* {2 Event queue} *)

let test_event_queue_ordering () =
  let q = Sim.Timing_wheel.create () in
  let rng = Sim.Rng.create 8L in
  for i = 0 to 999 do
    Sim.Timing_wheel.push q (Sim.Rng.int rng 10_000) i
  done;
  check_int "length" 1_000 (Sim.Timing_wheel.length q);
  let last = ref min_int in
  for _ = 1 to 1_000 do
    match Sim.Timing_wheel.pop q with
    | None -> Alcotest.fail "queue exhausted early"
    | Some (t, _) ->
        check_bool "non-decreasing" true (t >= !last);
        last := t
  done;
  check_bool "empty at end" true (Sim.Timing_wheel.is_empty q)

let test_event_queue_fifo_ties () =
  let q = Sim.Timing_wheel.create () in
  for i = 0 to 99 do
    Sim.Timing_wheel.push q 42 i
  done;
  for i = 0 to 99 do
    match Sim.Timing_wheel.pop q with
    | Some (42, v) -> check_int "insertion order among ties" i v
    | _ -> Alcotest.fail "wrong pop"
  done

let test_event_queue_peek () =
  let q = Sim.Timing_wheel.create () in
  check_bool "peek empty" true (Sim.Timing_wheel.peek_time q = None);
  Sim.Timing_wheel.push q 5 ();
  Sim.Timing_wheel.push q 3 ();
  check_bool "peek min" true (Sim.Timing_wheel.peek_time q = Some 3)

let test_event_queue_interleaved () =
  (* Property: popping after interleaved pushes still yields sorted order. *)
  let prop =
    QCheck2.Test.make ~name:"event_queue sorted under interleaving" ~count:200
      QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 1_000_000))
      (fun times ->
        let q = Sim.Timing_wheel.create () in
        let popped = ref [] in
        List.iteri
          (fun i t ->
            Sim.Timing_wheel.push q t i;
            if i mod 3 = 2 then
              match Sim.Timing_wheel.pop q with
              | Some (t, _) -> popped := t :: !popped
              | None -> ())
          times;
        let rec drain () =
          match Sim.Timing_wheel.pop q with
          | Some (t, _) ->
              popped := t :: !popped;
              drain ()
          | None -> ()
        in
        drain ();
        (* Each drain segment is sorted relative to elements popped later
           than it... the global guarantee: every popped time >= any time
           popped before it from the same queue state. Weak check: the
           total multiset is preserved. *)
        List.sort compare !popped = List.sort compare times)
  in
  QCheck_alcotest.to_alcotest prop

(* {2 Engine} *)

let test_engine_runs_in_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e 30 (fun () -> log := 30 :: !log);
  Sim.Engine.schedule e 10 (fun () -> log := 10 :: !log);
  Sim.Engine.schedule e 20 (fun () -> log := 20 :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (List.rev !log);
  check_int "clock at last event" 30 (Sim.Engine.now e)

let test_engine_schedule_past_raises () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e 100 (fun () -> ());
  Sim.Engine.run e;
  Alcotest.check_raises "past scheduling"
    (Invalid_argument "Engine.schedule: time 50 ns is before now 100 ns") (fun () ->
      Sim.Engine.schedule e 50 (fun () -> ()))

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  List.iter (fun t -> Sim.Engine.schedule e t (fun () -> fired := t :: !fired)) [ 10; 20; 30; 40 ];
  Sim.Engine.run_until e 25;
  Alcotest.(check (list int)) "fired up to horizon" [ 10; 20 ] (List.rev !fired);
  check_int "clock at horizon" 25 (Sim.Engine.now e);
  Sim.Engine.run_until e 100;
  Alcotest.(check (list int)) "rest fired" [ 10; 20; 30; 40 ] (List.rev !fired)

let test_engine_cascading_events () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      Sim.Engine.schedule_after e 5 (fun () ->
          incr count;
          chain (n - 1))
  in
  chain 10;
  Sim.Engine.run e;
  check_int "all chained events" 10 !count;
  check_int "clock" 50 (Sim.Engine.now e)

(* {2 Timer} *)

let test_timer_fires_once () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let t = Sim.Timer.create e ~callback:(fun () -> incr fired) in
  Sim.Timer.arm t 100;
  Sim.Engine.run e;
  check_int "fired once" 1 !fired;
  check_bool "disarmed after fire" false (Sim.Timer.is_armed t)

let test_timer_rearm_replaces () =
  let e = Sim.Engine.create () in
  let fired_at = ref [] in
  let t = Sim.Timer.create e ~callback:(fun () -> fired_at := Sim.Engine.now e :: !fired_at) in
  Sim.Timer.arm t 100;
  Sim.Timer.arm t 200;
  (* re-arm replaces *)
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fires only at new deadline" [ 200 ] !fired_at

let test_timer_disarm () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let t = Sim.Timer.create e ~callback:(fun () -> incr fired) in
  Sim.Timer.arm t 100;
  Sim.Timer.disarm t;
  Sim.Engine.run e;
  check_int "never fires" 0 !fired

let test_timer_disarm_then_rearm () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let t = Sim.Timer.create e ~callback:(fun () -> incr fired) in
  Sim.Timer.arm t 100;
  Sim.Timer.disarm t;
  Sim.Timer.arm_after t 300;
  Sim.Engine.run e;
  check_int "fires once after rearm" 1 !fired;
  check_int "at rearmed deadline" 300 (Sim.Engine.now e)

let test_timer_rearm_earlier () =
  let e = Sim.Engine.create () in
  let fired_at = ref [] in
  let t = Sim.Timer.create e ~callback:(fun () -> fired_at := Sim.Engine.now e :: !fired_at) in
  Sim.Timer.arm t 200;
  Sim.Timer.arm t 100;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fires once, at the earlier deadline" [ 100 ] !fired_at;
  check_bool "disarmed after fire" false (Sim.Timer.is_armed t)

let test_timer_rearm_in_callback () =
  let e = Sim.Engine.create () in
  let fired_at = ref [] in
  let self = ref None in
  let t =
    Sim.Timer.create e ~callback:(fun () ->
        fired_at := Sim.Engine.now e :: !fired_at;
        match !self with
        | Some t when List.length !fired_at < 3 -> Sim.Timer.arm_after t 100
        | _ -> ())
  in
  self := Some t;
  Sim.Timer.arm t 100;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "each re-arm fires once" [ 300; 200; 100 ] !fired_at

let test_timer_arm_twice_same_time () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let t = Sim.Timer.create e ~callback:(fun () -> incr fired) in
  Sim.Timer.arm t 100;
  Sim.Timer.arm t 100;
  Sim.Engine.run e;
  check_int "fires once" 1 !fired;
  check_int "at the deadline" 100 (Sim.Engine.now e)

let test_timer_disarm_rearm_same_deadline () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let t = Sim.Timer.create e ~callback:(fun () -> incr fired) in
  Sim.Timer.arm t 100;
  Sim.Timer.disarm t;
  Sim.Timer.arm t 100;
  Sim.Engine.run e;
  check_int "fires once" 1 !fired;
  check_int "at the deadline" 100 (Sim.Engine.now e)

let test_timer_deadline () =
  let e = Sim.Engine.create () in
  let t = Sim.Timer.create e ~callback:(fun () -> ()) in
  Sim.Timer.arm t 123;
  check_int "deadline" 123 (Sim.Timer.deadline t);
  Sim.Timer.disarm t;
  Alcotest.check_raises "deadline of unarmed" (Invalid_argument "Timer.deadline: timer not armed")
    (fun () -> ignore (Sim.Timer.deadline t))

(* {2 Cpu} *)

let test_cpu_charges_extend () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c0" in
  let t1 = Sim.Cpu.charge cpu 100 in
  check_int "first charge ends at 100" 100 t1;
  let t2 = Sim.Cpu.charge cpu 50 in
  check_int "second charge is serialized" 150 t2;
  check_int "busy total" 150 (Sim.Cpu.busy_ns cpu)

let test_cpu_idle_gap () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c0" in
  ignore (Sim.Cpu.charge cpu 10);
  Sim.Engine.schedule e 1_000 (fun () -> ignore (Sim.Cpu.charge cpu 10));
  Sim.Engine.run e;
  (* Work submitted at t=1000 starts then, not at 20. *)
  check_int "next_free" 1_010 (Sim.Cpu.next_free cpu);
  check_int "busy" 20 (Sim.Cpu.busy_ns cpu)

let test_cpu_utilization () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e ~name:"c0" in
  Sim.Engine.schedule e 1_000 (fun () -> ());
  Sim.Engine.run e;
  ignore (Sim.Cpu.charge cpu 500);
  let u = Sim.Cpu.utilization cpu in
  check_bool (Printf.sprintf "utilization 0.5 got %.2f" u) true (abs_float (u -. 0.5) < 0.01)

let suite =
  [
    Alcotest.test_case "time conversions" `Quick test_time_conversions;
    Alcotest.test_case "serialization delay" `Quick test_serialization_delay;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "rng bernoulli" `Quick test_rng_bernoulli;
    Alcotest.test_case "rng golden stream" `Quick test_rng_golden_stream;
    Alcotest.test_case "event queue ordering" `Quick test_event_queue_ordering;
    Alcotest.test_case "event queue FIFO ties" `Quick test_event_queue_fifo_ties;
    Alcotest.test_case "event queue peek" `Quick test_event_queue_peek;
    test_event_queue_interleaved ();
    Alcotest.test_case "engine order" `Quick test_engine_runs_in_order;
    Alcotest.test_case "engine rejects past" `Quick test_engine_schedule_past_raises;
    Alcotest.test_case "engine run_until" `Quick test_engine_run_until;
    Alcotest.test_case "engine cascading" `Quick test_engine_cascading_events;
    Alcotest.test_case "timer fires once" `Quick test_timer_fires_once;
    Alcotest.test_case "timer rearm replaces" `Quick test_timer_rearm_replaces;
    Alcotest.test_case "timer disarm" `Quick test_timer_disarm;
    Alcotest.test_case "timer disarm+rearm" `Quick test_timer_disarm_then_rearm;
    Alcotest.test_case "timer rearm earlier" `Quick test_timer_rearm_earlier;
    Alcotest.test_case "timer rearm in callback" `Quick test_timer_rearm_in_callback;
    Alcotest.test_case "timer arm twice same time" `Quick test_timer_arm_twice_same_time;
    Alcotest.test_case "timer disarm+rearm same deadline" `Quick
      test_timer_disarm_rearm_same_deadline;
    Alcotest.test_case "timer deadline" `Quick test_timer_deadline;
    Alcotest.test_case "cpu charges serialize" `Quick test_cpu_charges_extend;
    Alcotest.test_case "cpu idle gap" `Quick test_cpu_idle_gap;
    Alcotest.test_case "cpu utilization" `Quick test_cpu_utilization;
  ]
