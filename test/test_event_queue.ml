(* Tests for the engine's event queue, the timing wheel
   ([Sim.Timing_wheel]), checked against a sorted-list reference model:
   pops come out in (time, push order), across the wheel window and its
   overflow heap alike. *)

module Q = Sim.Timing_wheel

let check_int = Alcotest.(check int)

(* Drain a queue into a [(time, payload) list] with its [pop]. *)
let drain pop q =
  let rec go acc =
    match pop q with
    | None -> List.rev acc
    | Some e -> go (e :: acc)
  in
  go []

let drain_n pop q n = List.init n (fun _ -> Option.get (pop q))

(* Reference model: a (time, payload) list sorted by (time, push order).
   Inserting after every entry at or before [time] keeps ties in push
   order. *)
module Model = struct
  let create () = ref []

  let push m time v =
    let rec ins = function
      | ((t, _) as x) :: rest when t <= time -> x :: ins rest
      | rest -> (time, v) :: rest
    in
    m := ins !m

  let pop m =
    match !m with
    | [] -> None
    | x :: rest ->
        m := rest;
        Some x
end

let test_same_time_fifo () =
  let q = Q.create () in
  (* Three bursts at the same timestamp, interleaved with other times:
     ties must pop in push order. *)
  for i = 0 to 99 do
    Q.push q 500 (1_000 + i);
    Q.push q 100 (2_000 + i);
    Q.push q 500 (1_100 + i)
  done;
  let got = drain Q.pop q in
  let at t = List.filter_map (fun (t', v) -> if t = t' then Some v else None) got in
  let expect_500 =
    List.concat_map (fun i -> [ 1_000 + i; 1_100 + i ]) (List.init 100 Fun.id)
  in
  Alcotest.(check (list int)) "t=100 FIFO" (List.init 100 (fun i -> 2_000 + i)) (at 100);
  Alcotest.(check (list int)) "t=500 FIFO" expect_500 (at 500);
  check_int "drained" 300 (List.length got)

let test_clear () =
  let q = Q.create () in
  for i = 0 to 50 do
    Q.push q (i * 7) i;
    (* Some far beyond the wheel window, to land in the overflow heap. *)
    Q.push q ((i * 7) + 1_000_000) i
  done;
  Q.clear q;
  Alcotest.(check bool) "empty after clear" true (Q.is_empty q);
  check_int "length 0" 0 (Q.length q);
  Alcotest.(check bool) "no pop" true (Q.pop q = None);
  (* The queue must be fully usable after clear. *)
  Q.push q 9 1;
  Q.push q 3 2;
  Alcotest.(check (list (pair int int))) "reusable" [ (3, 2); (9, 1) ] (drain Q.pop q)

let test_pop_if_before () =
  let q = Q.create () in
  Q.push q 10 "a";
  Q.push q 20 "b";
  Q.push q 20 "b2";
  Q.push q 30 "c";
  let check_str = Alcotest.(check string) in
  (* Horizon below the minimum: nothing pops, queue untouched. *)
  check_str "too early" "none" (Q.pop_if_before q 9 ~default:"none");
  check_int "untouched" 4 (Q.length q);
  check_str "at min" "a" (Q.pop_if_before q 10 ~default:"none");
  check_int "last_time" 10 (Q.last_time q);
  (* Ties under the horizon pop in push order. *)
  check_str "tie 1" "b" (Q.pop_if_before q 25 ~default:"none");
  check_str "tie 2" "b2" (Q.pop_if_before q 25 ~default:"none");
  check_str "above horizon" "none" (Q.pop_if_before q 25 ~default:"none");
  check_str "final" "c" (Q.pop_if_before q 1_000_000 ~default:"none");
  Alcotest.(check bool) "drained" true (Q.is_empty q)

let test_window_boundary () =
  (* The wheel covers a 16384 ns window past the last popped time; events
     beyond it sit in an overflow heap and migrate in as the window
     advances. Straddle the boundary repeatedly and check order (and
     same-time FIFO across the wheel/heap seam) against the model. *)
  let build q push pop =
    let boundary = 16_384 in
    List.iteri
      (fun i off ->
        push q off (2 * i);
        push q off ((2 * i) + 1))
      [
        boundary - 1; boundary; boundary + 1; 0; boundary * 3; 1;
        boundary - 1; boundary * 2; boundary; 5; (boundary * 2) + 1; boundary * 10;
      ];
    (* Pop a few to advance the window (migrating heap entries in), then
       push more events behind and beyond the new window. *)
    let popped = ref [] in
    for _ = 1 to 6 do
      match pop q with
      | Some (t, v) -> popped := (t, v) :: !popped
      | None -> Alcotest.fail "queue exhausted early"
    done;
    List.iteri
      (fun i off -> push q off (100 + i))
      [ 2; boundary + 2; (boundary * 4) + 7; 3; boundary * 4 ];
    List.rev_append !popped (drain pop q)
  in
  let wheel = build (Q.create ()) Q.push Q.pop in
  let model = build (Model.create ()) Model.push Model.pop in
  Alcotest.(check (list (pair int int))) "wheel = model across window boundary" model wheel

(* A heap cell migrates into the wheel only on the pop after the window
   reaches it, so a same-time push made in between lands in the wheel
   first. The migrated cell was pushed earlier and must still pop first. *)
let test_seam_merge_order () =
  let run q push pop =
    push q 0 "a";
    push q 20_000 "via heap";
    push q 10_000 "b";
    let first = drain_n pop q 2 in
    (* The window now starts at 10000, so 20000 is inside it. *)
    push q 20_000 "direct";
    first @ drain pop q
  in
  Alcotest.(check (list (pair int string)))
    "migrated cell keeps push order"
    (run (Model.create ()) Model.push Model.pop)
    (run (Q.create ()) Q.push Q.pop)

(* Random push/pop interleavings: the wheel must agree with the model
   event-for-event, including tie order and interleaved pops that
   advance the window mid-stream. *)
let test_equivalence_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wheel matches sorted-list model on random interleavings"
       ~count:200
       QCheck2.Gen.(
         list_size (int_range 1 400)
           (oneof
              [
                (* push at a small offset (in-window) *)
                map (fun t -> `Push t) (int_range 0 1_000);
                (* push far out (overflow heap) *)
                map (fun t -> `Push t) (int_range 16_000 200_000);
                return `Pop;
              ]))
       (fun ops ->
         let run q push pop =
           let log = ref [] in
           (* Times are relative to the last popped time so pushes stay
              valid (an engine never schedules in the past) while still
              straddling the window; once the queue drains they restart
              from 0, behind the window. *)
           let now = ref 0 and pending = ref 0 in
           List.iteri
             (fun i op ->
               match op with
               | `Push dt ->
                   push q ((if !pending = 0 then 0 else !now) + dt) i;
                   incr pending
               | `Pop -> (
                   match pop q with
                   | Some (t, v) ->
                       now := t;
                       decr pending;
                       log := (t, v) :: !log
                   | None -> log := (-1, -1) :: !log))
             ops;
           List.rev_append !log (drain pop q)
         in
         run (Q.create ()) Q.push Q.pop = run (Model.create ()) Model.push Model.pop))

(* Allocation budget: the pooled datapath, the wheel's cell free-list and
   the per-slot request state keep the cost of a whole short run, set-up
   included, near 1.3 minor-heap words per event (the driver's issue
   closures and one-time session set-up; neither the per-packet path nor
   the request lifecycle allocates). It measured 3.4 while every request
   built a fresh handle, handler closures and argument record. A
   regression that reintroduces per-request or per-event boxing blows
   past the budget of 2.5. *)
let test_allocation_budget () =
  let run () =
    let cluster = Transport.Cluster.cx4 ~nodes:4 () in
    let d =
      Experiments.Harness.deploy ~seed:7L cluster ~threads_per_host:1
        ~register:(Experiments.Harness.register_echo ~resp_size:32)
    in
    let drivers =
      Array.init 3 (fun h ->
          let rpc = d.rpcs.(h).(0) in
          let sessions =
            [| Experiments.Harness.connect d rpc ~remote_host:3 ~remote_rpc_id:0 |]
          in
          Experiments.Harness.make_driver
            ~rng:(Sim.Rng.split (Sim.Engine.rng (Erpc.Fabric.engine d.fabric)))
            ~rpc ~sessions ~window:8 ~req_size:1024 ())
    in
    Array.iter Experiments.Harness.start_driver drivers;
    Experiments.Harness.run_ms d 2.0;
    Sim.Engine.events_processed (Erpc.Fabric.engine d.fabric)
  in
  (* Warm once so one-time pool and table growth is excluded from the
     measured run. *)
  ignore (run ());
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let events = run () in
  let words = Gc.minor_words () -. w0 in
  let per_event = words /. float_of_int events in
  if per_event > 2.5 then
    Alcotest.failf "allocation budget blown: %.2f minor words/event (budget 2.5)" per_event

(* {2 Per-packet datapath budgets}

   Each piece of the steady-state packet path allocates nothing: a warm
   packet pool, the Carousel wheel's recycled cells, the RTO timer's
   preallocated fire closure, the all-float Timely state and the RNG's
   unboxed state. Averaged over 10k calls after 100 warm-up calls, which
   grow pools and free-lists to their steady size. *)

let words_per_call f =
  for _ = 1 to 100 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  (Gc.minor_words () -. w0) /. 10_000.

let check_zero name f =
  let w = words_per_call f in
  if w > 0. then Alcotest.failf "%s: %.2f minor words/call (budget 0)" name w

let test_datapath_budgets () =
  let pool = Erpc.Wire.create_pool () in
  let payload = Bytes.create 1024 in
  check_zero "Wire.make from a warm pool" (fun () ->
      Netsim.Packet.free
        (Erpc.Wire.make pool ~src_host:0 ~dst_host:1 ~dst_rpc:0 ~wire_overhead:60 ~flow:7
           ~req_type:1 ~msg_size:4096 ~dest_session:3 ~pkt_type:Erpc.Pkthdr.Req ~pkt_num:2
           ~req_num:8 ~token:5 ~ecn_echo:false ~data:payload ~off:0 ~len:1024));
  let w = Erpc.Wheel.create ~slot_ns:1_000 ~num_slots:64 in
  let now = ref 0 and fired = ref 0 in
  let on_fire _ = incr fired in
  check_zero "Wheel.insert + poll" (fun () ->
      now := !now + 1_000;
      Erpc.Wheel.insert w ~now:!now ~at:(!now + 2_500) payload;
      Erpc.Wheel.insert w ~now:!now ~at:(!now + 2_500) payload;
      ignore (Erpc.Wheel.poll w ~now:!now on_fire));
  Alcotest.(check bool) "wheel delivered" true (!fired > 0);
  let e = Sim.Engine.create () in
  let timer = Sim.Timer.create e ~callback:(fun () -> incr fired) in
  (* The RTO pattern: re-armed before it fires, leaving a stale event. *)
  check_zero "Timer.arm" (fun () ->
      Sim.Timer.arm_after timer 100;
      Sim.Timer.arm_after timer 200;
      Sim.Engine.run e);
  let rng = Sim.Rng.create 1L in
  check_zero "Rng.int" (fun () -> ignore (Sys.opaque_identity (Sim.Rng.int rng 1_000)));
  check_zero "Rng.bool_with_prob" (fun () ->
      ignore (Sys.opaque_identity (Sim.Rng.bool_with_prob rng 0.3)));
  let cc =
    Erpc.Cc.create
      { (Erpc.Config.default_cc ~min_rtt_ns:5_000) with samples_per_update = 1 }
      ~link_gbps:25.0
  in
  let i = ref 0 in
  check_zero "Timely sample path" (fun () ->
      incr i;
      Erpc.Cc.on_sample cc ~rtt_ns:(20_000 + (!i * 7_919 mod 80_000)) ~marked:(!i land 7 = 0)
        ~now_ns:!i;
      ignore (Sys.opaque_identity (Erpc.Cc.pacing_delay_ns cc ~bytes:4_096)))

(* A paced multi-packet run end to end: eight senders keep two 64 KB
   echoes each outstanding to one victim with Timely on, so the victim's
   downlink queues, the controllers cut their rates and packets go through
   the Carousel wheel. Words per event are measured inside one deployment
   after a warm-up longer than the 5 ms RTO, so the stale timer events
   every re-arm leaves behind have reached their steady count and pools
   and free-lists their steady size. The run measures 0.021 words/event:
   the driver's continuations and batch lists, and each 64 KB response's
   msgbuf record; nothing per packet. It measured 0.035 while every
   request built a fresh handle and argument record, and about 3.2 before
   the per-packet path was made allocation-free. *)
let test_paced_run_budget () =
  let senders = 8 in
  let cluster = Transport.Cluster.cx4 ~nodes:(senders + 1) () in
  let d =
    Experiments.Harness.deploy ~seed:3L cluster ~threads_per_host:1
      ~register:(fun nx -> Experiments.Harness.register_echo nx)
  in
  let drivers =
    Array.init senders (fun h ->
        let rpc = d.rpcs.(h).(0) in
        let sessions =
          [| Experiments.Harness.connect d rpc ~remote_host:senders ~remote_rpc_id:0 |]
        in
        Experiments.Harness.make_driver
          ~rng:(Sim.Rng.split (Sim.Engine.rng (Erpc.Fabric.engine d.fabric)))
          ~rpc ~sessions ~window:2 ~req_size:65_536 ~resp_size:65_536 ())
  in
  Array.iter Experiments.Harness.start_driver drivers;
  Experiments.Harness.run_ms d 6.0;
  let engine = Erpc.Fabric.engine d.fabric in
  let paced () =
    Array.fold_left
      (fun acc h -> acc + (Erpc.Rpc.stats d.rpcs.(h).(0)).Erpc.Rpc_stats.wheel_inserts)
      0 (Array.init senders Fun.id)
  in
  let ev0 = Sim.Engine.events_processed engine and paced0 = paced () in
  let w0 = Gc.minor_words () in
  Experiments.Harness.run_ms d 3.0;
  let words = Gc.minor_words () -. w0 in
  let events = Sim.Engine.events_processed engine - ev0 in
  Alcotest.(check bool) "packets were paced" true (paced () - paced0 > 1_000);
  let per_event = words /. float_of_int events in
  if per_event > 0.05 then
    Alcotest.failf "paced run: %.3f minor words/event (budget 0.05)" per_event

(* {2 Per-RPC budgets}

   The request lifecycle allocates nothing in steady state: the server
   slot's request handle, its zero-copy view and the client slot's
   request arguments are all reused. A closed echo loop on one session,
   driven by one preallocated continuation, is warmed up past the 5 ms
   RTO so the wheel cells of superseded RTO events are recycled; then
   every word it allocates is a regression. The loop runs once with a
   Dispatch handler and once with a Worker handler, whose job and
   response hand-off reuse per-slot and per-worker closures. *)

let per_rpc_budget mode () =
  let cluster = Transport.Cluster.cx4 ~nodes:2 () in
  let register nx =
    Erpc.Nexus.register_handler nx ~req_type:Experiments.Harness.echo_req_type ~mode (fun h ->
        Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:32))
  in
  let d = Experiments.Harness.deploy ~seed:11L cluster ~threads_per_host:1 ~register in
  let rpc = d.rpcs.(0).(0) in
  let sess = Experiments.Harness.connect d rpc ~remote_host:1 ~remote_rpc_id:0 in
  let req = Erpc.Msgbuf.alloc ~max_size:32 and resp = Erpc.Msgbuf.alloc ~max_size:32 in
  let completed = ref 0 in
  let rec cont r =
    if r = Ok () then incr completed;
    issue ()
  and issue () =
    Erpc.Rpc.enqueue_request rpc sess ~req_type:Experiments.Harness.echo_req_type ~req ~resp
      ~cont
  in
  issue ();
  Experiments.Harness.run_ms d 6.0;
  let c0 = !completed in
  let w0 = Gc.minor_words () in
  Experiments.Harness.run_ms d 4.0;
  let words = Gc.minor_words () -. w0 in
  let rpcs = !completed - c0 in
  Alcotest.(check bool) "the loop ran" true (rpcs > 500);
  let per_rpc = words /. float_of_int rpcs in
  if per_rpc > 1. then Alcotest.failf "closed echo loop: %.2f minor words/RPC (budget 1)" per_rpc

let test_free_slot_budget () =
  let sess =
    Erpc.Session.create ~sn:0 ~role:Erpc.Session.Client ~token:1 ~remote_host:1
      ~remote_rpc_id:0 ~credits:8 ~req_window:8
  in
  (* The scan passes seven busy slots before it finds the idle one. *)
  for i = 0 to 6 do
    (Erpc.Session.slot sess i).Erpc.Session.busy <- true
  done;
  check_zero "Session.free_slot" (fun () ->
      ignore (Sys.opaque_identity (Erpc.Session.free_slot sess ~req_window:8)));
  Alcotest.(check int) "finds the idle slot" 7
    (Erpc.Session.free_slot sess ~req_window:8).Erpc.Session.index

(* The wheel-occupancy gauge (the calendar queue's load factor):
   it must track how many wheel slots hold pending events and drain back
   to zero with the queue. *)
let test_wheel_occupancy_gauge () =
  let e = Sim.Engine.create ~seed:1L () in
  Sim.Engine.schedule e 10 (fun () -> ());
  Sim.Engine.schedule e 5_000 (fun () -> ());
  let occ () = Obs.Metrics.max_gauge (Sim.Engine.metrics e) ~name:"sim.wheel_occupancy" in
  Alcotest.(check bool) "gauge sees pending events" true (occ () >= 1.);
  Sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "gauge drains to zero" 0.0 (occ ())

let suite =
  [
    Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "wheel occupancy gauge" `Quick test_wheel_occupancy_gauge;
    Alcotest.test_case "clear semantics" `Quick test_clear;
    Alcotest.test_case "pop_if_before" `Quick test_pop_if_before;
    Alcotest.test_case "wheel window boundary" `Quick test_window_boundary;
    Alcotest.test_case "heap-to-wheel merge order" `Quick test_seam_merge_order;
    test_equivalence_qcheck;
    Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
    Alcotest.test_case "datapath allocation budgets" `Quick test_datapath_budgets;
    Alcotest.test_case "paced run allocation budget" `Quick test_paced_run_budget;
    Alcotest.test_case "per-RPC allocation budget" `Quick (per_rpc_budget Erpc.Nexus.Dispatch);
    Alcotest.test_case "per-RPC allocation budget, worker" `Quick
      (per_rpc_budget Erpc.Nexus.Worker);
    Alcotest.test_case "free_slot allocation budget" `Quick test_free_slot_budget;
  ]
