(* The three mutable floats live in an all-float record, which OCaml
   stores flat: writing one stores the raw double instead of boxing a
   fresh float, as a float field of a mixed record would. *)
type rates = { mutable rate_bps : float; mutable prev_rtt : float; mutable avg_rtt_diff : float }

type t = {
  cc : Config.cc;
  max_rate_bps : float;
  f : rates;
  mutable neg_gradient_count : int;
  mutable updates : int;
  mutable samples_since_update : int;
  mutable ecn_marks : int;
  mutable last_sample_at : Sim.Time.t;
}

let create ?(phase = 0) cc ~link_gbps =
  let max_rate = link_gbps *. 1e9 in
  {
    cc;
    max_rate_bps = max_rate;
    f = { rate_bps = max_rate; prev_rtt = float_of_int cc.min_rtt_ns; avg_rtt_diff = 0. };
    neg_gradient_count = 0;
    updates = 0;
    (* Stagger sessions' update cadence so the fleet does not apply
       multiplicative decrease in lockstep. *)
    samples_since_update = phase mod max 1 cc.samples_per_update;
    ecn_marks = 0;
    last_sample_at = Sim.Time.zero;
  }

let rate_bps t = t.f.rate_bps
let uncongested t = t.f.rate_bps >= t.max_rate_bps
let updates t = t.updates

(* [Float.min hi (Float.max lo r)], written out so no float crosses a
   function boundary (rates are never NaN). *)
let[@inline] clamp t r =
  let lo = t.cc.min_rate_bps in
  let r = if r >= lo then r else lo in
  if r <= t.max_rate_bps then r else t.max_rate_bps

let run_update t ~sample_rtt_ns =
  t.updates <- t.updates + 1;
  let f = t.f in
  let sample = float_of_int sample_rtt_ns in
  let rtt_diff = sample -. f.prev_rtt in
  f.prev_rtt <- sample;
  if rtt_diff <= 0. then t.neg_gradient_count <- t.neg_gradient_count + 1
  else t.neg_gradient_count <- 0;
  f.avg_rtt_diff <-
    ((1. -. t.cc.ewma_alpha) *. f.avg_rtt_diff) +. (t.cc.ewma_alpha *. rtt_diff);
  let normalized_gradient = f.avg_rtt_diff /. float_of_int t.cc.min_rtt_ns in
  let new_rate =
    if sample_rtt_ns < t.cc.t_low_ns then f.rate_bps +. t.cc.add_rate_bps
    else if sample_rtt_ns > t.cc.t_high_ns then
      f.rate_bps *. (1. -. (t.cc.beta *. (1. -. (float_of_int t.cc.t_high_ns /. sample))))
    else if normalized_gradient <= 0. then begin
      (* Hyperactive increase after [hai_thresh] consecutive decreases in
         RTT: recover bandwidth quickly once the queue drains. *)
      let n = if t.neg_gradient_count >= t.cc.hai_thresh then 5. else 1. in
      f.rate_bps +. (n *. t.cc.add_rate_bps)
    end
    else begin
      (* One update cuts at most half, as in eRPC's Timely implementation. *)
      let cut = 1. -. (t.cc.beta *. normalized_gradient) in
      f.rate_bps *. if cut >= 0.5 then cut else 0.5
    end
  in
  f.rate_bps <- clamp t new_rate

(* Timely's rate computation uses only the RTT, but the full
   acknowledgement signal is recorded so the controller (and anything
   layered on it) sees the same inputs DCQCN does. *)
let update t ~sample_rtt_ns ~marked ~now_ns =
  if marked then t.ecn_marks <- t.ecn_marks + 1;
  if now_ns > t.last_sample_at then t.last_sample_at <- now_ns;
  t.samples_since_update <- t.samples_since_update + 1;
  if t.samples_since_update >= t.cc.samples_per_update then begin
    t.samples_since_update <- 0;
    run_update t ~sample_rtt_ns
  end

let pacing_delay_ns t ~bytes =
  int_of_float (ceil (float_of_int (bytes * 8) /. t.f.rate_bps *. 1e9))

let set_rate_bps t r = t.f.rate_bps <- clamp t r
let ecn_marks t = t.ecn_marks
