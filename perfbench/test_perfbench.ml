(* Tests of the benchmark itself: BENCHMARK.json names exactly the metrics
   the runner prints, every name and unit is valid, percentiles are
   ordered, and each workload runs clean on a short window. *)

open Perfbench

let benchmark_json = "../BENCHMARK.json"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let find_from s sub i =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go i

(* The ["name"] values of the objects in the array after [key]. *)
let names_after s key =
  let start = Option.get (find_from s ("\"" ^ key ^ "\"") 0) in
  let stop = Option.get (find_from s "]" start) in
  let rec go i acc =
    match find_from s "\"name\": \"" i with
    | Some j when j < stop ->
        let v0 = j + String.length "\"name\": \"" in
        let v1 = String.index_from s v0 '"' in
        go v1 (String.sub s v0 (v1 - v0) :: acc)
    | _ -> List.rev acc
  in
  go start []

let valid_unit u =
  String.length u >= 1
  && String.length u <= 16
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || String.contains "_/%.-" c)
       u

let test_names () =
  let s = read_file benchmark_json in
  let names l = List.map fst l in
  Alcotest.(check (list string))
    "end_to_end" (names Runner.end_to_end) (names_after s "end_to_end");
  Alcotest.(check (list string)) "per_layer" (names Runner.per_layer) (names_after s "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Wl.t) -> w.name) [ Rpc_rate.workload; Kv_rw.workload; Incast_probe.workload ])
    (names_after s "workloads");
  let all = Runner.end_to_end @ Runner.per_layer in
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("valid name " ^ n) true (Measure.valid_name n);
      Alcotest.(check bool) ("valid unit " ^ u) true (valid_unit u))
    all;
  Alcotest.(check int)
    "names unique" (List.length all)
    (List.length (List.sort_uniq compare (List.map fst all)))

let test_percentiles () =
  let rng = Random.State.make [| 7 |] in
  let s = Measure.Samples.create () in
  for _ = 1 to 20_000 do
    Measure.Samples.add s (Random.State.int rng 1_000_000)
  done;
  let p q = Measure.Samples.percentile s q in
  Alcotest.(check bool) "p50 <= p99 <= p99.9" true (p 50. <= p 99. && p 99. <= p 99.9);
  Alcotest.(check bool) "twenty beyond p99.9" true (Measure.Samples.beyond s 99.9 = 20);
  (* 500 samples leave 0 beyond p99.9 and 5 beyond p99: the tail falls
     back to p90. *)
  let small = Measure.Samples.create () in
  for i = 1 to 500 do
    Measure.Samples.add small i
  done;
  let tp, v = Measure.honest_tail small ~want:99.9 in
  Alcotest.(check (float 0.)) "fallback percentile" 90. tp;
  Alcotest.(check (float 1e-9)) "fallback value" 0.45 v

let metric r name =
  match List.find_opt (fun (n, _, _) -> n = name) r.Runner.metrics with
  | Some (_, v, _) -> v
  | None -> Alcotest.failf "metric %s missing" name

(* A short window of each workload, untraced then traced: clean, every
   metric present, and latency percentiles ordered. *)
let run_small (wl : Wl.t) () =
  let plain = Runner.run wl ~seed:2 ~seconds:0. ~traced:false ~spans_out:None in
  Alcotest.(check bool) "untraced run correct" true plain.correct;
  Alcotest.(check (list string))
    "end-to-end metrics" (List.map fst Runner.end_to_end)
    (List.map (fun (n, _, _) -> n) plain.metrics);
  Alcotest.(check bool) "p50 <= tail" true (metric plain "lat_p50_us" <= metric plain "lat_tail_us");
  (* Each operation class's percentiles, in the order printed, ascend. *)
  let classes =
    List.sort_uniq compare
      (List.filter_map
         (fun (n, _, u) -> if u = "us" then Some (List.hd (String.split_on_char '_' n)) else None)
         plain.named)
  in
  List.iter
    (fun c ->
      let vs =
        List.filter_map
          (fun (n, v, u) ->
            if u = "us" && List.hd (String.split_on_char '_' n) = c then Some v else None)
          plain.named
      in
      Alcotest.(check bool) (c ^ " percentiles ascend") true (vs = List.sort compare vs))
    classes;
  List.iter
    (fun (n, v, _) -> Alcotest.(check bool) (n ^ " positive") true (v > 0.))
    plain.metrics;
  let traced = Runner.run wl ~seed:2 ~seconds:0. ~traced:true ~spans_out:None in
  Alcotest.(check bool) "traced run correct" true traced.correct;
  Alcotest.(check (list string))
    "per-layer metrics" (List.map fst Runner.per_layer)
    (List.map (fun (n, _, _) -> n) traced.metrics);
  Alcotest.(check (float 0.)) "no session opened in the window" 0.
    (metric traced "erpc.sessions_opened");
  Alcotest.(check (float 0.)) "generator never late" 0. (metric traced "workload.gen_late_ns_max");
  Alcotest.(check (float 0.)) "trace kept the window" 0. (metric traced "obs.trace_dropped")

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "rpc-rate" `Quick
            (run_small (Rpc_rate.make ~window_ns:200_000 ~warmup_ns:100_000 ()));
          Alcotest.test_case "kv-rw" `Quick (run_small (Kv_rw.make ~window_ns:20_000_000 ()));
          Alcotest.test_case "incast-probe" `Quick
            (run_small (Incast_probe.make ~window_ns:2_000_000 ~warmup_ns:1_000_000 ()));
        ] );
    ]
