(* Domain-parallel replication (Par_sweep): the job count must be
   invisible in the results, so the suite tests here are equalities
   between a sequential and a parallel execution of the same seeded
   work.

   [ERPC_TEST_DOMAINS] (default 2) sets the parallel side, letting CI
   force the suite through a given domain count without editing tests. *)

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let forced_domains =
  match Sys.getenv_opt "ERPC_TEST_DOMAINS" with
  | Some s -> (try Stdlib.max 1 (int_of_string s) with _ -> 2)
  | None -> 2

(* {2 Par_sweep: jobs=1 vs jobs=N equality for the replication suites} *)

let test_chaos_jobs_equality () =
  let s1 = Experiments.Chaos.run_suite ~seeds:5 ~jobs:1 () in
  let sn = Experiments.Chaos.run_suite ~seeds:5 ~jobs:forced_domains () in
  check_int "same run count" (List.length s1) (List.length sn);
  List.iter2
    (fun (a : Experiments.Chaos.run_result) (b : Experiments.Chaos.run_result) ->
      check_string (Printf.sprintf "seed %Ld: identical trace" a.seed) a.trace b.trace)
    s1 sn

let test_kv_chaos_jobs_equality () =
  let s1 = Experiments.Exp_kv_chaos.run_suite ~seeds:5 ~jobs:1 () in
  let sn = Experiments.Exp_kv_chaos.run_suite ~seeds:5 ~jobs:forced_domains () in
  check_int "same run count" (List.length s1) (List.length sn);
  List.iter2
    (fun (a : Experiments.Exp_kv_chaos.run_result)
         (b : Experiments.Exp_kv_chaos.run_result) ->
      check_string (Printf.sprintf "seed %Ld: identical trace" a.seed) a.trace b.trace)
    s1 sn

let test_cluster_load_jobs_equality () =
  List.iter
    (fun seed ->
      let run jobs =
        Experiments.Exp_cluster_load.run_all ~seed ~scale:0.2 ~horizon_ms:5.0 ~jobs ()
      in
      List.iter2
        (fun (a : Experiments.Exp_cluster_load.result)
             (b : Experiments.Exp_cluster_load.result) ->
          check_string
            (Printf.sprintf "seed %Ld %s: identical digest" seed a.scenario)
            a.digest b.digest)
        (run 1) (run forced_domains))
    [ 3L; 5L; 7L; 11L; 13L ]

(* {2 Par_sweep mechanics} *)

let test_par_sweep_order_and_exn () =
  Alcotest.(check (array int))
    "results in task order" [| 0; 10; 20; 30; 40; 50; 60 |]
    (Experiments.Par_sweep.map ~jobs:forced_domains 7 (fun i -> i * 10));
  Alcotest.(check (array int)) "empty" [||] (Experiments.Par_sweep.map ~jobs:4 0 (fun i -> i));
  match Experiments.Par_sweep.map ~jobs:forced_domains 5 (fun i ->
            if i = 3 then failwith "task-3" else i)
  with
  | _ -> Alcotest.fail "expected task exception to propagate"
  | exception Failure m -> check_string "task exception re-raised in caller" "task-3" m

let suite =
  [
    Alcotest.test_case "chaos suite identical under --jobs (5 seeds)" `Quick
      test_chaos_jobs_equality;
    Alcotest.test_case "kv-chaos suite identical under --jobs (5 seeds)" `Quick
      test_kv_chaos_jobs_equality;
    Alcotest.test_case "cluster-load identical under --jobs (5 seeds)" `Quick
      test_cluster_load_jobs_equality;
    Alcotest.test_case "Par_sweep order and exception plumbing" `Quick
      test_par_sweep_order_and_exn;
  ]
