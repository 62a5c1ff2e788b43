(* Command line of the repository benchmark; see NOTES.md.

     main.exe --workload rpc-rate|kv-rw|incast-probe|all --seed N
              --seconds S --trace 0|1

   The last line of standard output is the JSON result; the lines before it
   name every metric with its unit. Exits 1 when a correctness check fails.
   A traced run writes its host spans to
   .perfbench/spans-WORKLOAD-seedN.json under the current directory. *)

open Perfbench

let workloads = [ Rpc_rate.workload; Kv_rw.workload; Incast_probe.workload ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME rpc-rate, kv-rw, incast-probe or all");
      ("--seed", Arg.Set_int seed, "N seed of every input and of the simulator");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let spans_file name =
    if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
    Printf.sprintf ".perfbench/spans-%s-seed%d.json" name !seed
  in
  let chosen =
    if !workload = "all" then workloads
    else
      match List.find_opt (fun (w : Wl.t) -> w.name = !workload) workloads with
      | Some w -> [ w ]
      | None ->
          prerr_endline ("unknown workload " ^ !workload);
          exit 2
  in
  let results =
    List.map
      (fun (wl : Wl.t) ->
        let r =
          Runner.run wl ~seed:!seed ~seconds:(!seconds /. float_of_int (List.length chosen))
            ~traced:(!trace = 1)
            ~spans_out:(if !trace = 1 then Some (spans_file wl.name) else None)
        in
        List.iter print_endline r.notes;
        r)
      chosen
  in
  let r =
    match results with
    | [ r ] -> r
    | rs ->
        {
          Runner.correct = List.for_all (fun (r : Runner.result) -> r.correct) rs;
          attempted = List.fold_left (fun a (r : Runner.result) -> a + r.attempted) 0 rs;
          failed = List.fold_left (fun a (r : Runner.result) -> a + r.failed) 0 rs;
          metrics = [];
          named = [];
          notes = [];
        }
  in
  print_endline (Runner.json r);
  if not r.correct then exit 1
