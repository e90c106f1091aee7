(* perfbench: runs one workload for a fixed time and prints its
   metrics, then one JSON result line. See perfbench/README.md. *)

open Common

(* Every per-layer metric, in table order. A traced run prints all of
   them; a layer the workload does not exercise reads 0. *)
let per_layer =
  [
    ("pc_parse", [ ("parse.constraints_ms", "ms"); ("parse.query_us", "us") ]);
    ( "pc_predicate",
      [ ("fdd.compile_ms", "ms"); ("fdd.nodes", "count"); ("fdd.cells_us", "us"); ("sat.calls_per_bound", "count") ] );
    ( "pc_core",
      [ ("decompose.self_ms", "ms"); ("bound.self_ms", "ms"); ("cells_per_bound", "count"); ("bound.degraded", "ratio") ] );
    ( "pc_core.incremental",
      [ ("incr.engines", "count"); ("incr.rebounds_warm", "count"); ("incr.rebounds_cold", "count") ] );
    ( "pc_lp",
      [
        ("lp.solve_ms_per_bound", "ms");
        ("lp.pivots_per_bound", "count");
        ("lp.solves_per_bound", "count");
        ("lp.refactorizations_per_bound", "count");
        ("lp.warm_fallback_ratio", "ratio");
      ] );
    ( "pc_milp",
      [ ("milp.solve_ms_per_bound", "ms"); ("milp.nodes_per_bound", "count"); ("milp.solves_per_bound", "count") ] );
    ("pc_par", [ ("pool.run_ms", "ms"); ("pool.queue_wait_ms", "ms"); ("pool.parallelism", "ratio") ]);
    ("pc_store", [ ("ingest.mean_ms", "ms") ]);
    ( "pc_server",
      [
        ("cache.hit_ratio", "ratio");
        ("cache.evicted_per_batch", "count");
        ("cache.stale_stores", "count");
        ("server.request_mean_ms", "ms");
        ("net.client_gap_us", "us");
      ] );
    ("pc_obs", [ ("trace.overhead", "ratio") ]);
    ("end_to_end", [ ("bounds_per_s", "1/s"); ("bound_p90_ms", "ms"); ("bound_p99_ms", "ms"); ("append_p50_ms", "ms"); ("retract_p50_ms", "ms") ]);
  ]

let end_to_end = [ "setup_s"; "bound_p50_ms"; "overestimate_median"; "peak_rss_mb" ]

let workloads = [ "sensor_randpc"; "wide_overlap"; "sensor_parallel"; "serve_stream" ]

let complete_layers ms =
  List.concat_map
    (fun (layer, names) ->
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun m -> m.name = name) ms with
          | Some m when m.unit_ = unit_ -> (layer, m)
          | Some m -> bench_error "metric %s has unit %s, not %s" name m.unit_ unit_
          | None -> (layer, metric name unit_ 0.))
        names)
    per_layer

let usage () =
  prerr_endline
    "usage: main --workload W --seed N --seconds S --trace 0|1\n\
     workloads: sensor_randpc wide_overlap sensor_parallel serve_stream";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let acc = account () in
  let metrics =
    try
      Fun.protect ~finally:Serve.kill_children (fun () ->
          match !workload with
          | "sensor_randpc" -> Offline.sensor_randpc acc ~seed ~seconds ~trace
          | "wide_overlap" -> Offline.wide_overlap acc ~seed ~seconds ~trace
          | "sensor_parallel" -> Offline.sensor_parallel acc ~seed ~seconds ~trace
          | _ ->
              (* run from the root of the checkout that built the server *)
              let dir = ".perfbench" in
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              Serve.run acc ~pcda:"_build/default/bin/pcda.exe" ~dir ~seed ~seconds ~trace)
    with Bench_error msg ->
      Printf.eprintf "perfbench: %s\n" msg;
      exit 1
  in
  print_account acc;
  let out =
    if trace then begin
      let rows = complete_layers metrics in
      List.iter (fun (layer, m) -> Printf.printf "layer %-20s %-30s %14.6g %s\n" layer m.name m.value m.unit_) rows;
      List.map snd rows
    end
    else
      List.map
        (fun name ->
          match List.find_opt (fun m -> m.name = name) metrics with
          | Some m ->
              Printf.printf "e2e %-22s %14.6g %s\n" m.name m.value m.unit_;
              m
          | None -> bench_error "workload printed no %s" name)
        end_to_end
  in
  let attempted, failed = totals acc in
  if attempted = 0 then (prerr_endline "perfbench: no operation attempted"; exit 1);
  print_endline (result_line ~correct:(acc.n_wrong = 0) ~attempted ~failed out)
