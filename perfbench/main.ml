(* The repo benchmark. One workload per process, run from the root of
   a checkout (it reads BENCHMARK.json there):

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   An untraced run prints the end-to-end metrics, a traced run the
   per-layer ones; both end with one JSON result line. [--smoke]
   shrinks every input and is meant for the benchmark's own test. *)

open Common

(* The metric names and units a run reports: BENCHMARK.json's
   [end_to_end] list for an untraced run, its [per_layer] list for a
   traced one. *)
let metric_table ~traced =
  let open Xt_obs.Tiny_json in
  let doc = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let get what = function Some v -> v | None -> failwith ("BENCHMARK.json: bad " ^ what) in
  let json = match parse doc with Ok j -> j | Error e -> failwith ("BENCHMARK.json: " ^ e) in
  let key = if traced then "per_layer" else "end_to_end" in
  List.map
    (fun m ->
      let field k = get k (Option.bind (member k m) to_string) in
      (field "name", field "unit"))
    (get key (Option.bind (member key json) to_list))

let workloads =
  [
    ("embed-cold", Embed_cold.run);
    ("serve-hot", Serve_bench.run);
    ("netsim", Netsim_bench.run);
  ]

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let smoke = ref false in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | "--smoke" :: rest ->
        smoke := true;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some traced when seconds > 0.0 ->
      { workload; seed; seconds; traced; smoke = !smoke }
  | _ -> usage ()

(* Order the workload's metrics as the table lists them, filling the
   layers it does not exercise with 0 in a traced run; an unknown or
   missing name is a bug. *)
let complete table metrics ~fill =
  List.iter
    (fun (name, _) -> if not (List.mem_assoc name table) then failwith ("unlisted metric " ^ name))
    metrics;
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name metrics with
      | Some v -> (name, v, unit)
      | None when fill -> (name, 0.0, unit)
      | None -> failwith ("missing metric " ^ name))
    table

let () =
  let ctx = parse_args () in
  let run =
    match List.assoc_opt ctx.workload workloads with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %s (known: %s)\n" ctx.workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let o = run ctx in
  let metrics = complete (metric_table ~traced:ctx.traced) o.metrics ~fill:ctx.traced in
  Printf.printf "stamp: workload=%s seed=%d seconds=%g trace=%d cpus=%d domain_budget=%d ocaml=%s\n"
    ctx.workload ctx.seed ctx.seconds
    (if ctx.traced then 1 else 0)
    (Domain.recommended_domain_count ())
    o.budget Sys.ocaml_version;
  Printf.printf "digest: %s\n" o.digest;
  let number v =
    if not (Float.is_finite v) then failwith "metric value is not finite";
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v
  in
  List.iter (fun (name, v, unit) -> Printf.printf "named %s = %s %s\n" name (number v) unit) o.named;
  Printf.printf "named error_rate = %s ratio (%d failed of %d attempted)\n"
    (number (ratio (float_of_int o.failed) (float_of_int o.attempted)))
    o.failed o.attempted;
  List.iter (fun (name, v, unit) -> Printf.printf "metric %s = %s %s\n" name (number v) unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0 && o.attempted > 0)
    o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v) unit)
          metrics))
