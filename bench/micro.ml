(* Bechamel micro-benchmarks B1..B6: wall-clock cost of each pipeline
   stage, one Test.make per stage. *)

open Bechamel
open Toolkit
open Xt_prelude
open Xt_bintree
open Xt_core

let n_bench = Theorem1.optimal_size 5 (* 1008 nodes *)

let prepared_tree =
  lazy
    (let rng = Rng.make ~seed:99 in
     Gen.uniform rng n_bench)

(* B8 exercises the dense-array congestion router end to end: every
   unordered vertex pair of X(6) as a unit demand, one Dijkstra each,
   loads accumulated in the shared edge-indexed array. *)
let congestion_workload =
  lazy
    (let xt = Xt_topology.Xtree.create ~height:6 in
     let g = Xt_topology.Xtree.graph xt in
     let n = Xt_topology.Graph.n g in
     let pairs = ref [] in
     for u = 0 to n - 1 do
       for v = u + 1 to n - 1 do
         pairs := (u, v) :: !pairs
       done
     done;
     (g, !pairs))

let leaf_sweep_xt = lazy (Xt_topology.Xtree.create ~height:10)

(* B10 measures a pure cache hit: the fingerprint, the canonical-string
   verify, the rank remap and Embedding.make — everything but the
   pipeline. Contrast with B3. *)
let warm_cache =
  lazy
    (let tree = Lazy.force prepared_tree in
     let cache = Theorem1.make_cache () in
     ignore (Theorem1.embed ~cache tree);
     (cache, tree))

(* B11 measures the sim's single-message hot path end to end on X(9):
   one send plus a fast-forwarded run across the host — arena alloc,
   ring push, idle-skip route walk, delivery. The active-set core makes
   this O(route length); on the old sweep core it was O(cycles x 2m). *)
let pingpong_host =
  lazy
    (let xt = Xt_topology.Xtree.create ~height:9 in
     let g = Xt_topology.Xtree.graph xt in
     let sim = Xt_netsim.Sim.create g in
     (* warm the router rows and size the arena outside the measurement *)
     Xt_netsim.Sim.send sim ~src:511 ~dst:1022 ~tag:0;
     ignore (Xt_netsim.Sim.run sim ~on_deliver:(fun ~tag:_ _ -> ()));
     sim)

let tests =
  Test.make_grouped ~name:"xtree"
    [
      Test.make ~name:"B1 generate uniform n=1008"
        (Staged.stage (fun () ->
             let rng = Rng.make ~seed:1 in
             ignore (Gen.uniform rng n_bench)));
      Test.make ~name:"B2 lemma2 split n=1008"
        (Staged.stage (fun () ->
             let tree = Lazy.force prepared_tree in
             let ws = Separator.make_ws tree in
             let piece = { Separator.nodes = List.init n_bench Fun.id; r1 = 0; r2 = None } in
             ignore (Separator.lemma2 ws piece ~target:(n_bench / 2))));
      Test.make ~name:"B3 theorem1 embed n=1008"
        (Staged.stage (fun () ->
             let tree = Lazy.force prepared_tree in
             ignore (Theorem1.embed tree)));
      Test.make ~name:"B4 hypercube transfer n=1008"
        (Staged.stage (fun () ->
             let tree = Lazy.force prepared_tree in
             ignore (Hypercube_transfer.embed tree)));
      Test.make ~name:"B5 N(a) sweep X(8)"
        (Staged.stage (fun () ->
             let xt = Xt_topology.Xtree.create ~height:8 in
             for a = 0 to Xt_topology.Xtree.order xt - 1 do
               ignore (Xt_topology.Xtree.neighbourhood xt a)
             done));
      Test.make ~name:"B6 reduction sim n=1008"
        (Staged.stage (fun () ->
             let tree = Lazy.force prepared_tree in
             ignore (Xt_netsim.Workload.run_native Xt_netsim.Workload.reduction tree)));
      Test.make ~name:"B7 analytic distance sweep X(10)"
        (Staged.stage (fun () ->
             (* 2047 vertices, all distances from one source, no BFS *)
             let xt = Xt_topology.Xtree.create ~height:10 in
             let total = ref 0 in
             for v = 0 to Xt_topology.Xtree.order xt - 1 do
               total := !total + Xt_topology.Xtree.analytic_distance 1000 v
             done;
             ignore !total));
      Test.make ~name:"B8 congestion analyse X(6) all-pairs"
        (Staged.stage (fun () ->
             let g, pairs = Lazy.force congestion_workload in
             ignore (Xt_embedding.Congestion.analyse g pairs)));
      (* [Xtree.distance] is closed form on every pair: no BFS rows, and
         (as asserted by the Gc test in test_topology.ml) no allocation —
         bechamel's minor-words column should read 0 per query. *)
      Test.make ~name:"B9 closed-form distance leaf sweep X(10)"
        (Staged.stage (fun () ->
             let xt = Lazy.force leaf_sweep_xt in
             let lo = 1023 and hi = 2046 in
             let total = ref 0 in
             for v = lo to hi do
               total := !total + Xt_topology.Xtree.distance xt lo v
             done;
             ignore !total));
      Test.make ~name:"B10 theorem1 cached hit n=1008"
        (Staged.stage (fun () ->
             let cache, tree = Lazy.force warm_cache in
             ignore (Theorem1.embed ~cache tree)));
      Test.make ~name:"B11 single-message hot path X(9)"
        (Staged.stage (fun () ->
             let sim = Lazy.force pingpong_host in
             Xt_netsim.Sim.send sim ~src:511 ~dst:1022 ~tag:0;
             ignore (Xt_netsim.Sim.run sim ~on_deliver:(fun ~tag:_ _ -> ()))));
      (* Contrast with B2: same split, but on a long-lived workspace —
         what every Theorem 1 pipeline call pays per piece now that
         workspaces live in per-domain slots. The gap is the cost of
         allocating and re-touching the scratch arrays. *)
      Test.make ~name:"B12 lemma2 split reused ws n=1008"
        (Staged.stage
           (let tree = Lazy.force prepared_tree in
            let ws = Separator.make_ws tree in
            let piece = { Separator.nodes = List.init n_bench Fun.id; r1 = 0; r2 = None } in
            fun () -> ignore (Separator.lemma2 ws piece ~target:(n_bench / 2))));
      (* The price of leaving the flight recorder armed: one span with
         tracing and metrics off is two clock reads plus a handful of
         ring stores. This is the default-on overhead every span-wrapped
         call site pays. *)
      Test.make ~name:"B13 flight-recorder span (no-op body)"
        (Staged.stage (fun () -> Xt_obs.Obs.span "bench.noop" (fun () -> ())));
    ]

let run () =
  print_endline "== Micro-benchmarks (bechamel; ns per run) ==";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%12.0f ns/run" e
        | _ -> "(no estimate)"
      in
      Printf.printf "%-32s %s\n" name est)
    (List.sort compare rows)
