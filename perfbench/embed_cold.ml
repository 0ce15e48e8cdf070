(* embed-cold: the [xtree embed --input FILE --repair] path, one guest
   per operation: Codec parse, uncached Theorem 1 construction, repair,
   and the metrics report with the X-tree distance oracle, at a domain
   budget of nproc. The construction, repair and metrics layers and the
   Parallel pool do the work; the shape cache, wire and simulator do
   none. *)

open Xt_prelude
open Xt_bintree
open Xt_core
open Xt_embedding
open Common

(* Path and caterpillar stay in the mix for their high fallback counts;
   caterpillar keeps dilation 4 after repair, which [bound_misses]
   reports as it stands. *)
let families = [| "random-split"; "uniform"; "broom"; "path"; "caterpillar" |]

let capacity = 16

(* The guest of family [i]: random families draw a shape from the
   seed, the deterministic ones depend on the size only. *)
let input ~seed ~n i =
  let fam = Gen.family families.(i) in
  Codec.to_string (fam.Gen.generate (Rng.make ~seed:(derive seed i)) n)

type op = {
  family : int;
  seconds : float;
  dilation : int;
  fallbacks : int;
  wide_pieces : int;
  swaps : int;
  digest : string;
  ok : bool;
}

let run_op ctx ~n ~family s =
  let t0 = now () in
  let tree = span ctx "bintree.parse" (fun () -> Codec.of_string s) in
  match tree with
  | Error _ -> None
  | Ok tree ->
      let res = span ctx "core.embed" (fun () -> Theorem1.embed ~capacity tree) in
      let res, rep = span ctx "core.repair" (fun () -> Repair.improve_theorem1 res) in
      let report =
        span ctx "embedding.report" (fun () ->
            Embedding.report ~dist:(Theorem1.distance_oracle res) res.Theorem1.embedding)
      in
      let seconds = now () -. t0 in
      let place = res.Theorem1.embedding.Embedding.place in
      let hosts = Embedding.host_size res.Theorem1.embedding in
      let ok =
        Bintree.n tree = n
        && Array.length place = n
        && Array.for_all (fun v -> v >= 0 && v < hosts) place
        && report.Embedding.load <= capacity
        && res.Theorem1.height = Theorem1.height_for ~capacity n
      in
      Some
        {
          family;
          seconds;
          dilation = report.Embedding.dilation;
          fallbacks = res.Theorem1.fallbacks;
          wide_pieces = res.Theorem1.wide_pieces;
          swaps = rep.Repair.swaps;
          digest = Digest.to_hex (Digest.string (place_bytes place));
          ok;
        }

let round_len = Array.length families

(* Run whole rounds over the same guests: at least [min_rounds], then
   more while the next round is expected to fit in the budget. *)
let run_rounds ctx ~n ~budget ~min_rounds inputs =
  let ops = ref [] and failed = ref 0 and attempted = ref 0 in
  let start = now () in
  let rec loop r =
    Array.iteri
      (fun i s ->
        incr attempted;
        (* Each op starts from a compacted heap, as a fresh [xtree embed]
           process would. *)
        Gc.compact ();
        match run_op ctx ~n ~family:i s with
        | Some op ->
            if not op.ok then incr failed;
            ops := op :: !ops;
            if ctx.traced then harvest_self ()
        | None | (exception _) -> incr failed)
      inputs;
    let elapsed = now () -. start in
    if r + 1 < min_rounds || elapsed *. float_of_int (r + 2) /. float_of_int (r + 1) <= budget then
      loop (r + 1)
  in
  loop 0;
  (List.rev !ops, !attempted, !failed)

let first_round ops = List.filteri (fun i _ -> i < round_len) ops

let run ctx =
  let r = if ctx.smoke then 5 else 11 in
  let n = Theorem1.optimal_size ~capacity r in
  let budget = Domain.recommended_domain_count () in
  Parallel.set_domain_budget budget;
  let inputs, setup_s =
    setup_median (fun () ->
        let inputs = Array.init round_len (input ~seed:ctx.seed ~n) in
        (* Start the domain pool now, so no op pays for spawning it. *)
        Parallel.parallel_for 2 ignore;
        inputs)
  in
  let secs l = List.fold_left (fun a o -> a +. o.seconds) 0.0 l in
  let sum f l = List.fold_left (fun a o -> a + f o) 0 l in
  let misses l = List.length (List.filter (fun o -> o.dilation > 3) l) in
  let best ops = kind_best (fun o -> o.family) (fun o -> o.seconds) ops in
  (* Guest nodes per second over one round at each family's best time. *)
  let nodes_per_s ops = ratio (float_of_int (n * round_len)) (sum_floats (best ops)) in
  let ops, attempted, failed, metrics =
    if not ctx.traced then begin
      (* Two rounds at least, so every family's best time has a second
         chance to dodge outside load. *)
      let ops, attempted, failed = run_rounds ctx ~n ~budget:ctx.seconds ~min_rounds:2 inputs in
      ( ops,
        attempted,
        failed,
        [
          ("setup_s", setup_s);
          ("work_per_s", nodes_per_s ops);
          ("peak_rss_mb", peak_rss_mb ());
          ("dilation_max", float_of_int (List.fold_left (fun a o -> max a o.dilation) 0 ops));
        ] )
    end
    else begin
      (* One untraced round, then the same guests traced: the time ratio
         of the two is the tracing overhead. *)
      let plain, a0, f0 = run_rounds { ctx with traced = false } ~n ~budget:0.0 ~min_rounds:1 inputs in
      start_tracing ();
      let ops, a1, f1 = run_rounds ctx ~n ~budget:(ctx.seconds /. 2.0) ~min_rounds:1 inputs in
      let d = Xt_obs.Obs.snapshot () in
      stop_tracing ();
      let round = first_round ops in
      let pool name = float_of_int (counter d name + histogram_sum d name) in
      let taken = pool "parallel.forks_taken" and seq = pool "parallel.forks_sequentialized" in
      let nops = float_of_int (List.length ops) in
      ( ops,
        a0 + a1,
        f0 + f1,
        [
          ("bintree.parse_ms", mean_ms "bintree.parse");
          ("core.embed_ms", mean_ms "core.embed");
          ("core.adjust_self_ms", self_ms "theorem1.adjust-sweep" /. nops);
          ("core.split_self_ms", self_ms "theorem1.split-sweep" /. nops);
          ("core.final_fill_self_ms", self_ms "theorem1.final-fill" /. nops);
          ("core.fallbacks", float_of_int (sum (fun o -> o.fallbacks) round));
          ("core.wide_pieces", float_of_int (sum (fun o -> o.wide_pieces) round));
          ("core.repair_ms", mean_ms "core.repair");
          ("core.repair_swaps", float_of_int (sum (fun o -> o.swaps) round));
          ("core.bound_misses", float_of_int (misses round));
          ("embedding.report_ms", mean_ms "embedding.report");
          ("parallel.forks_taken", taken /. nops);
          ("parallel.forks_sequentialized", seq /. nops);
          ("parallel.fork_share", ratio taken (taken +. seq));
          ("parallel.batches", pool "parallel.batches" /. nops);
          ("parallel.queue_wait_ms", pool "parallel.queue_wait_ns" /. 1e6 /. nops);
          ("obs.trace_overhead", ratio (secs round) (secs plain));
        ] )
    end
  in
  let round = first_round ops in
  {
    budget;
    attempted;
    failed;
    metrics;
    named =
      [
        ("embed_nodes_per_s", nodes_per_s ops, "nodes/s");
        ("embed_op_p50_s", median (best ops), "s");
        ("embed_ops", float_of_int (List.length ops), "count");
        ("bound_misses", float_of_int (misses round), "count");
        ("bound_misses_of", float_of_int (List.length round), "count");
      ];
    digest = digest (List.map (fun o -> o.digest) round);
  }
