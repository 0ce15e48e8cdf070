(* netsim: simulated divide-and-conquer traffic on two r = 10 guests
   (random-split and caterpillar) whose Theorem 1 embeddings are built
   in set-up. Each op is one case: [Sim.create] plus one Workload spec,
   on the native guest graph (tree-mode router) or on the X(10) host
   (dense lazy rows), with one shard at domain budget 1. The only
   workload that exercises Router/Sim; it bypasses every embedding
   layer and all parallelism. *)

open Xt_prelude
open Xt_bintree
open Xt_core
open Xt_embedding
open Xt_netsim
open Common

type guest = { tree : Bintree.t; identity : int array; res : Theorem1.result }

type host = Native | Xtree

type case = { guest : int; spec : Workload.spec; host : host }

type op = {
  case : case;
  create_s : float;
  run_s : float;
  cycles : int;
  hops : int;
  delivered : int;
  max_queue : int;
  ok : bool;
}

(* Messages a spec delivers on an [n]-node guest. *)
let expected_delivered (spec : Workload.spec) n =
  match spec.Workload.name with
  | "reduction" | "broadcast" -> n - 1
  | "all-reduce" | "pingpong-sweep" -> 2 * (n - 1)
  | "permutation" -> if n > 1 then n else 0
  | name -> failwith ("netsim: no expected count for " ^ name)

let setup ctx =
  let r = if ctx.smoke then 4 else 10 in
  let n = Theorem1.optimal_size r in
  let guests =
    Array.map
      (fun (fam, salt) ->
        let tree = (Gen.family fam).Gen.generate (Rng.make ~seed:(derive ctx.seed salt)) n in
        { tree; identity = Array.init n Fun.id; res = Theorem1.embed tree })
      [| ("random-split", 1); ("caterpillar", 2) |]
  in
  (* Every spec on both hosts of both guests, except the permutation on
     the native caterpillar: its antipodal messages all queue along the
     spine (about n^2/4 link traversals), which alone takes about 190 s
     at r = 10, beyond the run limit. On the X(10) host the same case
     takes 0.3 s, so its slowdown would sit far below 1 and the
     exclusion cannot hide a high [sim_slowdown_max]. *)
  let cases =
    List.concat_map
      (fun g ->
        List.concat_map
          (fun (spec : Workload.spec) ->
            if g = 1 && spec.Workload.name = "permutation" then [ { guest = g; spec; host = Xtree } ]
            else [ { guest = g; spec; host = Native }; { guest = g; spec; host = Xtree } ])
          Workload.workloads)
      [ 0; 1 ]
  in
  (guests, Array.of_list cases)

let run_op ctx guests c =
  let g = guests.(c.guest) in
  let t0 = now () in
  let sim, place =
    span ctx (match c.host with Native -> "netsim.create_native" | Xtree -> "netsim.create_xtree") (fun () ->
        match c.host with
        | Native -> (Sim.create (Workload.guest_graph g.tree), g.identity)
        | Xtree -> (Sim.create g.res.Theorem1.embedding.Embedding.host, g.res.Theorem1.embedding.Embedding.place))
  in
  let t1 = now () in
  let cycles =
    span ctx (match c.host with Native -> "netsim.run_native" | Xtree -> "netsim.run_xtree") (fun () ->
        c.spec.Workload.run sim ~place ~tree:g.tree)
  in
  let t2 = now () in
  let delivered = Sim.delivered sim in
  {
    case = c;
    create_s = t1 -. t0;
    run_s = t2 -. t1;
    cycles;
    hops = Array.fold_left ( + ) 0 (Sim.link_loads sim);
    delivered;
    max_queue = Sim.max_link_queue sim;
    ok = delivered = expected_delivered c.spec (Bintree.n g.tree);
  }

(* Whole rounds over every case while the next is expected to fit. *)
let run_rounds ctx guests cases ~budget =
  let ops = ref [] and failed = ref 0 and attempted = ref 0 in
  let start = now () in
  let rec loop r =
    Array.iter
      (fun c ->
        incr attempted;
        match run_op ctx guests c with
        | op ->
            if not op.ok then incr failed;
            ops := op :: !ops;
            if ctx.traced then harvest_self ()
        | exception _ -> incr failed)
      cases;
    let elapsed = now () -. start in
    if elapsed *. float_of_int (r + 2) /. float_of_int (r + 1) <= budget then loop (r + 1)
  in
  loop 0;
  (List.rev !ops, !attempted, !failed)

let run ctx =
  Parallel.set_domain_budget 1;
  let (guests, cases), setup_s = setup_median (fun () -> setup ctx) in
  let ncases = Array.length cases in
  let case_index o =
    let rec find i = if cases.(i) == o.case then i else find (i + 1) in
    find 0
  in
  let round ops = List.filteri (fun i _ -> i < ncases) ops in
  let case_s o = o.create_s +. o.run_s in
  let secs l = List.fold_left (fun a o -> a +. case_s o) 0.0 l in
  let sum f l = List.fold_left (fun a o -> a + f o) 0 l in
  let best ops = kind_best case_index case_s ops in
  (* Simulated hops per second over one round at each case's best time. *)
  let hops_per_s ops = ratio (float_of_int (sum (fun o -> o.hops) (round ops))) (sum_floats (best ops)) in
  let dilation_max =
    Array.fold_left
      (fun a g ->
        max a (Embedding.dilation ~dist:(Theorem1.distance_oracle g.res) g.res.Theorem1.embedding))
      0 guests
  in
  let ops, attempted, failed, metrics =
    if not ctx.traced then begin
      let ops, attempted, failed = run_rounds ctx guests cases ~budget:ctx.seconds in
      ( ops,
        attempted,
        failed,
        [
          ("setup_s", setup_s);
          ("work_per_s", hops_per_s ops);
          ("peak_rss_mb", peak_rss_mb ());
          ("dilation_max", float_of_int dilation_max);
        ] )
    end
    else begin
      let plain, a0, f0 = run_rounds { ctx with traced = false } guests cases ~budget:0.0 in
      start_tracing ();
      let ops, a1, f1 = run_rounds ctx guests cases ~budget:(ctx.seconds /. 2.0) in
      stop_tracing ();
      let first = round ops in
      let run_ms host =
        let l = List.filter (fun o -> o.case.host = host) ops in
        1000.0 *. ratio (List.fold_left (fun a o -> a +. o.run_s) 0.0 l) (float_of_int (List.length l))
      in
      ( ops,
        a0 + a1,
        f0 + f1,
        [
          ("netsim.create_ms", 1000.0 *. ratio (List.fold_left (fun a o -> a +. o.create_s) 0.0 ops) (float_of_int (List.length ops)));
          ("netsim.run_native_ms", run_ms Native);
          ("netsim.run_xtree_ms", run_ms Xtree);
          ( "netsim.ns_per_hop",
            1e9 *. ratio (List.fold_left (fun a o -> a +. o.run_s) 0.0 ops) (float_of_int (sum (fun o -> o.hops) ops)) );
          ("netsim.hops", float_of_int (sum (fun o -> o.hops) first));
          ("netsim.delivered", float_of_int (sum (fun o -> o.delivered) first));
          ("netsim.cycles", float_of_int (sum (fun o -> o.cycles) first));
          ("netsim.max_link_queue", float_of_int (List.fold_left (fun a o -> max a o.max_queue) 0 first));
          ("obs.trace_overhead", ratio (secs first) (secs plain));
        ] )
    end
  in
  let first = round ops in
  (* Cycles on the embedded host over cycles on the native guest, per
     (guest, spec) that has both. *)
  let slowdown_max =
    List.fold_left
      (fun a xt ->
        match List.find_opt (fun nat -> nat.case.host = Native && nat.case.guest = xt.case.guest && nat.case.spec == xt.case.spec) first with
        | Some nat when xt.case.host = Xtree -> max a (ratio (float_of_int xt.cycles) (float_of_int nat.cycles))
        | _ -> a)
      0.0 first
  in
  {
    budget = 1;
    attempted;
    failed;
    metrics =
      (if ctx.traced then metrics @ [ ("netsim.slowdown_max", slowdown_max) ] else metrics);
    named =
      [
        ("sim_hops_per_s", hops_per_s ops, "hops/s");
        ("sim_case_p50_ms", 1000.0 *. median (best ops), "ms");
        ("sim_slowdown_max", slowdown_max, "ratio");
        ("sim_cases", float_of_int (List.length ops), "count");
      ];
    digest = digest (List.map (fun o -> string_of_int o.cycles) first);
  }
