open Xt_prelude
open Xt_topology
open Xt_bintree
open Xt_core
open Xt_embedding

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------------- Heap ---------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h ~key:k (k * 10)) [ 5; 1; 4; 2; 3 ];
  check "size" 5 (Heap.size h);
  let popped = List.init 5 (fun _ -> Heap.pop_min h) in
  Alcotest.(check (list (option (pair int int))))
    "sorted"
    [ Some (1, 10); Some (2, 20); Some (3, 30); Some (4, 40); Some (5, 50) ]
    popped;
  checkb "empty" true (Heap.is_empty h);
  Alcotest.(check (option (pair int int))) "pop empty" None (Heap.pop_min h)

let test_heap_duplicates_and_peek () =
  let h = Heap.create () in
  Heap.push h ~key:7 "a";
  Heap.push h ~key:7 "b";
  Heap.push h ~key:3 "c";
  Alcotest.(check (option (pair int string))) "peek" (Some (3, "c")) (Heap.peek_min h);
  ignore (Heap.pop_min h);
  let k1 = Option.map fst (Heap.pop_min h) and k2 = Option.map fst (Heap.pop_min h) in
  Alcotest.(check (option int)) "dup key 1" (Some 7) k1;
  Alcotest.(check (option int)) "dup key 2" (Some 7) k2

let test_heap_random () =
  let rng = Rng.make ~seed:44 in
  let h = Heap.create () in
  let keys = List.init 500 (fun _ -> Rng.int rng 10_000) in
  List.iter (fun k -> Heap.push h ~key:k k) keys;
  let rec drain acc = match Heap.pop_min h with None -> List.rev acc | Some (k, _) -> drain (k :: acc) in
  let drained = drain [] in
  Alcotest.(check (list int)) "heap sorts" (List.sort compare keys) drained

(* ---------------- Congestion ---------------- *)

let embedding_for fname r =
  let tree = (Gen.family fname).generate (Rng.make ~seed:12) (Theorem1.optimal_size r) in
  (Theorem1.embed tree).Theorem1.embedding

let test_baseline_matches_embedding_congestion () =
  let e = embedding_for "uniform" 4 in
  check "same accounting" (Embedding.congestion e) (Congestion.baseline e).Congestion.congestion

let test_route_never_worse () =
  List.iter
    (fun fname ->
      let e = embedding_for fname 5 in
      let base = Congestion.baseline e in
      let smart = Congestion.route e in
      checkb (fname ^ " congestion <= baseline") true
        (smart.Congestion.congestion <= base.Congestion.congestion))
    [ "caterpillar"; "uniform"; "complete"; "path" ]

let test_route_detour_bounded () =
  let e = embedding_for "caterpillar" 5 in
  let dil = Embedding.dilation e in
  let smart = Congestion.route e in
  checkb "maxlen <= dilation + 4" true (smart.Congestion.max_route_length <= dil + 4)

let test_route_total_length_sane () =
  let e = embedding_for "uniform" 4 in
  let base = Congestion.baseline e in
  let smart = Congestion.route e in
  (* smart routes are never shorter in total than shortest paths *)
  checkb "total >= baseline" true
    (smart.Congestion.total_route_length >= base.Congestion.total_route_length)

let test_collapsed_embedding_routes () =
  (* everything on one vertex: no demands at all *)
  let tree = Gen.complete 7 in
  let host = Graph.of_edges ~n:2 [ (0, 1) ] in
  let e = Embedding.make ~tree ~host ~place:(Array.make 7 0) in
  let r = Congestion.route e in
  check "no congestion" 0 r.Congestion.congestion;
  check "no routes" 0 r.Congestion.total_route_length

(* Full-BFS reference for the BFS-tree route accounting: every guest edge
   walks the complete [Graph.bfs_parents] tree of its source's image,
   rows memoised per source. *)
let reference_routes (e : Embedding.t) =
  let host = e.Embedding.host in
  let rows = Hashtbl.create 64 in
  let load = Array.make (Graph.m host) 0 in
  let length (u, v) =
    let s = e.Embedding.place.(u) in
    let p =
      match Hashtbl.find_opt rows s with
      | Some p -> p
      | None ->
          let _, p = Graph.bfs_parents host s in
          Hashtbl.replace rows s p;
          p
    in
    let rec walk w len =
      if w = s then len
      else begin
        let i = Graph.edge_index host w p.(w) in
        load.(i) <- load.(i) + 1;
        walk p.(w) (len + 1)
      end
    in
    walk e.Embedding.place.(v) 0
  in
  let lengths = Array.of_list (List.map length (Bintree.edges e.Embedding.tree)) in
  (load, lengths)

(* The truncated, source-grouped BFS of [Embedding.shortest_path_loads]
   charges exactly the full-BFS routes, and [Embedding.congestion] and
   [Congestion.baseline] both report them: every family, r = 3..8, three
   seeds, on repaired Theorem 1 embeddings. *)
let test_truncated_bfs_matches_reference () =
  List.iter
    (fun (f : Gen.family) ->
      for r = 3 to 8 do
        for seed = 1 to 3 do
          let tree = f.Gen.generate (Rng.make ~seed) (Theorem1.optimal_size r) in
          let res, _ = Repair.improve_theorem1 (Theorem1.embed tree) in
          let e = res.Theorem1.embedding in
          let load, lengths = reference_routes e in
          let label = Printf.sprintf "%s r=%d seed=%d" f.Gen.name r seed in
          let got_load, got_lengths = Embedding.shortest_path_loads e in
          checkb (label ^ " loads") true (got_load = load);
          checkb (label ^ " lengths") true (got_lengths = lengths);
          let congestion = Array.fold_left max 0 load in
          check (label ^ " congestion") congestion (Embedding.congestion e);
          let base = Congestion.baseline e in
          check (label ^ " baseline congestion") congestion base.Congestion.congestion;
          check (label ^ " baseline max length") (Array.fold_left max 0 lengths)
            base.Congestion.max_route_length;
          check (label ^ " baseline total length") (Array.fold_left ( + ) 0 lengths)
            base.Congestion.total_route_length
        done
      done)
    Gen.families

(* MD5 over the repaired placements and the report fields of fixed-seed
   r = 8 guests, with the X-tree metric and with the default BFS-route
   metric. The constants were computed with the BFS-row distance oracle
   and full-BFS congestion that the table-free metrics replaced. *)
let golden_repaired =
  [
    ("complete", "897a43947b3cd6c1b5202943f493f4f7");
    ("path", "e57ecbb247854a4b6a933cc54960e9aa");
    ("zigzag", "e57ecbb247854a4b6a933cc54960e9aa");
    ("caterpillar", "7ddc20c94c65b96c5796654bf7606160");
    ("broom", "2c0d0264787e2ea0483514205e3b6b86");
    ("fibonacci", "1c648ba742059dd34a7bee5c8771ca7e");
    ("random-bst", "6dee1cfcd677f87f685d157d91cf5ca4");
    ("uniform", "4d4f5a6652a91d97a7e1698ab82ec969");
    ("random-grow", "cad4e40269402e45088d83b5317393ba");
    ("skewed", "3f9f5f887a10ac600e82631cb8d793ad");
    ("random-split", "f8c393e66eef4b0033e8485ad1d44e7b");
  ]

let repaired_digest fname =
  let tree = (Gen.family fname).generate (Rng.make ~seed:1) (Theorem1.optimal_size 8) in
  let res, _ = Repair.improve_theorem1 (Theorem1.embed tree) in
  let e = res.Theorem1.embedding in
  let buf = Buffer.create 65536 in
  let add_report (r : Embedding.report) =
    Buffer.add_string buf
      (Printf.sprintf "|d=%d|avg=%h|l=%d|c=%d" r.Embedding.dilation r.Embedding.average_dilation
         r.Embedding.load r.Embedding.congestion)
  in
  Array.iter
    (fun v ->
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ',')
    e.Embedding.place;
  add_report (Embedding.report ~dist:(Theorem1.distance_oracle res) e);
  add_report (Embedding.report e);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_repaired () =
  check "every family pinned" (List.length Gen.families) (List.length golden_repaired);
  List.iter
    (fun (fname, expected) -> Alcotest.(check string) (fname ^ " r=8 seed 1") expected (repaired_digest fname))
    golden_repaired

(* ---------------- Enum ---------------- *)

let test_catalan_values () =
  Alcotest.(check (list int)) "catalan 0..8"
    [ 1; 1; 2; 5; 14; 42; 132; 429; 1430 ]
    (List.map Enum.catalan [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ])

let test_enumeration_counts () =
  List.iter (fun n -> check (Printf.sprintf "n=%d" n) (Enum.catalan n) (Enum.count_shapes n)) [ 1; 2; 3; 4; 5; 6; 7 ]

let test_enumeration_distinct_and_valid () =
  let seen = Hashtbl.create 64 in
  Seq.iter
    (fun t ->
      checkb "valid" true (Bintree.check t = Ok ());
      check "size" 6 (Bintree.n t);
      let sig_ = Codec.to_string t in
      checkb "distinct" true (not (Hashtbl.mem seen sig_));
      Hashtbl.replace seen sig_ ())
    (Enum.all_shapes 6);
  check "all there" 132 (Hashtbl.length seen)

let test_enumeration_guard () =
  checkb "guard" true
    (try
       let (_ : Bintree.t Seq.t) = Enum.all_shapes 19 in
       false
     with Invalid_argument _ -> true)

(* exhaustive Theorem 1 over every 6-node tree at capacity 2 *)
let test_exhaustive_tiny_theorem1 () =
  Seq.iter
    (fun tree ->
      let res = Theorem1.embed ~capacity:2 tree in
      checkb "placed" true (Array.for_all (fun p -> p >= 0) res.Theorem1.embedding.Embedding.place);
      checkb "load" true (Embedding.load res.Theorem1.embedding <= 2);
      checkb "dilation" true
        (Embedding.dilation ~dist:(Theorem1.distance_oracle res) res.Theorem1.embedding <= 3))
    (Enum.all_shapes 6)

let suite =
  [
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap duplicates and peek", `Quick, test_heap_duplicates_and_peek);
    ("heap random", `Quick, test_heap_random);
    ("baseline = embedding congestion", `Quick, test_baseline_matches_embedding_congestion);
    ("route never worse", `Quick, test_route_never_worse);
    ("route detour bounded", `Quick, test_route_detour_bounded);
    ("route total length sane", `Quick, test_route_total_length_sane);
    ("collapsed embedding routes", `Quick, test_collapsed_embedding_routes);
    ("truncated BFS routes = full BFS", `Slow, test_truncated_bfs_matches_reference);
    ("golden repaired placements and reports", `Slow, test_golden_repaired);
    ("catalan values", `Quick, test_catalan_values);
    ("enumeration counts", `Quick, test_enumeration_counts);
    ("enumeration distinct/valid", `Quick, test_enumeration_distinct_and_valid);
    ("enumeration guard", `Quick, test_enumeration_guard);
    ("exhaustive tiny theorem1", `Slow, test_exhaustive_tiny_theorem1);
  ]
