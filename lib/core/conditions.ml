open Xt_topology
open Xt_bintree
open Xt_embedding

type report = {
  edges : int;
  cond3_violations : int;
  cond4_violations : int;
  max_level_gap : int;
}

let check xt (e : Embedding.t) =
  let edges = Bintree.edges e.tree in
  let cond3 = ref 0 and cond4 = ref 0 and gap = ref 0 in
  List.iter
    (fun (u, v) ->
      let a = e.place.(u) and b = e.place.(v) in
      let upper, lower = if Xtree.level a <= Xtree.level b then (a, b) else (b, a) in
      let g = Xtree.level lower - Xtree.level upper in
      if g > !gap then gap := g;
      if g > 2 then incr cond4;
      if not (Xtree.in_neighbourhood xt upper lower) then incr cond3)
    edges;
  { edges = List.length edges; cond3_violations = !cond3; cond4_violations = !cond4; max_level_gap = !gap }

let check_theorem1 (r : Theorem1.result) = check r.Theorem1.xt r.Theorem1.embedding
