open Xt_topology
open Xt_bintree

type t = { tree : Bintree.t; host : Graph.t; place : int array }

let make ~tree ~host ~place =
  if Array.length place <> Bintree.n tree then
    invalid_arg "Embedding.make: place size does not match guest size";
  Array.iter
    (fun v -> if v < 0 || v >= Graph.n host then invalid_arg "Embedding.make: place out of host range")
    place;
  { tree; host; place }

let guest_size e = Bintree.n e.tree
let host_size e = Graph.n e.host

(* BFS-tree routing of every guest edge, the accounting behind
   [congestion], the default metric and [Congestion.baseline]. Guest
   edges are bucketed by the host image of their parent end (CSR), and
   one BFS per source runs over generation-stamped scratch with a flat
   int queue, stopping once every target of that source is discovered.
   A vertex's parent is fixed when it is discovered, so the truncated
   search yields the same routes as a full [Graph.bfs_parents]: FIFO
   order, neighbours in sorted adjacency order. *)
let shortest_path_loads e =
  let host = e.host and place = e.place in
  let hn = Graph.n host in
  let edges = Array.of_list (Bintree.edges e.tree) in
  let m = Array.length edges in
  let start = Array.make (hn + 1) 0 in
  Array.iter (fun (u, _) -> start.(place.(u) + 1) <- start.(place.(u) + 1) + 1) edges;
  for s = 0 to hn - 1 do
    start.(s + 1) <- start.(s + 1) + start.(s)
  done;
  let bucket = Array.make m 0 and fill = Array.sub start 0 hn in
  Array.iteri
    (fun i (u, _) ->
      let s = place.(u) in
      bucket.(fill.(s)) <- i;
      fill.(s) <- fill.(s) + 1)
    edges;
  let target j = place.(snd edges.(bucket.(j))) in
  let load = Array.make (Graph.m host) 0 and length = Array.make m 0 in
  let seen = Array.make hn 0 and wanted = Array.make hn 0 in
  let parent = Array.make hn 0 and parent_edge = Array.make hn 0 and queue = Array.make hn 0 in
  for s = 0 to hn - 1 do
    let gen = s + 1 and remaining = ref 0 in
    for j = start.(s) to start.(s + 1) - 1 do
      let t = target j in
      if t <> s && wanted.(t) <> gen then begin
        wanted.(t) <- gen;
        incr remaining
      end
    done;
    if !remaining > 0 then begin
      seen.(s) <- gen;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      while !remaining > 0 && !head < !tail do
        let u = queue.(!head) in
        incr head;
        Graph.iter_neighbours_e host u (fun v eid ->
            if seen.(v) <> gen then begin
              seen.(v) <- gen;
              parent.(v) <- u;
              parent_edge.(v) <- eid;
              queue.(!tail) <- v;
              incr tail;
              if wanted.(v) = gen then decr remaining
            end)
      done;
      if !remaining > 0 then invalid_arg "Embedding: guest edge spans disconnected host vertices";
      for j = start.(s) to start.(s + 1) - 1 do
        let rec walk w len =
          if w = s then len
          else begin
            load.(parent_edge.(w)) <- load.(parent_edge.(w)) + 1;
            walk parent.(w) (len + 1)
          end
        in
        length.(bucket.(j)) <- walk (target j) 0
      done
    end
  done;
  (load, length)

let edge_dilations ?dist e =
  match dist with
  | None -> snd (shortest_path_loads e)
  | Some dist ->
      Array.of_list (List.map (fun (u, v) -> dist e.place.(u) e.place.(v)) (Bintree.edges e.tree))

let dilation ?dist e = Array.fold_left max 0 (edge_dilations ?dist e)

let mean ds =
  if Array.length ds = 0 then 0.
  else float_of_int (Array.fold_left ( + ) 0 ds) /. float_of_int (Array.length ds)

let average_dilation ?dist e = mean (edge_dilations ?dist e)

let loads e =
  let l = Array.make (Graph.n e.host) 0 in
  Array.iter (fun v -> l.(v) <- l.(v) + 1) e.place;
  l

let load e = Array.fold_left max 0 (loads e)

let expansion e = float_of_int (host_size e) /. float_of_int (guest_size e)

let is_injective e = load e <= 1

let congestion e = Array.fold_left max 0 (fst (shortest_path_loads e))

type report = {
  dilation : int;
  average_dilation : float;
  load : int;
  expansion : float;
  congestion : int;
  injective : bool;
}

let report ?dist e =
  let route_load, route_length = shortest_path_loads e in
  let ds = match dist with None -> route_length | Some _ -> edge_dilations ?dist e in
  {
    dilation = Array.fold_left max 0 ds;
    average_dilation = mean ds;
    load = load e;
    expansion = expansion e;
    congestion = Array.fold_left max 0 route_load;
    injective = is_injective e;
  }

let pp_report fmt r =
  Format.fprintf fmt "dilation=%d avg=%.2f load=%d expansion=%.3f congestion=%d%s" r.dilation
    r.average_dilation r.load r.expansion r.congestion
    (if r.injective then " injective" else "")

let verify ?dist ?max_dilation ?max_load e =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let d = dilation ?dist e in
  let l = load e in
  match (max_dilation, max_load) with
  | Some bound, _ when d > bound -> fail "dilation %d exceeds bound %d" d bound
  | _, Some bound when l > bound -> fail "load %d exceeds bound %d" l bound
  | _ -> Ok ()
