open Xt_obs
open Xt_prelude
open Xt_topology
open Xt_bintree

(* Telemetry. Relaxations are tallied in a local accumulator and flushed
   once per Dijkstra call, so the inner loop stays free of flag checks. *)
let c_demands = Obs.counter "congestion.demands"
let c_relax = Obs.counter "congestion.relaxations"
let c_scratch_reuse = Obs.counter "congestion.scratch_reuse"
let c_scratch_alloc = Obs.counter "congestion.scratch_alloc"
let h_edge_load = Obs.histogram "congestion.edge_load"

type result = { congestion : int; max_route_length : int; total_route_length : int }

(* How many extra hops a route may take to dodge congestion. *)
let detour_slack = 4

(* Reusable Dijkstra scratch. One allocation serves every demand of a
   routing run: [stamp] generation-marks valid [dist] entries so nothing
   needs an O(states) clear between demands, and the heap empties in
   O(1). Arrays grow monotonically; demands are routed longest-first, so
   the first demand already needs the largest state space. *)
type scratch = {
  mutable dist : int array;
  mutable parent : int array;
  mutable stamp : int array;
  mutable gen : int;
  heap : int Heap.t;
}

let make_scratch () = { dist = [||]; parent = [||]; stamp = [||]; gen = 0; heap = Heap.create () }

let prepare scratch states =
  if Array.length scratch.dist < states then begin
    scratch.dist <- Array.make states max_int;
    scratch.parent <- Array.make states (-1);
    scratch.stamp <- Array.make states 0;
    scratch.gen <- 0;
    Obs.incr c_scratch_alloc
  end
  else Obs.incr c_scratch_reuse;
  scratch.gen <- scratch.gen + 1;
  Heap.clear scratch.heap

(* Load-aware Dijkstra from s to t over (vertex, hops-used) states, so
   that routes are guaranteed at most [shortest + detour_slack] hops long
   ([ds]/[dt] are hop-distance rows from s and t, used to prune states
   that cannot finish within budget). Edge cost (load+1)^2 gives shortest
   paths on an idle network and repels hot edges under load. Loads are
   read straight out of an edge-id-indexed array — no hashing on the
   relaxation path. *)
let dijkstra host (load : int array) scratch ~ds ~dt s t =
  let budget = ds.(t) + detour_slack in
  let width = budget + 1 in
  let states = Graph.n host * width in
  prepare scratch states;
  let dist = scratch.dist
  and parent = scratch.parent
  and stamp = scratch.stamp
  and gen = scratch.gen
  and heap = scratch.heap in
  let get st = if stamp.(st) = gen then dist.(st) else max_int in
  let set st d p =
    dist.(st) <- d;
    parent.(st) <- p;
    stamp.(st) <- gen
  in
  let id v h = (v * width) + h in
  set (id s 0) 0 (-1);
  Heap.push heap ~key:0 (id s 0);
  let goal = ref (-1) in
  let relaxed = ref 0 in
  while !goal < 0 && not (Heap.is_empty heap) do
    match Heap.pop_min heap with
    | None -> goal := -2
    | Some (d, st) ->
        let u = st / width and h = st mod width in
        if u = t then goal := st
        else if d <= get st && h < budget then
          Graph.iter_neighbours_e host u (fun v eid ->
              if dt.(v) >= 0 && h + 1 + dt.(v) <= budget then begin
                incr relaxed;
                let l = load.(eid) in
                let c = d + ((l + 1) * (l + 1)) in
                let st' = id v (h + 1) in
                if c < get st' then begin
                  set st' c st;
                  Heap.push heap ~key:c st'
                end
              end)
  done;
  Obs.add c_relax !relaxed;
  if s = t then Some [ s ]
  else if !goal < 0 then None
  else begin
    let rec walk acc st =
      let v = st / width in
      if st = id s 0 then v :: acc else walk (v :: acc) parent.(st)
    in
    Some (walk [] !goal)
  end

(* Memoised BFS rows, shared between demand sorting and routing (the
   previous version built a separate table for each). *)
let row_table host =
  let rows = Hashtbl.create 64 in
  fun s ->
    match Hashtbl.find_opt rows s with
    | Some r -> r
    | None ->
        let r = Graph.bfs host s in
        Hashtbl.replace rows s r;
        r

let summarise load lengths =
  let congestion = Array.fold_left max 0 load in
  let max_route_length = Array.fold_left max 0 lengths in
  let total_route_length = Array.fold_left ( + ) 0 lengths in
  { congestion; max_route_length; total_route_length }

(* Route an explicit demand list over a bare host graph: longest demands
   first (ties keep list order), each along the load-aware Dijkstra
   path. This is the engine behind [route] and the public [analyse]. *)
let route_demands host pairs =
  Obs.span ~arg:(List.length pairs) "congestion.analyse" @@ fun () ->
  let row = row_table host in
  let load = Array.make (Graph.m host) 0 in
  let scratch = make_scratch () in
  let demands =
    pairs
    |> List.filter_map (fun (a, b) -> if a = b then None else Some ((row a).(b), a, b))
    |> List.sort (fun (d1, _, _) (d2, _, _) -> compare d2 d1)
  in
  Obs.add c_demands (List.length demands);
  let lengths =
    List.map
      (fun (_, a, b) ->
        match dijkstra host load scratch ~ds:(row a) ~dt:(row b) a b with
        | None -> 0
        | Some path ->
            let rec charge = function
              | x :: (y :: _ as rest) ->
                  let eidx = Graph.edge_index host x y in
                  load.(eidx) <- load.(eidx) + 1;
                  1 + charge rest
              | _ -> 0
            in
            charge path)
      demands
  in
  if Obs.metrics_enabled () then Array.iter (Obs.observe h_edge_load) load;
  summarise load (Array.of_list lengths)

let analyse host pairs = route_demands host pairs

let route (e : Embedding.t) =
  route_demands e.host
    (Bintree.edges e.tree |> List.map (fun (u, v) -> (e.place.(u), e.place.(v))))

let baseline e =
  let load, lengths = Embedding.shortest_path_loads e in
  summarise load lengths
