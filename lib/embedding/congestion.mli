(** Congestion-aware route assignment for the guest edges of an
    embedding.

    {!Embedding.congestion} routes every guest edge along a BFS-tree
    shortest path, which can pile many routes onto one host edge. This
    module instead assigns routes greedily — longest demands first, each
    along a path that avoids already-hot edges (Dijkstra with edge cost
    [(load+1)²], which preserves shortest paths on an idle network and
    spreads load under contention) — and reports the resulting maximum
    edge load. Routes may detour, but by at most 4 hops beyond their
    shortest path, so the congestion win has a bounded dilation cost;
    both numbers are returned. *)

type result = {
  congestion : int;       (** Max routes sharing one host edge. *)
  max_route_length : int; (** Longest assigned route (>= dilation). *)
  total_route_length : int;
}

val route : Embedding.t -> result
(** Deterministic: demands are processed longest-shortest-path first, ties
    by guest edge order. Edge loads live in a dense array indexed by
    {!Xt_topology.Graph.edge_index} and the Dijkstra scratch (distance,
    parent, heap) is reused across demands, so routing allocates no
    per-route tables. *)

val analyse : Xt_topology.Graph.t -> (int * int) list -> result
(** [analyse host pairs] routes an explicit demand list over a bare host
    graph with the same greedy scheme as {!route} (equal-endpoint pairs
    are dropped). Useful for benchmarking the router on synthetic
    workloads, e.g. all-pairs traffic on an X-tree. *)

val baseline : Embedding.t -> result
(** The same accounting for plain BFS-tree shortest-path routing, for
    comparison: a summary of {!Embedding.shortest_path_loads} (so its
    [congestion] equals {!Embedding.congestion}). *)
