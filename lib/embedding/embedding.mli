(** Embeddings of a guest binary tree into a host graph, and their quality
    measures as defined in the paper:

    - {e dilation}: maximum host distance between the images of adjacent
      guest nodes — the number of clock cycles needed to simulate one guest
      communication step;
    - {e load factor}: maximum number of guest nodes mapped to one host
      vertex;
    - {e expansion}: host size divided by guest size;
    - {e congestion} (not in the paper, standard in the literature): when
      every guest edge is routed along one shortest host path, the maximum
      number of routes sharing a host edge. *)

type t = private {
  tree : Xt_bintree.Bintree.t;
  host : Xt_topology.Graph.t;
  place : int array; (** [place.(v)] is the host vertex of guest node [v]. *)
}

val make : tree:Xt_bintree.Bintree.t -> host:Xt_topology.Graph.t -> place:int array -> t
(** Validates that [place] has one in-range host vertex per guest node.
    Raises [Invalid_argument] otherwise. *)

val guest_size : t -> int
val host_size : t -> int

(** {1 Metrics}

    The optional [dist] argument supplies a host metric (for hypercubes,
    X-trees, …); by default distances are the lengths of the BFS-tree
    routes of {!shortest_path_loads}. *)

val edge_dilations : ?dist:(int -> int -> int) -> t -> int array
(** Host distance of every guest edge, in [Bintree.edges] order. *)

val dilation : ?dist:(int -> int -> int) -> t -> int
(** Maximum over {!edge_dilations}; 0 for a single-node guest. *)

val average_dilation : ?dist:(int -> int -> int) -> t -> float

val loads : t -> int array
(** Per-host-vertex multiplicities. *)

val load : t -> int

val expansion : t -> float

val is_injective : t -> bool

val shortest_path_loads : t -> int array * int array
(** [(load, length)] when every guest edge [(u, v)] is routed along the
    BFS tree of [u]'s image ({!Xt_topology.Graph.bfs_parents}' shortest
    path from [place.(u)] to [place.(v)]): [load.(eid)] counts the routes
    crossing host edge [eid] (the ids of
    {!Xt_topology.Graph.iter_neighbours_e}), and [length.(i)] is the hop
    length of guest edge [i]'s route, in [Bintree.edges] order. One BFS
    per distinct source image, cut off once all its targets are found:
    O(host + guest) memory. Raises [Invalid_argument] if a route has no
    host path. *)

val congestion : t -> int
(** Shortest-path routing congestion: the maximum of
    {!shortest_path_loads}' loads (deterministic). *)

type report = {
  dilation : int;
  average_dilation : float;
  load : int;
  expansion : float;
  congestion : int;
  injective : bool;
}

val report : ?dist:(int -> int -> int) -> t -> report

val pp_report : Format.formatter -> report -> unit

val verify :
  ?dist:(int -> int -> int) ->
  ?max_dilation:int ->
  ?max_load:int ->
  t ->
  (unit, string) result
(** Checks the stated bounds and that every guest node is placed; returns a
    human-readable reason on failure. *)
