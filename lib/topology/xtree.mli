(** The X-tree network [X(r)] of the paper.

    [X(r)] is the complete binary tree of height [r] (all binary strings of
    length at most [r], each string [x] connected to [x0] and [x1])
    augmented with the {e horizontal} edges connecting each vertex to its
    successor on the same level, i.e. the string whose binary value is one
    larger, provided [x] is not the last vertex of its level.

    Vertices are encoded in heap order: the string of length [l] and binary
    value [k] has id [2{^l} - 1 + k]. The root (empty string) is id 0. *)

type vertex = int
(** Heap-order id of an X-tree vertex. *)

type t
(** An X-tree of some height [r >= 0], with its graph built eagerly. *)

val create : height:int -> t
(** [create ~height:r] is [X(r)]. Raises [Invalid_argument] if [r < 0] or
    [r > 24]. *)

val height : t -> int

val order : t -> int
(** Number of vertices, [2{^r+1} - 1]. *)

val graph : t -> Graph.t
(** The underlying undirected graph (tree edges plus horizontal edges). *)

(** {1 Address arithmetic} — independent of any particular [t]. *)

val id : level:int -> index:int -> vertex
(** Raises [Invalid_argument] if [index] is out of range for [level]. *)

val level : vertex -> int
val index : vertex -> int

val root : vertex
(** Id 0, the empty string. *)

val parent : vertex -> vertex option
(** [None] for the root. *)

val child : vertex -> int -> vertex
(** [child v b] with [b] 0 or 1 appends bit [b] to the address. *)

val successor : vertex -> vertex option
(** Next vertex of the same level, [None] at the right end (all-ones). *)

val predecessor : vertex -> vertex option

val is_ancestor : vertex -> vertex -> bool
(** [is_ancestor a v]: the address of [a] is a prefix of that of [v]
    (including [a = v]). *)

val to_string : vertex -> string
(** Binary-string address; ["e"] for the root. *)

val of_string : string -> vertex
(** Inverse of [to_string]; accepts [""] or ["e"] for the root. Raises
    [Invalid_argument] on non-binary characters or length > 24. *)

(** {1 Per-tree queries} *)

val vertices_at_level : t -> int -> vertex list
(** Left-to-right vertex ids of one level. Raises [Invalid_argument] if the
    level exceeds the height. *)

val leaves : t -> vertex list
(** [vertices_at_level t (height t)]. *)

val mem : t -> vertex -> bool
(** Does this vertex id exist in [X(r)]? *)

val distance : t -> vertex -> vertex -> int
(** Exact hop distance in [X(r)]: {!analytic_distance} after checking that
    both vertices belong to the tree. O(levels), allocation-free, and no
    table is kept. Raises [Invalid_argument] on a vertex outside [X(r)]. *)

val neighbourhood : t -> vertex -> vertex list
(** The set [N(a)] of the paper's Figure 2: vertices of [X(r)] reachable
    from [a] by a path of at most three horizontal edges, or by at most two
    downward edges followed by at most two horizontal edges. Contains [a]
    itself. Sorted, duplicate-free. *)

val in_neighbourhood : t -> vertex -> vertex -> bool
(** [in_neighbourhood t a b] is [List.mem b (neighbourhood t a)] in O(1),
    without building the list: [b] lies on [a]'s level with
    [|index b - index a| <= 3], one level down with index in
    [[2k-2, 2k+3]], or two levels down with index in [[4k-2, 4k+5]], where
    [k = index a]. Raises [Invalid_argument] if [a] is not in [X(r)];
    [false] if [b] is not. *)

val neighbourhood_closure_bound : int
(** 20 — the paper's bound on [|N(a) - {a}|]. *)

(** {1 Table-free metric and routing}

    The address structure gives the X-tree metric in O(levels), with no
    per-destination table. The {e analytic distance} is

    [D(a,b) = min over meeting levels l <= min(level a, level b) of
       (level a - l) + (level b - l) + gap_l(a,b)]

    where [gap_l] is the index difference of the two level-[l] ancestors.

    {b [D] is exact.} The climb–run–descend route (up to level [l], along
    the level, down again) has exactly that many edges, so [D] is at least
    the distance. Conversely, take a shortest path from [a] to [b] and let
    [m] be the smallest level it visits. Map each vertex of the path to
    its level-[m] ancestor. A vertical edge between levels [>= m] leaves
    that ancestor unchanged, and a horizontal edge on a level [>= m] moves
    it by at most one index. The path must climb from [a] to level [m]
    and come back down to [b], which takes at least
    [(level a - m) + (level b - m)] vertical edges, and its horizontal
    edges carry the ancestor from [a]'s to [b]'s, which takes at least
    [gap_m(a,b)] of them. So the path has at least the [m] term of [D]
    edges, and the distance is at least [D]. Optimal X-tree paths
    therefore have the climb–run–descend shape; the test suite re-checks
    [D] against BFS on every pair up to height 11.

    Since [D] is the distance, every vertex but the destination has a
    neighbour with [D] one smaller, so the greedy descent on [D] walks a
    shortest path. *)

val analytic_distance : vertex -> vertex -> int
(** [D(a,b)], the exact distance, by pure address arithmetic in O(levels)
    and without allocating. It needs no [t]: the distance between two
    vertices is the same in every X-tree that contains both. *)

val route_next_hop : t -> src:vertex -> dst:vertex -> vertex
(** The neighbour of [src] chosen by the greedy [D]-descent. Raises
    [Invalid_argument] if [src = dst]. *)

val route : t -> src:vertex -> dst:vertex -> vertex list
(** The full greedy route, [src] inclusive to [dst] inclusive: a shortest
    path of [analytic_distance src dst] edges. *)
