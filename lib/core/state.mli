(** Mutable state of the X-TREE embedding algorithm (Theorem 1).

    The state tracks, per X-tree vertex: its occupancy (at most [capacity]
    guest nodes), the {e pieces} (residual connected subtrees of the guest)
    attached to it, and the cached total weight of its X-subtree (embedded
    plus attached guest nodes) — the quantity ADJUST balances.

    A piece carries its {e boundaries}: residual nodes adjacent to an
    already-embedded node, together with that neighbour's X-tree vertex
    (the {e anchor}). Under the paper's invariant (6) a piece has at most
    two boundaries sharing one anchor; this implementation tolerates more
    anchors and simply measures the resulting dilation. *)

type boundary = { bnode : int; anchor : int }

type piece = {
  pid : int;
  size : int;
  nodes : int list;
  bounds : boundary list; (** Usually one or two. *)
}

type t = {
  tree : Xt_bintree.Bintree.t;
  xt : Xt_topology.Xtree.t;
  height : int;
  capacity : int;
  place : int array;            (** guest node -> X-tree vertex, [-1] unplaced *)
  occ : int array;              (** per-vertex occupancy *)
  weight : int array;           (** cached X-subtree weights *)
  attached : piece list array;  (** pieces attached per vertex *)
  ws : Xt_bintree.Separator.ws;
  mutable placed : int;
  mutable next_pid : int;
  mutable fallbacks : int;      (** placements that had to divert to a free slot *)
  mutable wide_pieces : int;    (** pieces created with more than two boundaries *)
}

val create : tree:Xt_bintree.Bintree.t -> height:int -> capacity:int -> t

val weight_of : t -> int -> int
(** Cached weight of a vertex's X-subtree. *)

val lay : t -> max_level:int -> node:int -> vertex:int -> unit
(** Place a guest node at (or, when the vertex is full, at the nearest
    vertex of level <= [max_level] with a free slot — counted in
    [fallbacks]). Raises [Invalid_argument] if the node is already placed
    or no slot exists. *)

val attach : t -> vertex:int -> piece -> unit
val detach : t -> vertex:int -> piece -> unit

val make_piece : t -> int list -> piece
(** Builds a piece from its node list, scanning for boundaries against the
    current placement. *)

val pieces_at : t -> int -> piece list

val separator_piece : piece -> Xt_bintree.Separator.piece
(** View a piece as input for the separator lemmas ([r1]/[r2] are the
    boundary nodes). Raises [Invalid_argument] on a boundary-less piece. *)

val reattach_components : t -> int list -> default_vertex:int -> unit
(** Split the given residual nodes into connected components, wrap each as
    a piece, and attach every piece to the anchor of its first boundary
    (or to [default_vertex] if it has none). *)

val total_capacity : t -> int

val check_invariants : t -> (unit, string) result
(** Expensive consistency check used by tests: occupancy, weights and
    piece bookkeeping all agree with [place]. *)
