(** The procedure SPLIT of the paper.

    [run st ~round:i ~alpha] distributes everything attached to the
    level-(i-1) vertex [alpha] onto its two children:

    + pieces with an anchor two or more levels up {e must} lay their
      anchored boundary nodes now (condition (4) allows a level gap of at
      most two);
    + all pieces — including those provisionally placed at the children by
      this round's ADJUST calls — are paired largest-against-the-lighter-bag
      into two bags, which are then oriented onto the children;
    + a final Lemma 2 split over the remaining free slots reduces the
      children's weight difference;
    + each child is topped up to [capacity] with frontier nodes (residual
      nodes adjacent to an already-laid node). *)

val run :
  ?options:Options.t ->
  ?outer_weight:(int -> int) ->
  State.t ->
  round:int ->
  alpha:int ->
  unit
(** [outer_weight] supplies the weight of the level-[i] vertices just
    outside [alpha]'s subtree, read only to break orientation ties.
    Defaults to the live weights; {!Theorem1.embed} passes a pre-sweep
    snapshot of the whole level so every SPLIT of a sweep sees the same
    outer weights regardless of how much of the sweep has run. *)
