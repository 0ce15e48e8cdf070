(** The procedure ADJUST of the paper.

    [run st ~round:i ~a] balances the X-subtree weights of [a]'s two
    children using the unique horizontally adjacent leaf pair across the
    cut — the rightmost level-(i-1) leaf below [a0] and the leftmost below
    [a1]. Pieces attached to the heavy side's boundary leaf are split
    (Lemma 2 / Lemma 1) or shifted whole; the separator nodes are laid out
    at the two new level-i leaves under the boundary, at most four nodes
    per leaf. *)

type plan = {
  donor_leaf : int;     (** level-(i-1) boundary leaf on the heavy side *)
  receiver_leaf : int;  (** its horizontal neighbour across the cut *)
  donor_new : int;      (** level-i child receiving the donor-side layout *)
  receiver_new : int;   (** level-i child receiving the moved nodes *)
  delta : int;          (** half the weight difference; always > 0 *)
}

val plan : State.t -> round:int -> a:int -> plan option
(** The sites one [run] call would operate on, or [None] when the
    children are already balanced (weight difference at most 1) and
    [run] would be a no-op. *)

val run : State.t -> round:int -> a:int -> unit
