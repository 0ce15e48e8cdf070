(** Sequential reference for Theorem 1, analogous to
    [Xt_netsim.Sim_ref]: a self-contained copy of the original pipeline
    (hash-table separator workspace, sequential ADJUST/SPLIT sweeps). The
    production [Theorem1] — flat separator workspaces, the same sequential
    sweeps — must produce bit-identical placements; the equivalence suite
    in [test_theorem1_ref.ml] checks exactly that, and golden digests
    there pin both. Not reachable from any production path and
    deliberately unoptimised. Patched once, jointly with [Theorem1], for
    the pre-sweep SPLIT tie-break snapshot; edit it only that way. *)

type result = {
  place : int array;  (** guest node -> host vertex *)
  height : int;
  capacity : int;
  fallbacks : int;
  wide_pieces : int;
}

val optimal_size : ?capacity:int -> int -> int
val height_for : ?capacity:int -> int -> int

val embed : ?capacity:int -> ?height:int -> ?options:Options.t -> Xt_bintree.Bintree.t -> result
(** Sequential Theorem 1 embedding over the reference separator and
    state copies. *)
