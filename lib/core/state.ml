open Xt_topology
open Xt_bintree

type boundary = { bnode : int; anchor : int }

type piece = { pid : int; size : int; nodes : int list; bounds : boundary list }

type t = {
  tree : Bintree.t;
  xt : Xtree.t;
  height : int;
  capacity : int;
  place : int array;
  occ : int array;
  weight : int array;
  attached : piece list array;
  ws : Separator.ws;
  mutable placed : int;
  mutable next_pid : int;
  mutable fallbacks : int;
  mutable wide_pieces : int;
}

let create ~tree ~height ~capacity =
  if capacity <= 0 then invalid_arg "State.create: capacity";
  let xt = Xtree.create ~height in
  let order = Xtree.order xt in
  {
    tree;
    xt;
    height;
    capacity;
    place = Array.make (Bintree.n tree) (-1);
    occ = Array.make order 0;
    weight = Array.make order 0;
    attached = Array.make order [];
    ws = Separator.make_ws tree;
    placed = 0;
    next_pid = 0;
    fallbacks = 0;
    wide_pieces = 0;
  }

let weight_of st v = st.weight.(v)

let add_weight st v delta =
  let rec up v =
    st.weight.(v) <- st.weight.(v) + delta;
    match Xtree.parent v with Some p -> up p | None -> ()
  in
  up v

(* Nearest vertex with a free slot among levels <= max_level, by BFS from
   [from_] in the X-tree. *)
let nearest_free st ~max_level ~from_ =
  let g = Xtree.graph st.xt in
  let seen = Array.make (Graph.n g) false in
  let queue = Queue.create () in
  Queue.add from_ queue;
  seen.(from_) <- true;
  let found = ref (-1) in
  while !found < 0 && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if st.occ.(v) < st.capacity && Xtree.level v <= max_level then found := v
    else
      Graph.iter_neighbours g v (fun w ->
          if not seen.(w) then begin
            seen.(w) <- true;
            Queue.add w queue
          end)
  done;
  !found

let lay st ~max_level ~node ~vertex =
  if st.place.(node) >= 0 then invalid_arg "State.lay: node already placed";
  let target =
    if st.occ.(vertex) < st.capacity && Xtree.level vertex <= max_level then vertex
    else begin
      st.fallbacks <- st.fallbacks + 1;
      let v = nearest_free st ~max_level ~from_:vertex in
      (* Tight capacities (e.g. 4) can exhaust every level the round is
         allowed to touch while deeper levels still have slack; diverting
         below [max_level] costs dilation but keeps the load bound and
         places every node, where raising would abandon the embedding. *)
      let v =
        if v >= 0 then v
        else nearest_free st ~max_level:(Xtree.height st.xt) ~from_:vertex
      in
      if v < 0 then invalid_arg "State.lay: host is full";
      v
    end
  in
  st.place.(node) <- target;
  st.occ.(target) <- st.occ.(target) + 1;
  st.placed <- st.placed + 1;
  add_weight st target 1

let attach st ~vertex piece =
  st.attached.(vertex) <- piece :: st.attached.(vertex);
  add_weight st vertex piece.size

let detach st ~vertex piece =
  let before = List.length st.attached.(vertex) in
  st.attached.(vertex) <- List.filter (fun p -> p.pid <> piece.pid) st.attached.(vertex);
  if List.length st.attached.(vertex) <> before - 1 then
    invalid_arg "State.detach: piece not attached here";
  add_weight st vertex (-piece.size)

let make_piece st nodes =
  let bounds = ref [] in
  List.iter
    (fun w ->
      Bintree.iter_neighbours st.tree w (fun x ->
          if st.place.(x) >= 0 then bounds := { bnode = w; anchor = st.place.(x) } :: !bounds))
    nodes;
  let bounds = !bounds in
  if List.length bounds > 2 then st.wide_pieces <- st.wide_pieces + 1;
  let pid = st.next_pid in
  st.next_pid <- pid + 1;
  { pid; size = List.length nodes; nodes; bounds }

let pieces_at st v = st.attached.(v)

let separator_piece p =
  match p.bounds with
  | [] -> invalid_arg "State.separator_piece: piece has no boundary"
  | b :: rest ->
      let r2 =
        List.fold_left
          (fun acc b' -> match acc with Some _ -> acc | None -> if b'.bnode <> b.bnode then Some b'.bnode else None)
          None rest
      in
      { Separator.nodes = p.nodes; r1 = b.bnode; r2 }

let reattach_components st nodes ~default_vertex =
  if nodes <> [] then begin
    let comps = Separator.components st.ws ~nodes ~removed:[] in
    List.iter
      (fun comp ->
        let piece = make_piece st comp in
        let vertex = match piece.bounds with b :: _ -> b.anchor | [] -> default_vertex in
        attach st ~vertex piece)
      comps
  end

let total_capacity st = st.capacity * Xtree.order st.xt

let check_invariants st =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let order = Xtree.order st.xt in
  (* occupancy matches place *)
  let occ' = Array.make order 0 in
  let placed' = ref 0 in
  Array.iter
    (fun v ->
      if v >= 0 then begin
        occ'.(v) <- occ'.(v) + 1;
        incr placed'
      end)
    st.place;
  if occ' <> st.occ then fail "occupancy out of sync"
  else if !placed' <> st.placed then fail "placed counter out of sync"
  else begin
    (* every guest node is placed xor belongs to exactly one piece *)
    let covered = Array.make (Bintree.n st.tree) 0 in
    Array.iteri (fun v p -> if p >= 0 then covered.(v) <- covered.(v) + 1) st.place;
    Array.iter
      (fun pieces ->
        List.iter (fun p -> List.iter (fun v -> covered.(v) <- covered.(v) + 1) p.nodes) pieces)
      st.attached;
    let bad = ref None in
    Array.iteri
      (fun v c -> if c <> 1 && !bad = None then bad := Some (v, c))
      covered;
    match !bad with
    | Some (v, c) -> fail "guest node %d covered %d times" v c
    | None ->
        (* weights: recompute bottom-up *)
        let w = Array.make order 0 in
        for v = order - 1 downto 0 do
          let own = st.occ.(v) + List.fold_left (fun acc p -> acc + p.size) 0 st.attached.(v) in
          let kids =
            let c0 = (2 * v) + 1 and c1 = (2 * v) + 2 in
            (if c0 < order then w.(c0) else 0) + if c1 < order then w.(c1) else 0
          in
          w.(v) <- own + kids
        done;
        if w <> st.weight then fail "weights out of sync" else Ok ()
  end
