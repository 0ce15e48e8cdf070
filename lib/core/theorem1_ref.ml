(* Sequential reference for Theorem 1, in the Sim_ref pattern: a
   self-contained copy of the original pipeline — hash-table separator,
   list-ordered workspace, one sequential ADJUST/SPLIT sweep per level —
   so the flat-workspace core in [Theorem1] can be tested for
   *bit-identical* placements against it. Nothing here is reachable from
   the production path. It has been patched once, together with
   [Theorem1] (the pre-sweep [outer_snap] of the SPLIT tie-break); the
   golden placement digests in [test_theorem1_ref.ml] catch such joint
   edits, so change it only alongside [Theorem1] and never to optimise. *)

open Xt_topology
open Xt_bintree

(* ------------------------------------------------------------------ *)
(* Separator (reference copy)                                          *)
(* ------------------------------------------------------------------ *)

module Sep = struct
  type piece = { nodes : int list; r1 : int; r2 : int option }
  type split = { s1 : int list; t1 : int list; s2 : int list; t2 : int list }

  type ws = {
    tree : Bintree.t;
    mark : int array;
    par : int array;
    size : int array;
    exq : int array;
    exval : int array;
    anc : int array;
    mutable gen : int;
    mutable exgen : int;
    mutable ancgen : int;
    mutable order : int list;
  }

  let make_ws tree =
    let n = Bintree.n tree in
    {
      tree;
      mark = Array.make n 0;
      par = Array.make n (-1);
      size = Array.make n 0;
      exq = Array.make n 0;
      exval = Array.make n 0;
      anc = Array.make n 0;
      gen = 0;
      exgen = 0;
      ancgen = 0;
      order = [];
    }

  let member ws v = ws.mark.(v) = ws.gen

  let load ws nodes r1 =
    ws.gen <- ws.gen + 1;
    List.iter (fun v -> ws.mark.(v) <- ws.gen) nodes;
    if not (member ws r1) then invalid_arg "Separator: designated node not in piece";
    let stack = Stack.create () in
    let order = ref [] in
    ws.par.(r1) <- -1;
    Stack.push r1 stack;
    let visited = Hashtbl.create 64 in
    Hashtbl.replace visited r1 ();
    while not (Stack.is_empty stack) do
      let v = Stack.pop stack in
      order := v :: !order;
      Bintree.iter_neighbours ws.tree v (fun w ->
          if member ws w && not (Hashtbl.mem visited w) then begin
            Hashtbl.replace visited w ();
            ws.par.(w) <- v;
            Stack.push w stack
          end)
    done;
    List.iter (fun v -> ws.size.(v) <- 1) !order;
    List.iter
      (fun v -> if v <> r1 then ws.size.(ws.par.(v)) <- ws.size.(ws.par.(v)) + ws.size.(v))
      !order;
    ws.order <- List.rev !order;
    List.length !order

  let iter_children ws v f =
    Bintree.iter_neighbours ws.tree v (fun w -> if member ws w && ws.par.(w) = v then f w)

  let reset_exclusions ws = ws.exgen <- ws.exgen + 1

  let exclude ws u =
    let s = ws.size.(u) in
    let rec up v =
      if ws.exq.(v) = ws.exgen then ws.exval.(v) <- ws.exval.(v) + s
      else begin
        ws.exq.(v) <- ws.exgen;
        ws.exval.(v) <- s
      end;
      if ws.par.(v) >= 0 then up ws.par.(v)
    in
    up u

  let eff ws v = ws.size.(v) - if ws.exq.(v) = ws.exgen then ws.exval.(v) else 0

  let find1 ws start ~target =
    let rec descend v =
      if 3 * eff ws v <= 4 * target then v
      else begin
        let best = ref (-1) and best_size = ref 0 in
        iter_children ws v (fun c ->
            let s = eff ws c in
            if s > !best_size then begin
              best := c;
              best_size := s
            end);
        if !best < 0 then v else descend !best
      end
    in
    descend start

  let subtree_nodes ws u =
    let acc = ref [] in
    let stack = Stack.create () in
    if eff ws u > 0 then Stack.push u stack;
    while not (Stack.is_empty stack) do
      let v = Stack.pop stack in
      acc := v :: !acc;
      iter_children ws v (fun c -> if eff ws c > 0 then Stack.push c stack)
    done;
    !acc

  let mark_root_path ws u =
    ws.ancgen <- ws.ancgen + 1;
    let rec up v =
      ws.anc.(v) <- ws.ancgen;
      if ws.par.(v) >= 0 then up ws.par.(v)
    in
    up u

  let lca ws u v =
    mark_root_path ws u;
    let rec up w = if ws.anc.(w) = ws.ancgen then w else up ws.par.(w) in
    up v

  let in_subtree ws ~root v =
    let rec up w = if w = root then true else if ws.par.(w) >= 0 then up ws.par.(w) else false in
    up v

  let uniq xs = List.sort_uniq compare xs

  let assemble ws nodes ~s1 ~s2 ~side2_nodes =
    ws.ancgen <- ws.ancgen + 1;
    List.iter (fun v -> ws.anc.(v) <- ws.ancgen) side2_nodes;
    let in2 v = ws.anc.(v) = ws.ancgen in
    let s1 = uniq s1 and s2 = uniq s2 in
    let t1 = List.filter (fun v -> (not (in2 v)) && not (List.mem v s1)) nodes in
    let t2 = List.filter (fun v -> in2 v && not (List.mem v s2)) side2_nodes in
    { s1; t1; s2; t2 }

  let move_all piece =
    let s2 = uniq (piece.r1 :: Option.to_list piece.r2) in
    let t2 = List.filter (fun v -> not (List.mem v s2)) piece.nodes in
    { s1 = []; t1 = []; s2; t2 }

  let swap_sides sp = { s1 = sp.s2; t1 = sp.t2; s2 = sp.s1; t2 = sp.t1 }

  let carve1 ws piece ~target =
    let r1 = piece.r1 in
    let r2 = match piece.r2 with Some r2 when r2 <> r1 -> Some r2 | _ -> None in
    reset_exclusions ws;
    let u = find1 ws r1 ~target in
    if u = r1 then move_all piece
    else begin
      let z = ws.par.(u) in
      let side2 = subtree_nodes ws u in
      match r2 with
      | Some r2 when in_subtree ws ~root:u r2 ->
          assemble ws piece.nodes ~s1:[ r1; z ] ~s2:[ u; r2 ] ~side2_nodes:side2
      | Some r2 ->
          let y = lca ws u r2 in
          assemble ws piece.nodes ~s1:[ r1; r2; z; y ] ~s2:[ u ] ~side2_nodes:side2
      | None -> assemble ws piece.nodes ~s1:[ r1; z ] ~s2:[ u ] ~side2_nodes:side2
    end

  let lemma1 ws piece ~target =
    if target <= 0 then invalid_arg "Separator.lemma1: target must be positive";
    let n = load ws piece.nodes piece.r1 in
    (match piece.r2 with
    | Some r2 when not (member ws r2) -> invalid_arg "Separator.lemma1: r2 not in piece"
    | _ -> ());
    if target >= n then move_all piece
    else if 3 * n > 4 * target then carve1 ws piece ~target
    else swap_sides (carve1 ws piece ~target:(n - target))

  let two_stage_carve ws ~from_ ~target =
    let u1 = find1 ws from_ ~target in
    if u1 = from_ then None
    else begin
      let z1 = ws.par.(u1) in
      let e = eff ws u1 - target in
      if e > 0 then begin
        let u2 = find1 ws u1 ~target:e in
        if u2 = u1 then Some ([ z1 ], [ u1 ], subtree_nodes ws u1)
        else begin
          let p2 = ws.par.(u2) in
          exclude ws u2;
          let side2 = subtree_nodes ws u1 in
          Some ([ z1; u2 ], [ u1; p2 ], side2)
        end
      end
      else if e < 0 then begin
        let side2a = subtree_nodes ws u1 in
        exclude ws u1;
        let u2 = find1 ws z1 ~target:(-e) in
        if u2 = z1 || eff ws u2 <= 0 then Some ([ z1 ], [ u1 ], side2a)
        else begin
          let z2 = ws.par.(u2) in
          let side2b = subtree_nodes ws u2 in
          Some ([ z1; z2 ], [ u1; u2 ], side2a @ side2b)
        end
      end
      else Some ([ z1 ], [ u1 ], subtree_nodes ws u1)
    end

  let carve2 ws piece ~target =
    let r1 = piece.r1 in
    let r2 = match piece.r2 with Some r2 when r2 <> r1 -> r2 | _ -> r1 in
    reset_exclusions ws;
    let path =
      let rec up acc v = if v = r1 then v :: acc else up (v :: acc) ws.par.(v) in
      up [] r2
    in
    let rec walk = function
      | [] -> r2
      | [ v ] -> v
      | v :: rest -> if 3 * ws.size.(v) > 4 * target && v <> r2 then walk rest else v
    in
    let v = walk path in
    if v = r2 && 3 * ws.size.(v) > 4 * target then begin
      match two_stage_carve ws ~from_:r2 ~target with
      | Some (s1x, s2, side2) ->
          assemble ws piece.nodes ~s1:(r1 :: r2 :: s1x) ~s2 ~side2_nodes:side2
      | None -> move_all piece
    end
    else if ws.size.(v) < target then begin
      let x = ws.par.(v) in
      if x < 0 then move_all piece
      else begin
        let a2 = target - ws.size.(v) in
        let side2v = subtree_nodes ws v in
        exclude ws v;
        match two_stage_carve ws ~from_:x ~target:a2 with
        | Some (s1x, s2x, side2c) ->
            assemble ws piece.nodes ~s1:(r1 :: x :: s1x) ~s2:(r2 :: v :: s2x)
              ~side2_nodes:(side2v @ side2c)
        | None ->
            assemble ws piece.nodes ~s1:[ r1; x ] ~s2:[ r2; v ] ~side2_nodes:side2v
      end
    end
    else begin
      let x = ws.par.(v) in
      if x < 0 then move_all piece
      else begin
        let a' = ws.size.(v) - target in
        if a' = 0 then
          assemble ws piece.nodes ~s1:[ r1; x ] ~s2:[ r2; v ] ~side2_nodes:(subtree_nodes ws v)
        else begin
          let u' = find1 ws v ~target:a' in
          if u' = v then
            assemble ws piece.nodes ~s1:[ r1; x ] ~s2:[ r2; v ]
              ~side2_nodes:(subtree_nodes ws v)
          else begin
            let z' = ws.par.(u') in
            exclude ws u';
            let side2 = subtree_nodes ws v in
            if in_subtree ws ~root:u' r2 then
              assemble ws piece.nodes ~s1:(r1 :: x :: [ u'; r2 ]) ~s2:[ v; z' ]
                ~side2_nodes:side2
            else begin
              let y' = lca ws u' r2 in
              assemble ws piece.nodes ~s1:[ r1; x; u' ] ~s2:[ v; z'; r2; y' ]
                ~side2_nodes:side2
            end
          end
        end
      end
    end

  let lemma2 ws piece ~target =
    if target <= 0 then invalid_arg "Separator.lemma2: target must be positive";
    let n = load ws piece.nodes piece.r1 in
    (match piece.r2 with
    | Some r2 when not (member ws r2) -> invalid_arg "Separator.lemma2: r2 not in piece"
    | _ -> ());
    if target >= n then move_all piece
    else if 3 * n > 4 * target then carve2 ws piece ~target
    else swap_sides (carve2 ws piece ~target:(n - target))

  let components ws ~nodes ~removed =
    ws.gen <- ws.gen + 1;
    List.iter (fun v -> ws.mark.(v) <- ws.gen) nodes;
    List.iter (fun v -> ws.mark.(v) <- ws.gen - 1) removed;
    let seen = Hashtbl.create 64 in
    let comps = ref [] in
    List.iter
      (fun v ->
        if member ws v && not (Hashtbl.mem seen v) then begin
          let comp = ref [] in
          let stack = Stack.create () in
          Stack.push v stack;
          Hashtbl.replace seen v ();
          while not (Stack.is_empty stack) do
            let u = Stack.pop stack in
            comp := u :: !comp;
            Bintree.iter_neighbours ws.tree u (fun w ->
                if member ws w && not (Hashtbl.mem seen w) then begin
                  Hashtbl.replace seen w ();
                  Stack.push w stack
                end)
          done;
          comps := !comp :: !comps
        end)
      nodes;
    !comps
end

(* ------------------------------------------------------------------ *)
(* State (reference copy)                                              *)
(* ------------------------------------------------------------------ *)

module St = struct
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
    ws : Sep.ws;
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
      ws = Sep.make_ws tree;
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
        (* Mirrors State.lay: when every level the round may touch is
           exhausted, divert below [max_level] rather than abandoning the
           embedding — dilation grows but the load bound holds. *)
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
            (fun acc b' ->
              match acc with
              | Some _ -> acc
              | None -> if b'.bnode <> b.bnode then Some b'.bnode else None)
            None rest
        in
        { Sep.nodes = p.nodes; r1 = b.bnode; r2 }
end

(* ------------------------------------------------------------------ *)
(* Moves (reference copy)                                              *)
(* ------------------------------------------------------------------ *)

module Mv = struct
  let clamp_vertex st ~floor_level v =
    let rec down v =
      if Xtree.level v >= floor_level then v
      else begin
        let c0 = Xtree.child v 0 and c1 = Xtree.child v 1 in
        down (if St.weight_of st c0 <= St.weight_of st c1 then c0 else c1)
      end
    in
    down v

  let reattach st ~floor_level ~fallback nodes =
    if nodes <> [] then begin
      let comps = Sep.components st.St.ws ~nodes ~removed:[] in
      List.iter
        (fun comp ->
          let piece = St.make_piece st comp in
          let vertex =
            match piece.St.bounds with
            | b :: _ -> clamp_vertex st ~floor_level b.St.anchor
            | [] -> fallback
          in
          St.attach st ~vertex piece)
        comps
    end

  let reattach_to st ~vertex nodes =
    if nodes <> [] then begin
      let comps = Sep.components st.St.ws ~nodes ~removed:[] in
      List.iter
        (fun comp ->
          let piece = St.make_piece st comp in
          St.attach st ~vertex piece)
        comps
    end

  let apply_split st ~max_level ~floor_level (sp : Sep.split) ~dest1 ~dest2 =
    List.iter (fun v -> St.lay st ~max_level ~node:v ~vertex:dest1) sp.s1;
    List.iter (fun v -> St.lay st ~max_level ~node:v ~vertex:dest2) sp.s2;
    reattach st ~floor_level ~fallback:dest1 sp.t1;
    reattach st ~floor_level ~fallback:dest2 sp.t2

  let move_whole st ~max_level ~floor_level (piece : St.piece) ~dest =
    let designated = List.sort_uniq compare (List.map (fun b -> b.St.bnode) piece.bounds) in
    List.iter (fun v -> St.lay st ~max_level ~node:v ~vertex:dest) designated;
    let rest = List.filter (fun v -> not (List.mem v designated)) piece.nodes in
    reattach st ~floor_level ~fallback:dest rest
end

(* ------------------------------------------------------------------ *)
(* ADJUST (reference copy)                                             *)
(* ------------------------------------------------------------------ *)

module Adj = struct
  let rec spine v b lvl = if Xtree.level v >= lvl then v else spine (Xtree.child v b) b lvl

  let run st ~round:i ~a =
    let c0 = Xtree.child a 0 and c1 = Xtree.child a 1 in
    let w0 = St.weight_of st c0 and w1 = St.weight_of st c1 in
    let delta = (max w0 w1 - min w0 w1) / 2 in
    if delta <> 0 then begin
      let heavy_first = w0 > w1 in
      let donor_leaf, receiver_leaf =
        if heavy_first then (spine c0 1 (i - 1), spine c1 0 (i - 1))
        else (spine c1 0 (i - 1), spine c0 1 (i - 1))
      in
      let donor_new = Xtree.child donor_leaf (if heavy_first then 1 else 0) in
      let receiver_new = Xtree.child receiver_leaf (if heavy_first then 0 else 1) in
      let budget_donor = ref 4 and budget_recv = ref 4 in
      let remaining = ref delta in
      let continue_ = ref true in
      while !continue_ do
        let pieces = St.pieces_at st donor_leaf in
        if !remaining <= 0 || pieces = [] then continue_ := false
        else begin
          let big = List.filter (fun p -> p.St.size >= !remaining) pieces in
          let smallest_big =
            match big with
            | [] -> None
            | p :: rest ->
                Some
                  (List.fold_left
                     (fun acc q -> if q.St.size < acc.St.size then q else acc)
                     p rest)
          in
          match smallest_big with
          | Some piece when !budget_donor >= 4 && !budget_recv >= 4 ->
              let sp = Sep.lemma2 st.St.ws (St.separator_piece piece) ~target:!remaining in
              St.detach st ~vertex:donor_leaf piece;
              Mv.apply_split st ~max_level:i ~floor_level:(i - 1) sp ~dest1:donor_new
                ~dest2:receiver_new;
              continue_ := false
          | Some piece
            when !budget_donor >= 4 && !budget_recv >= 2 && 3 * piece.St.size > 4 * !remaining
            ->
              let sp = Sep.lemma1 st.St.ws (St.separator_piece piece) ~target:!remaining in
              St.detach st ~vertex:donor_leaf piece;
              Mv.apply_split st ~max_level:i ~floor_level:(i - 1) sp ~dest1:donor_new
                ~dest2:receiver_new;
              continue_ := false
          | _ ->
              let piece =
                List.fold_left
                  (fun acc p -> if p.St.size > acc.St.size then p else acc)
                  (List.hd pieces) pieces
              in
              let cost =
                max 1
                  (List.length
                     (List.sort_uniq compare (List.map (fun b -> b.St.bnode) piece.bounds)))
              in
              if piece.St.size <= !remaining && !budget_recv >= cost then begin
                St.detach st ~vertex:donor_leaf piece;
                Mv.move_whole st ~max_level:i ~floor_level:(i - 1) piece ~dest:receiver_new;
                budget_recv := !budget_recv - cost;
                remaining := !remaining - piece.St.size
              end
              else continue_ := false
        end
      done
    end
end

(* ------------------------------------------------------------------ *)
(* SPLIT (reference copy)                                              *)
(* ------------------------------------------------------------------ *)

module Spl = struct
  let piece_size (p : St.piece) = p.St.size

  let assign_class ~pairing (bag0, acc0) (bag1, acc1) pieces =
    let pieces =
      if pairing then List.sort (fun a b -> compare (piece_size b) (piece_size a)) pieces
      else pieces
    in
    let flip = ref false in
    List.iter
      (fun p ->
        let to_first = if pairing then !bag0 <= !bag1 else not !flip in
        flip := not !flip;
        if to_first then begin
          bag0 := !bag0 + piece_size p;
          acc0 := p :: !acc0
        end
        else begin
          bag1 := !bag1 + piece_size p;
          acc1 := p :: !acc1
        end)
      pieces

  let run ?(options = Options.default) ?outer_weight st ~round:i ~alpha =
    let capacity = st.St.capacity in
    let outer_weight = match outer_weight with Some f -> f | None -> St.weight_of st in
    let c0 = Xtree.child alpha 0 and c1 = Xtree.child alpha 1 in
    let old_anchor (p : St.piece) =
      List.exists (fun b -> Xtree.level b.St.anchor <= i - 2) p.St.bounds
    in
    let at_alpha = St.pieces_at st alpha in
    let prov0 = St.pieces_at st c0 and prov1 = St.pieces_at st c1 in
    List.iter (fun p -> St.detach st ~vertex:alpha p) at_alpha;
    List.iter (fun p -> St.detach st ~vertex:c0 p) prov0;
    List.iter (fun p -> St.detach st ~vertex:c1 p) prov1;
    let must_lay, dist = List.partition old_anchor at_alpha in
    let size0 = ref 0 and size1 = ref 0 in
    let bag0 = ref [] and bag1 = ref [] in
    let assign_class = assign_class ~pairing:options.Options.pairing in
    assign_class (size0, bag0) (size1, bag1) must_lay;
    assign_class (size0, bag0) (size1, bag1) dist;
    assign_class (size0, bag0) (size1, bag1) (prov0 @ prov1);
    let base0 = St.weight_of st c0 and base1 = St.weight_of st c1 in
    let imbalance_straight = abs (base0 + !size0 - (base1 + !size1)) in
    let imbalance_swapped = abs (base0 + !size1 - (base1 + !size0)) in
    let straight =
      if imbalance_straight <> imbalance_swapped then imbalance_straight < imbalance_swapped
      else begin
        let outer0 = Option.map outer_weight (Xtree.predecessor c0) in
        let outer1 = Option.map outer_weight (Xtree.successor c1) in
        let heavy_is_bag0 = !size0 >= !size1 in
        let prefer_heavy_left =
          match (outer0, outer1) with
          | Some w0, Some w1 -> w0 <= w1
          | Some _, None -> true
          | None, Some _ -> false
          | None, None -> true
        in
        heavy_is_bag0 = prefer_heavy_left
      end
    in
    let side0, side1 = if straight then (!bag0, !bag1) else (!bag1, !bag0) in
    let settle child pieces =
      List.iter
        (fun (p : St.piece) ->
          let to_lay =
            List.sort_uniq compare
              (List.filter_map
                 (fun b ->
                   if Xtree.level b.St.anchor <= i - 2 then Some b.St.bnode else None)
                 p.St.bounds)
          in
          if to_lay = [] then St.attach st ~vertex:child p
          else begin
            List.iter (fun v -> St.lay st ~max_level:i ~node:v ~vertex:child) to_lay;
            let rest = List.filter (fun v -> not (List.mem v to_lay)) p.St.nodes in
            Mv.reattach_to st ~vertex:child rest
          end)
        pieces
    in
    settle c0 side0;
    settle c1 side1;
    let w0 = St.weight_of st c0 and w1 = St.weight_of st c1 in
    let delta = (max w0 w1 - min w0 w1) / 2 in
    if delta > 0 && options.Options.balance_split then begin
      let heavy, light = if w0 >= w1 then (c0, c1) else (c1, c0) in
      if st.St.occ.(heavy) + 4 <= capacity && st.St.occ.(light) + 4 <= capacity then begin
        match St.pieces_at st heavy with
        | [] -> ()
        | pieces ->
            let big = List.filter (fun p -> piece_size p >= delta) pieces in
            let piece =
              match big with
              | p :: rest ->
                  List.fold_left
                    (fun acc q -> if piece_size q < piece_size acc then q else acc)
                    p rest
              | [] ->
                  List.fold_left
                    (fun acc q -> if piece_size q > piece_size acc then q else acc)
                    (List.hd pieces) pieces
            in
            let target = min delta (piece_size piece) in
            if target > 0 then begin
              let sp = Sep.lemma2 st.St.ws (St.separator_piece piece) ~target in
              St.detach st ~vertex:heavy piece;
              Mv.apply_split st ~max_level:i ~floor_level:i sp ~dest1:heavy ~dest2:light
            end
      end
    end;
    let fill child =
      let continue_ = ref true in
      while !continue_ && st.St.occ.(child) < capacity do
        match St.pieces_at st child with
        | [] -> continue_ := false
        | (p : St.piece) :: _ ->
            St.detach st ~vertex:child p;
            let peel =
              match p.St.bounds with b :: _ -> b.St.bnode | [] -> List.hd p.St.nodes
            in
            St.lay st ~max_level:i ~node:peel ~vertex:child;
            let rest = List.filter (fun v -> v <> peel) p.St.nodes in
            Mv.reattach_to st ~vertex:child rest
      done
    in
    fill c0;
    fill c1
end

(* ------------------------------------------------------------------ *)
(* Driver (reference copy: sequential rounds, no cache, no trace)      *)
(* ------------------------------------------------------------------ *)

type result = {
  place : int array;
  height : int;
  capacity : int;
  fallbacks : int;
  wide_pieces : int;
}

let optimal_size ?(capacity = 16) r = capacity * (Xt_prelude.Bits.pow2 (r + 1) - 1)

let height_for ?(capacity = 16) n =
  if n <= 0 then invalid_arg "Theorem1_ref.height_for";
  let rec find r = if optimal_size ~capacity r >= n then r else find (r + 1) in
  find 0

let bfs_prefix tree k =
  let queue = Queue.create () in
  Queue.add (Bintree.root tree) queue;
  let taken = ref [] and count = ref 0 in
  while !count < k && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    taken := v :: !taken;
    incr count;
    List.iter (fun c -> Queue.add c queue) (Bintree.children tree v)
  done;
  List.rev !taken

let final_fill st =
  let height = st.St.height in
  let order = Xtree.order st.St.xt in
  for v = 0 to order - 1 do
    let rec drain () =
      match St.pieces_at st v with
      | [] -> ()
      | (p : St.piece) :: _ ->
          St.detach st ~vertex:v p;
          let member = Hashtbl.create (List.length p.nodes) in
          List.iter (fun w -> Hashtbl.replace member w ()) p.nodes;
          let queue = Queue.create () in
          let seen = Hashtbl.create 16 in
          let seed w =
            if not (Hashtbl.mem seen w) then begin
              Hashtbl.replace seen w ();
              Queue.add w queue
            end
          in
          (match p.bounds with
          | [] -> seed (List.hd p.nodes)
          | bs -> List.iter (fun b -> seed b.St.bnode) bs);
          while not (Queue.is_empty queue) do
            let w = Queue.pop queue in
            let hint = ref v in
            Bintree.iter_neighbours st.St.tree w (fun x ->
                if st.St.place.(x) >= 0 then hint := st.St.place.(x));
            St.lay st ~max_level:height ~node:w ~vertex:!hint;
            Bintree.iter_neighbours st.St.tree w (fun x ->
                if Hashtbl.mem member x && st.St.place.(x) < 0 then seed x)
          done;
          drain ()
    in
    drain ()
  done

let embed ?(capacity = 16) ?height ?(options = Options.default) tree =
  let n = Bintree.n tree in
  let height = match height with Some h -> h | None -> height_for ~capacity n in
  if optimal_size ~capacity height < n then
    invalid_arg "Theorem1_ref.embed: X-tree too small for this guest";
  let st = St.create ~tree ~height ~capacity in
  let d0 = bfs_prefix tree (min capacity n) in
  List.iter (fun node -> St.lay st ~max_level:0 ~node ~vertex:Xtree.root) d0;
  let rest = List.filter (fun v -> st.St.place.(v) < 0) (List.init n Fun.id) in
  Mv.reattach st ~floor_level:0 ~fallback:Xtree.root rest;
  for i = 1 to height do
    if options.Options.adjust then
      for j = 0 to i - 2 do
        List.iter
          (fun a -> Adj.run st ~round:i ~a)
          (Xtree.vertices_at_level st.St.xt j)
      done;
    let level_i = Array.of_list (Xtree.vertices_at_level st.St.xt i) in
    let outer_snap = Array.map (St.weight_of st) level_i in
    let outer_weight v = outer_snap.(Xtree.index v) in
    List.iter
      (fun alpha -> Spl.run ~options ~outer_weight st ~round:i ~alpha)
      (Xtree.vertices_at_level st.St.xt (i - 1))
  done;
  final_fill st;
  {
    place = Array.copy st.St.place;
    height;
    capacity;
    fallbacks = st.St.fallbacks;
    wide_pieces = st.St.wide_pieces;
  }
