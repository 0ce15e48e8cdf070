open Xt_obs
open Xt_prelude
open Xt_topology
open Xt_bintree
open Xt_embedding

let c_rounds = Obs.counter "theorem1.rounds"

type trace = {
  rounds : int array array;
  spreads : (int * int) array array;
}

type result = {
  embedding : Embedding.t;
  xt : Xtree.t;
  height : int;
  capacity : int;
  fallbacks : int;
  wide_pieces : int;
  trace : trace option;
}

let optimal_size ?(capacity = 16) r = capacity * (Bits.pow2 (r + 1) - 1)

let height_for ?(capacity = 16) n =
  if n <= 0 then invalid_arg "Theorem1.height_for";
  let rec find r = if optimal_size ~capacity r >= n then r else find (r + 1) in
  find 0

(* First [k] nodes of the guest in BFS order from its root: a connected
   set whose complement's components each hang by a single edge. *)
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

let snapshot st ~height =
  let row = Array.make (max height 1) 0 in
  for j = 0 to height - 1 do
    let best = ref 0 in
    List.iter
      (fun a ->
        let d =
          abs
            (State.weight_of st (Xtree.child a 0) - State.weight_of st (Xtree.child a 1))
        in
        if d > !best then best := d)
      (Xtree.vertices_at_level st.State.xt j);
    row.(j) <- !best
  done;
  row

(* nl(j,i) / nh(j,i) of the paper: the per-level extremes of the number
   of guest nodes associated to one X-subtree. *)
let snapshot_spread st ~height =
  let row = Array.make (height + 1) (0, 0) in
  for j = 0 to height do
    let lo = ref max_int and hi = ref 0 in
    List.iter
      (fun a ->
        let w = State.weight_of st a in
        if w < !lo then lo := w;
        if w > !hi then hi := w)
      (Xtree.vertices_at_level st.State.xt j);
    row.(j) <- ((if !lo = max_int then 0 else !lo), !hi)
  done;
  row

(* Place every node still living in a piece: breadth-first from the
   piece's boundary nodes, each node next to an already-placed tree
   neighbour (State.lay diverts to the nearest free slot if needed). *)
let final_fill st =
  let height = st.State.height in
  let order = Xtree.order st.State.xt in
  for v = 0 to order - 1 do
    let rec drain () =
      match State.pieces_at st v with
      | [] -> ()
      | (p : State.piece) :: _ ->
          State.detach st ~vertex:v p;
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
          | bs -> List.iter (fun b -> seed b.State.bnode) bs);
          while not (Queue.is_empty queue) do
            let w = Queue.pop queue in
            let hint = ref v in
            Bintree.iter_neighbours st.State.tree w (fun x ->
                if st.State.place.(x) >= 0 then hint := st.State.place.(x));
            State.lay st ~max_level:height ~node:w ~vertex:!hint;
            Bintree.iter_neighbours st.State.tree w (fun x ->
                if Hashtbl.mem member x && st.State.place.(x) < 0 then seed x)
          done;
          drain ()
    in
    drain ()
  done

let embed_uncached ?(capacity = 16) ?height ?(record_trace = false) ?(options = Options.default)
    tree =
  let n = Bintree.n tree in
  let height = match height with Some h -> h | None -> height_for ~capacity n in
  if optimal_size ~capacity height < n then
    invalid_arg "Theorem1.embed: X-tree too small for this guest";
  let st = State.create ~tree ~height ~capacity in
  (* Round 0: the initial subtree D0 at the root. *)
  let d0 = bfs_prefix tree (min capacity n) in
  List.iter (fun node -> State.lay st ~max_level:0 ~node ~vertex:Xtree.root) d0;
  let rest = List.filter (fun v -> st.State.place.(v) < 0) (List.init n Fun.id) in
  Moves.reattach st ~floor_level:0 ~fallback:Xtree.root rest;
  (* Rounds 1..r. *)
  let rows = ref [] and spread_rows = ref [] in
  Obs.span ~arg:n "theorem1.embed" (fun () ->
      for i = 1 to height do
        Obs.span ~arg:i "theorem1.round" @@ fun () ->
        Obs.incr c_rounds;
        if options.Options.adjust then
          for j = 0 to i - 2 do
            Obs.span ~arg:j "theorem1.adjust-sweep" @@ fun () ->
            List.iter (fun a -> Adjust.run st ~round:i ~a) (Xtree.vertices_at_level st.State.xt j)
          done;
        (* Snapshot the level-i weights once: every SPLIT of the sweep breaks
           orientation ties against the same pre-sweep outer weights. *)
        let level_i = Array.of_list (Xtree.vertices_at_level st.State.xt i) in
        let outer_snap = Array.map (State.weight_of st) level_i in
        let outer_weight v = outer_snap.(Xtree.index v) in
        (Obs.span ~arg:(i - 1) "theorem1.split-sweep" @@ fun () ->
         List.iter
           (fun alpha -> Split.run ~options ~outer_weight st ~round:i ~alpha)
           (Xtree.vertices_at_level st.State.xt (i - 1)));
        if record_trace then begin
          rows := snapshot st ~height :: !rows;
          spread_rows := snapshot_spread st ~height :: !spread_rows
        end
      done;
      Obs.span "theorem1.final-fill" (fun () -> final_fill st));
  let embedding = Embedding.make ~tree ~host:(Xtree.graph st.State.xt) ~place:st.State.place in
  {
    embedding;
    xt = st.State.xt;
    height;
    capacity;
    fallbacks = st.State.fallbacks;
    wide_pieces = st.State.wide_pieces;
    trace =
      (if record_trace then
         Some
           {
             rounds = Array.of_list (List.rev !rows);
             spreads = Array.of_list (List.rev !spread_rows);
           }
       else None);
  }

(* ------------------------------------------------------------------ *)
(* Canonical-shape cache                                               *)
(* ------------------------------------------------------------------ *)

(* Everything of a result except the embedding and the trace is shared
   verbatim between the hits of one entry; the host [Xtree.t] in
   particular amortises its graph (and its memoised BFS rows) across all
   trees of the shape. *)
type cache_meta = {
  m_xt : Xtree.t;
  m_height : int;
  m_fallbacks : int;
  m_wide : int;
}

type cache = cache_meta Shape_memo.t

let make_cache ?shards ?capacity ?max_bytes () = Shape_memo.create ?shards ?capacity ?max_bytes ()

let cache_length = Shape_memo.length
let cache_stats = Shape_memo.stats

(* Snapshot meta codec: the host [Xtree.t] is fully determined by its
   height, so only the three integers travel; reloads rebuild the host
   once per distinct height and share it across entries, exactly as the
   live cache shares it across hits. *)
let encode_cache_meta m = Printf.sprintf "%d %d %d" m.m_height m.m_fallbacks m.m_wide

let make_cache_meta_decoder () =
  let hosts = Hashtbl.create 4 in
  fun s ->
    match Scanf.sscanf s " %d %d %d %!" (fun h f w -> (h, f, w)) with
    | exception _ -> None
    | h, f, w when h >= 0 && f >= 0 && w >= 0 ->
        let xt =
          match Hashtbl.find_opt hosts h with
          | Some xt -> xt
          | None ->
              let xt = Xtree.create ~height:h in
              Hashtbl.add hosts h xt;
              xt
        in
        Some { m_xt = xt; m_height = h; m_fallbacks = f; m_wide = w }
    | _ -> None

let cache_save cache ~file = Shape_memo.save cache ~encode_meta:encode_cache_meta ~file

let cache_load cache ~file =
  Shape_memo.load cache ~decode_meta:(make_cache_meta_decoder ()) ~file

let flag b = if b then 't' else 'f'

let cache_prefix ~name ~capacity ~height (options : Options.t) =
  Printf.sprintf "%s|c=%d|h=%d|o=%c%c%c" name capacity height (flag options.adjust)
    (flag options.pairing) (flag options.balance_split)

let embed ?capacity ?height ?record_trace ?options ?cache tree =
  match cache with
  | Some memo when record_trace <> Some true ->
      let cap = Option.value capacity ~default:16 in
      let opts = Option.value options ~default:Options.default in
      let h =
        match height with Some h -> h | None -> height_for ~capacity:cap (Bintree.n tree)
      in
      let prefix = cache_prefix ~name:"t1" ~capacity:cap ~height:h opts in
      let place, m =
        Shape_memo.memo memo ~prefix ~tree ~compute:(fun () ->
            let r = embed_uncached ~capacity:cap ~height:h ~options:opts tree in
            ( r.embedding.Embedding.place,
              { m_xt = r.xt; m_height = r.height; m_fallbacks = r.fallbacks; m_wide = r.wide_pieces }
            ))
      in
      {
        embedding = Embedding.make ~tree ~host:(Xtree.graph m.m_xt) ~place;
        xt = m.m_xt;
        height = m.m_height;
        capacity = cap;
        fallbacks = m.m_fallbacks;
        wide_pieces = m.m_wide;
        trace = None;
      }
  | _ -> embed_uncached ?capacity ?height ?record_trace ?options tree

let distance_oracle result = Xtree.distance result.xt
