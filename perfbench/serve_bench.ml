(* serve-hot: one closed-loop client replaying a shape stream through
   [Serve.in_process] in windows of 16 requests, each window followed
   by a flush. The pool budget is 1, so client plus server make two
   domains. 16 shapes at skew 1.0 against a cache warmed in set-up, so
   every request is a hit and parse, key, lookup/relabel and encode
   dominate. *)

open Xt_prelude
open Xt_bintree
open Xt_core
open Xt_embedding
open Xt_serve
open Common

let shapes = 16
let skew = 1.0
let window = 16
let round_len = 512  (* requests in one round; the round is replayed over and over *)

type setup = {
  pool : string array;
  index : (string, int) Hashtbl.t;
  expected : string array;  (** [Wire.encode_ok] of a direct uncached embed, per shape *)
  dilation_max : int;
  state : Theorem1.cache * int;
}

let response (r : Theorem1.result) =
  Wire.encode_ok
    {
      Wire.height = r.Theorem1.height;
      fallbacks = r.Theorem1.fallbacks;
      place = r.Theorem1.embedding.Embedding.place;
    }

let parse s = match Codec.of_string s with Ok t -> t | Error e -> failwith ("bad shape: " ^ e)

let setup ctx =
  let size = if ctx.smoke then 60 else 1008 in
  let pool = Loadgen.make_shapes ~seed:ctx.seed ~count:shapes ~size in
  let index = Hashtbl.create shapes in
  Array.iteri (fun i s -> Hashtbl.replace index s i) pool;
  let direct = Array.map (fun s -> Theorem1.embed (parse s)) pool in
  let expected = Array.map response direct in
  let dilation_max =
    Array.fold_left
      (fun a r -> max a (Embedding.dilation ~dist:(Theorem1.distance_oracle r) r.Theorem1.embedding))
      0 direct
  in
  let state = Serve.make_state Serve.default in
  Array.iter (fun s -> ignore (Theorem1.embed ~cache:(fst state) (parse s))) pool;
  { pool; index; expected; dilation_max; state }

(* The round: [round_len] shape indices drawn once from the seed. *)
let round_stream ctx s =
  let reqs = Loadgen.skewed_stream ~seed:(derive ctx.seed 1_000_000) ~shapes:s.pool ~requests:round_len ~skew in
  Array.of_list (List.map (Hashtbl.find s.index) reqs)

type session = {
  mutable rounds : int;
  mutable requests : int;
  mutable failed : int;
  mutable rates : float list;  (** requests per second of each round after the first *)
  mutable rtts : int array list;
  head : string array;  (** the first round's response payloads *)
}

(* Replay the round through one in-process server, round after round,
   until the budget is spent (at least two rounds) or [max_rounds]
   rounds are done. Checks every response against the direct embed.

   Every round sends the same requests to a cache that holds every
   shape, so every round after the first, the warm-up, does the same
   work, and their rates are samples of one quantity. *)
let serve s round ~budget ~max_rounds =
  let n = Array.length round in
  let sess = { rounds = 0; requests = 0; failed = 0; rates = []; rtts = []; head = Array.make n "" } in
  let requests = Array.to_list (Array.map (fun i -> s.pool.(i)) round) in
  let client chans =
    let start = now () in
    while sess.rounds < max_rounds && (sess.rounds < 2 || now () -. start < budget) do
      let warm_up = sess.rounds = 0 in
      let on_reply (r : Loadgen.reply) =
        let i = r.Loadgen.index in
        if warm_up then sess.head.(i) <- r.Loadgen.payload;
        if not (String.equal r.Loadgen.payload s.expected.(round.(i))) then sess.failed <- sess.failed + 1
      in
      let o = Loadgen.replay ~window ~on_reply ~requests chans in
      if not warm_up then sess.rates <- (float_of_int o.Loadgen.sent /. (float_of_int o.Loadgen.wall_ns /. 1e9)) :: sess.rates;
      sess.requests <- sess.requests + o.Loadgen.sent;
      sess.rtts <- o.Loadgen.rtt_ns :: sess.rtts;
      sess.rounds <- sess.rounds + 1
    done
  in
  let (), summary = Serve.in_process ~state:s.state client in
  if summary.Serve.errors > 0 then sess.failed <- sess.failed + summary.Serve.errors;
  sess

(* Requests per second: the median over rounds. A single window's time
   swings by a factor of two with the garbage collector's phase, which
   a round of 32 windows averages out; the median over rounds then
   shrugs off bursts of load from outside the process. *)
let rps sess = median (Array.of_list sess.rates)

(* {1 Layer replay}

   The traced run replays the stream call by call outside the server,
   through the layers one request crosses: frame read, Codec parse,
   canonical key, [Theorem1.embed ~cache] and [Wire.encode_ok], then
   the response frame write. Frames go through a real pipe pair. *)

let replay_layers ctx s round ~budget =
  let cache = fst s.state in
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let req_ic = Unix.in_channel_of_descr req_r and req_oc = Unix.out_channel_of_descr req_w in
  let resp_ic = Unix.in_channel_of_descr resp_r and resp_oc = Unix.out_channel_of_descr resp_w in
  List.iter (fun c -> set_binary_mode_in c true) [ req_ic; resp_ic ];
  List.iter (fun c -> set_binary_mode_out c true) [ req_oc; resp_oc ];
  let failed = ref 0 and requests = ref 0 and k = ref 0 in
  let one i =
    Wire.write_frame req_oc s.pool.(i);
    flush req_oc;
    let payload =
      match span ctx "serve.frame" (fun () -> Wire.read_frame req_ic) with
      | Some f -> f
      | None -> failwith "replay: unexpected EOF"
    in
    let tree = span ctx "serve.parse" (fun () -> parse payload) in
    ignore (span ctx "serve.key" (fun () -> Fingerprint.canonical_key tree));
    let r = span ctx "serve.lookup" (fun () -> Theorem1.embed ~cache tree) in
    let resp = span ctx "serve.encode" (fun () -> response r) in
    span ctx "serve.frame" (fun () ->
        Wire.write_frame resp_oc resp;
        flush resp_oc);
    (match Wire.read_frame resp_ic with
    | Some back when String.equal back s.expected.(i) -> ()
    | _ -> incr failed);
    incr requests
  in
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_in_noerr [ req_ic; resp_ic ];
      List.iter close_out_noerr [ req_oc; resp_oc ])
    (fun () ->
      while !k = 0 || now () -. start < budget do
        Array.iter one round;
        Xt_obs.Obs.reset_trace ();
        incr k
      done);
  (!requests, !failed)

let run ctx =
  Parallel.set_domain_budget 1;
  let s, setup_s = setup_median (fun () -> setup ctx) in
  let round = round_stream ctx s in
  let rtt_ms sess q =
    Stats.percentile q (Array.map (fun ns -> float_of_int ns /. 1e6) (Array.concat sess.rtts))
  in
  let sess, attempted, failed, metrics =
    if not ctx.traced then begin
      let sess = serve s round ~budget:ctx.seconds ~max_rounds:max_int in
      ( sess,
        sess.requests,
        sess.failed,
        [
          ("setup_s", setup_s);
          ("work_per_s", rps sess);
          ("peak_rss_mb", peak_rss_mb ());
          ("dilation_max", float_of_int s.dilation_max);
        ] )
    end
    else begin
      (* Untraced, then as many rounds traced (their per-request time
         ratio is the tracing overhead), then the layer replay. *)
      let third = ctx.seconds /. 3.0 in
      let plain = serve s round ~budget:third ~max_rounds:max_int in
      let cache = fst s.state in
      start_tracing ();
      let c0 = Theorem1.cache_stats cache in
      let sess = serve s round ~budget:infinity ~max_rounds:plain.rounds in
      let c1 = Theorem1.cache_stats cache in
      let d = Xt_obs.Obs.snapshot () in
      Xt_obs.Obs.reset_trace ();
      let replayed, replay_failed = replay_layers ctx s round ~budget:third in
      stop_tracing ();
      let per_req name = ratio (float_of_int (total name).ns /. 1e3) (float_of_int replayed) in
      let hits = c1.Cache.hits - c0.Cache.hits and misses = c1.Cache.misses - c0.Cache.misses in
      let layer_us =
        per_req "serve.frame" +. per_req "serve.parse" +. per_req "serve.key" +. per_req "serve.lookup"
        +. per_req "serve.encode"
      in
      ( sess,
        plain.requests + sess.requests + replayed,
        plain.failed + sess.failed + replay_failed,
        [
          ("serve.parse_us", mean_us "serve.parse");
          ("serve.key_us", mean_us "serve.key");
          ("serve.lookup_us", mean_us "serve.lookup");
          ("serve.encode_us", mean_us "serve.encode");
          ("serve.frame_us", per_req "serve.frame");
          ( "serve.unique_per_batch",
            ratio (float_of_int (counter d "serve.unique_shapes")) (float_of_int (counter d "serve.batches")) );
          ("serve.layer_coverage", layer_us /. 1e6 *. rps plain);
          ("cache.hit_ratio", ratio (float_of_int hits) (float_of_int (hits + misses)));
          ("cache.lookups_per_request", ratio (float_of_int (hits + misses)) (float_of_int sess.requests));
          ("obs.trace_overhead", ratio (rps plain) (rps sess));
        ] )
    end
  in
  let samples = Array.length (Array.concat sess.rtts) in
  {
    budget = 1;
    attempted;
    failed;
    metrics;
    named =
      [
        ("serve_rps", rps sess, "req/s");
        ("serve_rtt_p50_ms", rtt_ms sess 50.0, "ms");
        ("serve_rtt_p99_ms", rtt_ms sess 99.0, "ms");
        ("serve_rtt_samples", float_of_int samples, "count");
      ];
    digest = digest (Array.to_list sess.head);
  }
