(* Embedding-as-a-service (ISSUE 10): wire framing, the Shape_memo
   snapshot codec, and the serve loop's bit-identity with direct
   Theorem1.embed calls — the equivalence suite the snapshot and serve
   paths are held to. *)

open Xt_prelude
open Xt_bintree
open Xt_embedding
open Xt_core
open Xt_serve

let place (r : Theorem1.result) = r.Theorem1.embedding.Embedding.place

let roundtrip tree =
  match Codec.of_string (Codec.to_string tree) with
  | Ok t -> t
  | Error msg -> Alcotest.failf "roundtrip: %s" msg

let tmp_snapshot () = Filename.temp_file "xtsm_test" ".snap"

(* ---------------- wire ---------------- *)

let test_wire_frames () =
  let file = Filename.temp_file "wire_test" ".bin" in
  let payloads = [ "hello"; ""; String.make 1000 'x'; "(()())" ] in
  Out_channel.with_open_bin file (fun oc ->
      List.iter (Wire.write_frame oc) payloads;
      Wire.write_flush oc);
  In_channel.with_open_bin file (fun ic ->
      List.iter
        (fun want ->
          match Wire.read_frame ic with
          | Some got -> Alcotest.(check string) "frame round-trips" want got
          | None -> Alcotest.fail "premature EOF")
        (payloads @ [ "" ]);
      Alcotest.(check bool) "clean EOF" true (Wire.read_frame ic = None));
  (* Torn payload: a frame announcing more bytes than the stream holds. *)
  Out_channel.with_open_bin file (fun oc ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 99l;
      output_bytes oc hdr;
      output_string oc "short");
  In_channel.with_open_bin file (fun ic ->
      Alcotest.check_raises "EOF inside frame" (Wire.Protocol "EOF inside frame")
        (fun () -> ignore (Wire.read_frame ic)));
  Sys.remove file

let wire_response_prop =
  QCheck2.Test.make ~count:200 ~name:"wire: response payload round-trips"
    QCheck2.Gen.(
      triple (int_bound 30) (int_bound 1000) (array_size (int_bound 200) (int_bound 10000)))
    (fun (height, fallbacks, plc) ->
      let r = { Wire.height; fallbacks; place = plc } in
      match Wire.decode_response (Wire.encode_ok r) with
      | Ok r' ->
          r'.Wire.height = height && r'.Wire.fallbacks = fallbacks && r'.Wire.place = plc
      | Error _ -> false)

let test_wire_error_response () =
  let p = Wire.encode_error "no parse" in
  Alcotest.(check bool) "status peek" true (Wire.is_error p);
  match Wire.decode_response p with
  | Error msg -> Alcotest.(check string) "message carried" "no parse" msg
  | Ok _ -> Alcotest.fail "error payload decoded as success"

(* ---------------- snapshot codec ---------------- *)

let snapshot_roundtrip_prop =
  QCheck2.Test.make ~count:25 ~name:"snapshot: reload serves bit-identical placements"
    QCheck2.Gen.(list_size (int_range 1 8) (pair (int_range 1 140) (int_bound 1000)))
    (fun specs ->
      let trees =
        List.map (fun (n, seed) -> roundtrip (Gen.uniform (Rng.make ~seed) n)) specs
      in
      let c1 = Theorem1.make_cache () in
      let direct = List.map (fun t -> place (Theorem1.embed ~capacity:8 ~cache:c1 t)) trees in
      let file = tmp_snapshot () in
      let saved = Theorem1.cache_save c1 ~file in
      let c2 = Theorem1.make_cache () in
      let loaded = Theorem1.cache_load c2 ~file in
      Sys.remove file;
      (match loaded with
      | Ok n ->
          if n <> saved then
            QCheck2.Test.fail_reportf "loaded %d entries of %d saved" n saved
      | Error msg -> QCheck2.Test.fail_reportf "load failed: %s" msg);
      let again = List.map (fun t -> place (Theorem1.embed ~capacity:8 ~cache:c2 t)) trees in
      let st = Theorem1.cache_stats c2 in
      if st.Cache.misses <> 0 then
        QCheck2.Test.fail_reportf "%d misses after a full reload" st.Cache.misses;
      List.for_all2 (fun a b -> a = b) direct again)

(* Corrupt a saved snapshot every way the codec guards against; each
   attempt must reject atomically, leaving the target cache empty. *)
let test_snapshot_rejection () =
  let c = Theorem1.make_cache () in
  List.iter
    (fun seed -> ignore (Theorem1.embed ~capacity:8 ~cache:c (Gen.uniform (Rng.make ~seed) 60)))
    [ 1; 2; 3 ];
  let file = tmp_snapshot () in
  ignore (Theorem1.cache_save c ~file);
  let bytes = In_channel.with_open_bin file In_channel.input_all in
  let try_load mutated what expect_substring =
    Out_channel.with_open_bin file (fun oc -> output_string oc mutated);
    let fresh = Theorem1.make_cache () in
    (match Theorem1.cache_load fresh ~file with
    | Ok n -> Alcotest.failf "%s: load accepted %d entries" what n
    | Error msg ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: error mentions %S (got %S)" what expect_substring msg)
          true (contains msg expect_substring));
    Alcotest.(check int) (what ^ ": nothing inserted") 0 (Theorem1.cache_length fresh)
  in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    Bytes.to_string b
  in
  try_load (flip bytes 0) "bad magic" "magic";
  try_load (flip bytes 4) "wrong version" "version";
  try_load (String.sub bytes 0 (String.length bytes / 2)) "truncated file" "truncated";
  try_load (flip bytes (String.length bytes - 20)) "corrupted entry" "checksum";
  try_load (bytes ^ "tail") "trailing bytes" "trailing";
  Sys.remove file;
  let missing = Theorem1.make_cache () in
  (match Theorem1.cache_load missing ~file with
  | Ok _ -> Alcotest.fail "missing file: load accepted"
  | Error _ -> ());
  Alcotest.(check int) "missing file: nothing inserted" 0 (Theorem1.cache_length missing)

(* ---------------- the serve loop ---------------- *)

let collect_replies () =
  let acc = ref [] in
  let on_reply (r : Loadgen.reply) = acc := r :: !acc in
  (on_reply, fun () -> List.rev !acc)

(* Every response must be byte-for-byte what a direct Theorem1.embed
   returns for that request — the acceptance criterion of ISSUE 10. *)
let test_serve_equivalence () =
  let pool = Loadgen.make_shapes ~seed:11 ~count:5 ~size:90 in
  let stream = Loadgen.skewed_stream ~seed:11 ~shapes:pool ~requests:30 ~skew:1.2 in
  let on_reply, replies = collect_replies () in
  let config = { Serve.default with capacity = 8 } in
  let outcome, summary =
    Serve.in_process ~config (fun ch ->
        Loadgen.replay ~window:7 ~on_reply ~requests:stream ch)
  in
  Alcotest.(check int) "all requests answered" 30 outcome.Loadgen.sent;
  Alcotest.(check int) "server counted them" 30 summary.Serve.requests;
  Alcotest.(check int) "no errors" 0 summary.Serve.errors;
  List.iter
    (fun (r : Loadgen.reply) ->
      let resp =
        match Wire.decode_response r.Loadgen.payload with
        | Ok resp -> resp
        | Error msg -> Alcotest.failf "request %d got error: %s" r.Loadgen.index msg
      in
      let tree =
        match Codec.of_string r.Loadgen.request with
        | Ok t -> t
        | Error msg -> Alcotest.failf "unparsable request: %s" msg
      in
      let direct = Theorem1.embed ~capacity:8 tree in
      Alcotest.(check int) "height matches direct embed" direct.Theorem1.height
        resp.Wire.height;
      Alcotest.(check int) "fallbacks match direct embed" direct.Theorem1.fallbacks
        resp.Wire.fallbacks;
      Alcotest.(check bool) "placement bit-identical to direct embed" true
        (place direct = resp.Wire.place))
    (replies ())

let test_serve_error_reply () =
  let stream = [ Codec.to_string (Gen.complete 15); "(()"; Codec.to_string (Gen.path 7) ] in
  let on_reply, replies = collect_replies () in
  let outcome, summary =
    Serve.in_process (fun ch -> Loadgen.replay ~window:2 ~on_reply ~requests:stream ch)
  in
  Alcotest.(check int) "client saw one error" 1 outcome.Loadgen.errors;
  Alcotest.(check int) "server counted one error" 1 summary.Serve.errors;
  match List.map (fun (r : Loadgen.reply) -> Wire.decode_response r.Loadgen.payload) (replies ()) with
  | [ Ok _; Error msg; Ok _ ] ->
      Alcotest.(check bool) "error message non-empty" true (String.length msg > 0)
  | _ -> Alcotest.fail "expected ok/error/ok replies in order"

(* A restarted server with a snapshot answers from the restored cache:
   zero misses, and responses byte-identical to the first session's. *)
let test_serve_snapshot_warm_restart () =
  let file = tmp_snapshot () in
  Sys.remove file;
  let config = { Serve.default with capacity = 8; snapshot = Some file } in
  let pool = Loadgen.make_shapes ~seed:23 ~count:4 ~size:70 in
  let stream = Loadgen.skewed_stream ~seed:23 ~shapes:pool ~requests:20 ~skew:1.0 in
  let session () =
    let on_reply, replies = collect_replies () in
    let _, summary =
      Serve.in_process ~config (fun ch ->
          Loadgen.replay ~window:6 ~on_reply ~requests:stream ch)
    in
    (summary, List.map (fun (r : Loadgen.reply) -> r.Loadgen.payload) (replies ()))
  in
  let s1, replies1 = session () in
  Alcotest.(check int) "first session starts cold" 0 s1.Serve.loaded;
  Alcotest.(check int) "first session snapshots every shape" 4 s1.Serve.saved;
  let s2, replies2 = session () in
  Alcotest.(check int) "restart restores every shape" 4 s2.Serve.loaded;
  Alcotest.(check int) "restart never misses" 0 s2.Serve.stats.Cache.misses;
  Alcotest.(check bool) "responses byte-identical across restart" true
    (replies1 = replies2);
  Sys.remove file

(* A socket client that sends a batch and closes without reading must
   cost only its own connection: the server survives the broken pipe,
   serves the next client bit-identically, and writes its snapshot. *)
let test_serve_client_hangup () =
  let path = Filename.temp_file "xtree_serve" ".sock" in
  let snap = tmp_snapshot () in
  Sys.remove snap;
  let config = { Serve.default with snapshot = Some snap } in
  let server = Domain.spawn (fun () -> Serve.listen ~config ~max_conns:2 ~path ()) in
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.01;
        connect (tries - 1)
  in
  let shapes = Loadgen.make_shapes ~seed:31 ~count:8 ~size:1008 in
  (* Client 1: 256 requests whose responses overrun the socket buffer. *)
  let oc1 = Unix.out_channel_of_descr (connect 500) in
  Loadgen.write_requests oc1 (List.init 256 (fun i -> shapes.(i mod Array.length shapes)));
  Wire.write_flush oc1;
  close_out oc1;
  (* Client 2 must be served as if nothing happened. *)
  let fd2 = connect 500 in
  let ic2 = Unix.in_channel_of_descr fd2 and oc2 = Unix.out_channel_of_descr fd2 in
  let requests = Array.to_list (Array.sub shapes 0 4) in
  let on_reply, replies = collect_replies () in
  ignore (Loadgen.replay ~window:4 ~on_reply ~requests (ic2, oc2));
  close_out oc2;
  Domain.join server;
  List.iter
    (fun (r : Loadgen.reply) ->
      let tree = Result.get_ok (Codec.of_string r.Loadgen.request) in
      let d = Theorem1.embed tree in
      let want =
        Wire.encode_ok
          { Wire.height = d.Theorem1.height; fallbacks = d.Theorem1.fallbacks; place = place d }
      in
      Alcotest.(check bool)
        (Printf.sprintf "request %d byte-equal to a direct embed" r.Loadgen.index)
        true (r.Loadgen.payload = want))
    (replies ());
  Alcotest.(check int) "client 2 answered" 4 (List.length (replies ()));
  (match Theorem1.cache_load (Theorem1.make_cache ()) ~file:snap with
  | Ok n -> Alcotest.(check int) "snapshot holds every shape" (Array.length shapes) n
  | Error msg -> Alcotest.failf "snapshot does not load: %s" msg);
  Sys.remove snap

let suite =
  [
    Alcotest.test_case "wire frames round-trip" `Quick test_wire_frames;
    Alcotest.test_case "wire error response" `Quick test_wire_error_response;
    Alcotest.test_case "snapshot rejection is atomic" `Quick test_snapshot_rejection;
    Alcotest.test_case "serve responses = direct embeds" `Quick test_serve_equivalence;
    Alcotest.test_case "serve reports request errors" `Quick test_serve_error_reply;
    Alcotest.test_case "snapshot-warm restart" `Quick test_serve_snapshot_warm_restart;
    Alcotest.test_case "socket client hang-up mid-batch" `Quick test_serve_client_hangup;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ wire_response_prop; snapshot_roundtrip_prop ]
