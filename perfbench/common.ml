(* Shared machinery of the benchmark: the run context, the benchmark's
   own spans, span self times from the Obs event log, statistics, peak
   RSS, and the outcome every workload returns. *)

open Xt_obs

type ctx = {
  workload : string;
  seed : int;
  seconds : float;  (** measuring budget of the run *)
  traced : bool;
  smoke : bool;  (** shrunken sizes, for the benchmark's own test only *)
}

let now () = Unix.gettimeofday ()

(* Deterministic per-use seeds derived from the run seed. *)
let derive seed salt = Hashtbl.seeded_hash seed salt land 0x3fffffff

(* {1 Spans}

   In a traced run every call the benchmark times into a layer goes
   through [span]: it records an Obs span (so the Chrome trace shows the
   benchmark's layer boundaries around the program's own spans) and adds
   the duration to an in-memory total per name. In an untraced run it is
   a direct call. *)

type total = { mutable ns : int; mutable calls : int }

let totals : (string, total) Hashtbl.t = Hashtbl.create 32

let total name =
  match Hashtbl.find_opt totals name with
  | Some t -> t
  | None ->
      let t = { ns = 0; calls = 0 } in
      Hashtbl.add totals name t;
      t

let add_ns name ns =
  let t = total name in
  t.ns <- t.ns + ns;
  t.calls <- t.calls + 1

let span ctx name f =
  if not ctx.traced then f ()
  else begin
    let t0 = Obs.now_ns () in
    let r = Obs.span name f in
    add_ns name (Obs.now_ns () - t0);
    r
  end

(* Mean duration per call of a span, in ms (0 when never called). *)
let mean_ms name =
  match Hashtbl.find_opt totals name with
  | Some t when t.calls > 0 -> float_of_int t.ns /. float_of_int t.calls /. 1e6
  | _ -> 0.0

let mean_us name = 1000.0 *. mean_ms name

(* {1 Self times of the program's spans}

   A span's self time is its duration minus the time its direct child
   spans on the same domain track cover. [harvest_self] folds the
   current Obs event log into per-name self-time totals and clears the
   log, so long traced runs keep a bounded event buffer. Call it only
   between operations, when no span is open. *)

let self_ns : (string, int ref) Hashtbl.t = Hashtbl.create 32

let harvest_self () =
  let stacks : (int, (string * int * int ref) list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  List.iter
    (fun (e : Obs.event) ->
      let s = stack e.Obs.ev_tid in
      match e.Obs.ev_ph with
      | 'B' -> s := (e.Obs.ev_name, e.Obs.ev_ts, ref 0) :: !s
      | 'E' -> (
          match !s with
          | (name, t0, children) :: rest ->
              let dur = e.Obs.ev_ts - t0 in
              (match Hashtbl.find_opt self_ns name with
              | Some r -> r := !r + (dur - !children)
              | None -> Hashtbl.add self_ns name (ref (dur - !children)));
              (match rest with (_, _, parent) :: _ -> parent := !parent + dur | [] -> ());
              s := rest
          | [] -> ())
      | _ -> ())
    (Obs.events ());
  Obs.reset_trace ()

let self_ms name = match Hashtbl.find_opt self_ns name with Some r -> float_of_int !r /. 1e6 | None -> 0.0

(* Turn Obs metrics and tracing on, from a clean slate. *)
let start_tracing () =
  Obs.reset_metrics ();
  Obs.reset_trace ();
  Obs.enable_metrics ();
  Obs.enable_tracing ()

let stop_tracing () =
  Obs.disable_tracing ();
  Obs.disable_metrics ()

let counter (d : Obs.dump) name = try List.assoc name d.Obs.counters with Not_found -> 0

let histogram_sum (d : Obs.dump) name =
  match List.find_opt (fun (h : Obs.histogram_row) -> h.Obs.h_name = name) d.Obs.histograms with
  | Some h -> h.Obs.sum
  | None -> 0

(* {1 Statistics} *)

(* Nearest-rank median of a non-empty sample. *)
let median xs = Xt_prelude.Stats.percentile 50.0 xs

(* Ops that come in rounds repeat the same work per kind (a guest, a
   simulator case). Other load on the machine only ever slows an op
   down, so each kind's fastest instance in the run is its least
   disturbed time; [kind_best] returns those, one per kind. *)
let kind_best kind value ops =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun o ->
      let k = kind o and v = value o in
      match Hashtbl.find_opt tbl k with
      | Some best when best <= v -> ()
      | _ -> Hashtbl.replace tbl k v)
    ops;
  Array.of_seq (Hashtbl.to_seq_values tbl)

let sum_floats = Array.fold_left ( +. ) 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set of this process, in MB, from the kernel's
   high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"
      in
      scan ())

(* [setup_median f] runs the set-up at least 5 times, and again while
   less than a second has gone by, up to 25 times. It returns the last
   result together with the median set-up time in seconds, so one slow
   repetition does not move the reported figure, and a set-up of a few
   tens of ms is repeated often enough to give a steady median. *)
let setup_median f =
  let times = ref [] and last = ref None and start = now () in
  while List.length !times < 5 || (List.length !times < 25 && now () -. start < 1.0) do
    let t0 = now () in
    last := Some (f ());
    times := (now () -. t0) :: !times
  done;
  (Option.get !last, median (Array.of_list !times))

(* Digest of a sequence of strings, hex. *)
let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let place_bytes (place : int array) =
  let b = Buffer.create (4 * Array.length place) in
  Array.iter (fun v -> Buffer.add_int32_be b (Int32.of_int v)) place;
  Buffer.contents b

(* {1 Results} *)

type outcome = {
  budget : int;  (** domain budget the workload ran at *)
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** gated metrics, by BENCHMARK.json name *)
  named : (string * float * string) list;
      (** the workload's own end-to-end figures under their own names, with units *)
  digest : string;  (** output digest, for bit-identity across commits *)
}
