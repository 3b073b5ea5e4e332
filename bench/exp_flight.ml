(* E41: flight-recorder overhead and fidelity.

   Three claims about the daemon's observability layer, each measured
   rather than assumed:

   1. Overhead. The E39 estimation workload (cold estimate requests over
      a real Unix-domain socket, each a tripped symbolic budget followed
      by a fixed-budget Monte Carlo campaign) runs interleaved
      (disabled, enabled, disabled) rounds of the full recorder:
      Telemetry histograms per request plus one access-log line. The two
      disabled batches are an A/A noise floor; the enabled batch pays
      the whole per-request recording path. Budget: < 2% on the minimum
      of reps, judged against the A/A spread — a failure must clear the
      noise floor by at least the budget, so an overhead the noise
      swallows (or shadows to within it) is a pass. Every request uses a fresh seed with a
      pinned cycle budget, so each round does the same deterministic
      simulation work and never hits the estimate cache.

   2. Quantile fidelity. [Hdr]'s log-bucketed quantiles are compared
      against exact sorted-sample quantiles of the same draw at
      p50/p90/p99/p999; the worst relative error must respect the
      documented [Hdr.max_relative_error] bound (integer-valued samples,
      so unit rounding contributes nothing).

   3. Correlation. One slow request (ping with a worker-pinning sleep,
      explicit rid) is issued among ordinary traffic against a server
      with an access log and a slow-request threshold; after drain, the
      same rid must locate the request in the access log (with its
      service time) and as a ["server.slow_request"] instant in the
      trace — the one-id-finds-everything contract. The log itself is
      checked for well-formedness: every line parses as JSON, rids are
      unique, and the line count ties out to the requests served. *)

open Hlp_util

type flight_result = {
  fl_reqs_per_batch : int;
  fl_reps : int;
  fl_disabled_a_s : float array;
  fl_enabled_s : float array;
  fl_disabled_b_s : float array;
  fl_disabled_spread_pct : float;
  fl_enabled_overhead_pct : float;
  fl_quantile_worst_rel_err : float;
  fl_quantile_bound : float;
  fl_log_lines : int;
  fl_requests_served : int;
  fl_rids_unique : bool;
  fl_slow_in_log : bool;
  fl_slow_in_trace : bool;
}

let time f =
  let t0 = Clock.now_s () in
  let r = f () in
  (r, Clock.now_s () -. t0)

(* in-process daemon on a private socket, flight recorder configured;
   joins (graceful drain) before returning so the access log is complete
   and closed when the caller reads it *)
let with_server ?access_log ?slow_s f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hlpower_e41_%d.sock" (Unix.getpid ()))
  in
  let token = Guard.token ~name:"bench_e41" () in
  let ready = Atomic.make false in
  let service = Hlp_power.Service.create () in
  let srv =
    Domain.spawn (fun () ->
        Hlp_util.Server.serve ?access_log ?slow_s ~token
          ~on_ready:(fun () -> Atomic.set ready true)
          ~path
          (Hlp_power.Service.handle service))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.001
  done;
  Fun.protect
    ~finally:(fun () ->
      Guard.cancel token;
      Domain.join srv)
    (fun () -> f path)

let parse_ok raw =
  match Hlp_power.Service.parse_response raw with
  | Ok r -> r
  | Error e -> failwith ("E41: bad response: " ^ e)

(* --- 1. recorder overhead on the E39 cold-estimate workload --- *)

(* monotonically fresh seeds: every request is a distinct cache key, so
   each batch repeats the same cold-path work *)
let seed_counter = ref 1000

let fresh_seed () =
  incr seed_counter;
  !seed_counter

let overhead ?(reqs_per_batch = 3) ?(reps = 5) ~access_log () =
  with_server ~access_log (fun path ->
      let conn = Hlp_util.Server.connect path in
      Fun.protect
        ~finally:(fun () -> Hlp_util.Server.close conn)
      @@ fun () ->
      (* fixed cycle budget + unreachable precision: the Monte Carlo
         campaign always runs the whole budget, so per-request work is
         seed-independent (the E36 trick) *)
      let batch () =
        for i = 1 to reqs_per_batch do
          let r =
            parse_ok
              (Hlp_util.Server.request conn
                 (Hlp_power.Service.estimate_request ~id:i
                    ~engine:"bitparallel" ~seed:(fresh_seed ())
                    ~relative_precision:1e-9 ~max_cycles:100_000
                    ~node_limit:60 ~circuit:"multiplier" ~width:8 ()))
          in
          if not r.Hlp_power.Service.ok then
            failwith "E41: estimate request failed";
          if r.Hlp_power.Service.cached then
            failwith "E41: overhead request unexpectedly hit the cache"
        done
      in
      Telemetry.disable ();
      batch ();
      (* warm-up: netlist construction, kernel plan *)
      let timed () = snd (time batch) in
      let disabled_a_s = Array.make reps 0.0 in
      let enabled_s = Array.make reps 0.0 in
      let disabled_b_s = Array.make reps 0.0 in
      for i = 0 to reps - 1 do
        Telemetry.disable ();
        disabled_a_s.(i) <- timed ();
        Telemetry.enable ();
        enabled_s.(i) <- timed ();
        Telemetry.disable ();
        disabled_b_s.(i) <- timed ()
      done;
      Telemetry.disable ();
      Telemetry.reset ();
      (disabled_a_s, enabled_s, disabled_b_s))

(* --- 2. Hdr quantiles vs exact sorted-sample quantiles --- *)

let quantile_fidelity () =
  let rng = Prng.create 4242 in
  let n = 20_000 in
  (* integer-valued, spread over ~5 decades: only the bucketing error is
     in play, never the unit-rounding of fractional values *)
  let samples =
    Array.init n (fun _ ->
        let magnitude = 1 + Prng.int rng 5 in
        let base = int_of_float (10.0 ** float_of_int magnitude) in
        float_of_int (base + Prng.int rng (9 * base)))
  in
  let h = Hdr.create () in
  Array.iter (Hdr.record h) samples;
  let snap = Hdr.snapshot h in
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let exact q =
    let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    sorted.(rank - 1)
  in
  let worst =
    List.fold_left
      (fun acc q ->
        let e = exact q and a = Hdr.quantile snap q in
        max acc (abs_float (a -. e) /. e))
      0.0
      [ 0.50; 0.90; 0.99; 0.999 ]
  in
  if worst > Hdr.max_relative_error then
    failwith
      (Printf.sprintf
         "E41: histogram quantile error %.4f exceeds the documented %.4f \
          bound"
         worst Hdr.max_relative_error);
  worst

(* --- 3. rid correlation: access log + trace, one id --- *)

let slow_rid = "e41-slow"

let correlation ~access_log () =
  let trace_was_on = Trace.enabled () in
  if not trace_was_on then Trace.enable ();
  Telemetry.enable ();
  let requests_served =
    with_server ~access_log ~slow_s:0.02 (fun path ->
        let conn = Hlp_util.Server.connect path in
        Fun.protect
          ~finally:(fun () -> Hlp_util.Server.close conn)
        @@ fun () ->
        let ask payload =
          let r = parse_ok (Hlp_util.Server.request conn payload) in
          if not r.Hlp_power.Service.ok then failwith "E41: request failed"
        in
        (* ordinary traffic around the slow request: pings plus a
           miss/hit estimate pair, so the log records every cache
           outcome class *)
        for i = 1 to 5 do
          ask
            (Hlp_power.Service.ping_request ~id:i
               ~rid:(Printf.sprintf "e41-req-%d" i) ())
        done;
        let est ~id =
          Hlp_power.Service.estimate_request ~id
            ~rid:(Printf.sprintf "e41-est-%d" id) ~engine:"bitparallel"
            ~seed:7 ~relative_precision:0.05 ~node_limit:60
            ~circuit:"adder" ~width:8 ()
        in
        ask (est ~id:6);
        ask (est ~id:7);
        (* same key: a hit *)
        ask
          (Hlp_power.Service.ping_request ~id:8 ~rid:slow_rid ~sleep_s:0.05 ());
        8)
  in
  (* drained: the log is complete and closed *)
  let lines =
    let ic = open_in access_log in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  let parsed =
    List.map
      (fun line ->
        match Json.parse line with
        | Ok v -> v
        | Error e -> failwith ("E41: unparseable access-log line: " ^ e))
      lines
  in
  let rid_of v =
    match Option.bind (Json.member "rid" v) Json.to_str_opt with
    | Some r -> r
    | None -> failwith "E41: access-log line without a rid"
  in
  let rids = List.map rid_of parsed in
  let fl_rids_unique =
    List.length rids = List.length (List.sort_uniq compare rids)
  in
  let fl_slow_in_log =
    List.exists
      (fun v ->
        rid_of v = slow_rid
        && Option.bind (Json.member "op" v) Json.to_str_opt = Some "ping"
        &&
        match Option.bind (Json.member "service_s" v) Json.to_float_opt with
        | Some s -> s >= 0.05
        | None -> false)
      parsed
  in
  let fl_slow_in_trace =
    match Json.member "traceEvents" (Trace.json_value ()) with
    | Some (Json.List events) ->
        List.exists
          (fun e ->
            Json.member "name" e |> fun n ->
            Option.bind n Json.to_str_opt = Some "server.slow_request"
            && Option.bind (Json.member "args" e) (Json.member "rid")
               |> fun r -> Option.bind r Json.to_str_opt = Some slow_rid)
          events
    | _ -> false
  in
  Telemetry.disable ();
  Telemetry.reset ();
  if not trace_was_on then (
    Trace.disable ();
    Trace.reset ());
  (List.length lines, requests_served, fl_rids_unique, fl_slow_in_log,
   fl_slow_in_trace)

let e41_flight ?(reqs_per_batch = 3) ?(reps = 5) ?(assert_overhead = false) ()
    =
  Trace.span "bench.e41_flight" @@ fun () ->
  let fl_quantile_worst_rel_err = quantile_fidelity () in
  let log1 = Filename.temp_file "hlpower_e41_oh" ".log" in
  let log2 = Filename.temp_file "hlpower_e41_corr" ".log" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ log1; log1 ^ ".1"; log2; log2 ^ ".1" ])
  @@ fun () ->
  let disabled_a_s, enabled_s, disabled_b_s =
    overhead ~reqs_per_batch ~reps ~access_log:log1 ()
  in
  let minimum a = Array.fold_left min a.(0) a in
  let da = minimum disabled_a_s and db = minimum disabled_b_s in
  let d = min da db in
  let fl_disabled_spread_pct = abs_float (db -. da) /. da *. 100.0 in
  let fl_enabled_overhead_pct = (minimum enabled_s -. d) /. d *. 100.0 in
  let ( fl_log_lines, fl_requests_served, fl_rids_unique, fl_slow_in_log,
        fl_slow_in_trace ) =
    correlation ~access_log:log2 ()
  in
  let r =
    {
      fl_reqs_per_batch = reqs_per_batch;
      fl_reps = reps;
      fl_disabled_a_s = disabled_a_s;
      fl_enabled_s = enabled_s;
      fl_disabled_b_s = disabled_b_s;
      fl_disabled_spread_pct;
      fl_enabled_overhead_pct;
      fl_quantile_worst_rel_err;
      fl_quantile_bound = Hdr.max_relative_error;
      fl_log_lines;
      fl_requests_served;
      fl_rids_unique;
      fl_slow_in_log;
      fl_slow_in_trace;
    }
  in
  Printf.printf
    "E41: flight recorder (cold estimates over unix socket, %d req/batch, \
     best of %d):\n"
    reqs_per_batch reps;
  Printf.printf "  disabled A/A spread:  %.2f%% (measurement noise floor)\n"
    r.fl_disabled_spread_pct;
  Printf.printf
    "  recorder enabled:     %.2f%% (histograms + access log, budget < 2%%)\n"
    r.fl_enabled_overhead_pct;
  Printf.printf
    "  quantile fidelity:    worst relative error %.5f (bound %.5f)\n"
    r.fl_quantile_worst_rel_err r.fl_quantile_bound;
  Printf.printf
    "  access log: %d line(s) for %d request(s), rids unique: %s\n"
    r.fl_log_lines r.fl_requests_served
    (if r.fl_rids_unique then "yes" else "NO");
  Printf.printf "  slow request by rid: in log %s, in trace %s\n"
    (if r.fl_slow_in_log then "yes" else "NO")
    (if r.fl_slow_in_trace then "yes" else "NO");
  if r.fl_log_lines <> r.fl_requests_served then
    failwith "E41: access-log line count does not tie out to requests served";
  if not r.fl_rids_unique then failwith "E41: duplicate rids in access log";
  if not r.fl_slow_in_log then
    failwith "E41: slow request not found in access log by rid";
  if not r.fl_slow_in_trace then
    failwith "E41: slow request not found in trace by rid";
  (* over budget only counts when it rises above the machine's own A/A
     noise floor by at least the budget itself — an overhead the noise
     floor swallows (or shadows to within the budget) passes *)
  if
    assert_overhead
    && r.fl_enabled_overhead_pct >= 2.0
    && r.fl_enabled_overhead_pct > r.fl_disabled_spread_pct +. 2.0
  then failwith "E41: flight-recorder overhead above the 2% budget";
  print_newline ();
  r

let floats a = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) a))

let json_obj r =
  let open Json in
  Obj
    [ ("experiment", Str "E41 flight-recorder overhead and fidelity");
      ( "workload",
        Str
          "cold estimate requests over unix socket, pinned Monte Carlo \
           budget" );
      ("reqs_per_batch", Int r.fl_reqs_per_batch);
      ("reps", Int r.fl_reps);
      ("disabled_a_s", floats r.fl_disabled_a_s);
      ("enabled_s", floats r.fl_enabled_s);
      ("disabled_b_s", floats r.fl_disabled_b_s);
      (* A/A comparison of two identical disabled batches: the recorder's
         off-switch cost is below this noise floor *)
      ("disabled_spread_pct", Float r.fl_disabled_spread_pct);
      ("enabled_overhead_pct", Float r.fl_enabled_overhead_pct);
      ("budget_pct", Float 2.0);
      ( "within_budget",
        Bool
          (r.fl_enabled_overhead_pct < 2.0
          || r.fl_enabled_overhead_pct <= r.fl_disabled_spread_pct +. 2.0)
      );
      ("quantile_worst_rel_err", Float r.fl_quantile_worst_rel_err);
      ("quantile_bound", Float r.fl_quantile_bound);
      ("access_log_lines", Int r.fl_log_lines);
      ("requests_served", Int r.fl_requests_served);
      ("rids_unique", Bool r.fl_rids_unique);
      ("slow_request_in_log", Bool r.fl_slow_in_log);
      ("slow_request_in_trace", Bool r.fl_slow_in_trace) ]
