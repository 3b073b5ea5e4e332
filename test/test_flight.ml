(* The flight recorder: Hdr histogram laws (bucketing, merge algebra,
   quantile error bound vs exact sorted samples), Telemetry histogram
   gating, Journal.Lines rotation, and the server-side access log /
   request-id correlation through a live server+service pair. *)

open Hlp_util
open Hlp_power

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

let with_trace f =
  Trace.disable ();
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

(* --- Hdr histogram --- *)

let test_hdr_basics () =
  let h = Hdr.create () in
  Alcotest.(check int) "empty count" 0 (Hdr.count h);
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Hdr.quantile (Hdr.snapshot h) 0.5));
  List.iter (Hdr.record h) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Hdr.record h Float.nan;
  Hdr.record h Float.infinity;
  (* non-finite ignored *)
  Hdr.record h (-7.0);
  (* negative clamps to zero *)
  let s = Hdr.snapshot h in
  Alcotest.(check int) "count" 6 s.Hdr.total;
  Alcotest.(check (float 1e-9)) "min" 0.0 s.Hdr.minv;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Hdr.maxv;
  Alcotest.(check (float 1e-9)) "sum" 15.0 s.Hdr.sum;
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Hdr.mean s);
  (* values below [sub_buckets] land in exact unit buckets *)
  Alcotest.(check (float 1e-9)) "p50 exact below 32" 2.0
    (Hdr.quantile s 0.50);
  Alcotest.(check (float 1e-9)) "p100 exact below 32" 5.0 (Hdr.quantile s 1.0);
  Hdr.clear h;
  Alcotest.(check int) "cleared" 0 (Hdr.count h);
  (match Hdr.quantile s 0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q = 0 accepted");
  match Hdr.quantile s 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q > 1 accepted"

let test_hdr_bucket_bounds () =
  (* buckets tile [0, inf) contiguously with monotone bounds *)
  let prev_high = ref 0.0 in
  for i = 0 to 1500 do
    let low, high = Hdr.bucket_bounds i in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "bucket %d starts where %d ended" i (i - 1))
      !prev_high low;
    Alcotest.(check bool)
      (Printf.sprintf "bucket %d nonempty" i)
      true (high > low);
    prev_high := high
  done;
  (* width/low never exceeds twice the advertised relative error *)
  for i = 32 to 1500 do
    let low, high = Hdr.bucket_bounds i in
    Alcotest.(check bool)
      (Printf.sprintf "bucket %d relative width" i)
      true
      ((high -. low) /. low <= (2.0 *. Hdr.max_relative_error) +. 1e-12)
  done

let test_hdr_merge_identity () =
  let h = Hdr.create () in
  List.iter (Hdr.record h) [ 3.0; 900.0; 1.0e6 ];
  let s = Hdr.snapshot h in
  let m = Hdr.merge Hdr.empty s in
  Alcotest.(check int) "total" s.Hdr.total m.Hdr.total;
  Alcotest.(check (float 1e-9)) "sum" s.Hdr.sum m.Hdr.sum;
  Alcotest.(check (float 1e-9)) "min" s.Hdr.minv m.Hdr.minv;
  Alcotest.(check (float 1e-9)) "max" s.Hdr.maxv m.Hdr.maxv;
  Alcotest.(check bool) "counts" true (m.Hdr.counts = s.Hdr.counts)

(* structural snapshot equality with nan-tolerant float compare *)
let snap_equal a b =
  let feq x y = (Float.is_nan x && Float.is_nan y) || x = y in
  a.Hdr.counts = b.Hdr.counts
  && a.Hdr.total = b.Hdr.total
  && feq a.Hdr.sum b.Hdr.sum
  && feq a.Hdr.minv b.Hdr.minv
  && feq a.Hdr.maxv b.Hdr.maxv

let snapshot_of_list vs =
  let h = Hdr.create () in
  List.iter (fun v -> Hdr.record h (float_of_int v)) vs;
  Hdr.snapshot h

let qcheck_merge_associative_commutative =
  QCheck.Test.make
    ~name:"histogram merge is associative, commutative, with empty identity"
    ~count:100
    QCheck.(
      triple
        (small_list (int_bound 2_000_000))
        (small_list (int_bound 2_000_000))
        (small_list (int_bound 2_000_000)))
    (fun (xs, ys, zs) ->
      let a = snapshot_of_list xs
      and b = snapshot_of_list ys
      and c = snapshot_of_list zs in
      snap_equal (Hdr.merge a (Hdr.merge b c)) (Hdr.merge (Hdr.merge a b) c)
      && snap_equal (Hdr.merge a b) (Hdr.merge b a)
      && snap_equal (Hdr.merge a Hdr.empty) a
      (* merging is the same as recording the concatenated sample *)
      && snap_equal (Hdr.merge a b) (snapshot_of_list (xs @ ys)))

let qcheck_quantile_relative_error_bound =
  QCheck.Test.make
    ~name:"histogram quantiles within max_relative_error of exact quantiles"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 500) (int_range 1 50_000_000))
    (fun vs ->
      let snap = snapshot_of_list vs in
      let sorted = Array.of_list (List.map float_of_int vs) in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      List.for_all
        (fun q ->
          let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
          let exact = sorted.(rank - 1) in
          let approx = Hdr.quantile snap q in
          abs_float (approx -. exact)
          <= (Hdr.max_relative_error *. exact) +. 1e-9)
        [ 0.5; 0.9; 0.99; 0.999; 1.0 ])

(* --- Telemetry histograms --- *)

let test_telemetry_histogram_gating () =
  with_telemetry @@ fun () ->
  let hg = Telemetry.histogram "test.flight.latency" in
  Telemetry.disable ();
  Telemetry.record hg 5.0;
  Alcotest.(check int) "disabled records nothing" 0 (Telemetry.hist_count hg);
  Telemetry.enable ();
  Telemetry.record hg 100.0;
  Telemetry.record hg 200.0;
  Alcotest.(check int) "enabled records" 2 (Telemetry.hist_count hg);
  Alcotest.(check bool) "same name, same histogram" true
    (Telemetry.hist_count (Telemetry.histogram "test.flight.latency") = 2);
  (* the report payload carries quantiles per histogram *)
  let v = Telemetry.json_value () in
  let h =
    Option.bind (Json.member "histograms" v)
      (Json.member "test.flight.latency")
  in
  (match h with
  | None -> Alcotest.fail "histogram missing from telemetry json"
  | Some h ->
      Alcotest.(check (option int)) "count in json" (Some 2)
        (Option.bind (Json.member "count" h) Json.to_int_opt);
      Alcotest.(check bool) "p99 present" true
        (Option.bind (Json.member "p99" h) Json.to_float_opt <> None));
  Telemetry.reset ();
  Alcotest.(check int) "reset clears" 0 (Telemetry.hist_count hg)

(* --- Journal.Lines rotation --- *)

let test_lines_rotation_bound () =
  let path = Filename.temp_file "hlp_lines" ".log" in
  let rotated = path ^ ".1" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; rotated ])
  @@ fun () ->
  let max_bytes = 256 in
  let t = Journal.Lines.open_ ~max_bytes path in
  let record i = Printf.sprintf "{\"seq\":%d,\"pad\":\"%s\"}" i (String.make 20 'x') in
  for i = 0 to 99 do
    Journal.Lines.append t (record i)
  done;
  (match Journal.Lines.append t "embedded\nnewline" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "embedded newline accepted");
  Journal.Lines.close t;
  (match Journal.Lines.append t "after close" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "append after close accepted");
  let size p = (Unix.stat p).Unix.st_size in
  Alcotest.(check bool) "live file within bound" true (size path <= max_bytes);
  Alcotest.(check bool) "rotation happened" true (Sys.file_exists rotated);
  Alcotest.(check bool) "rotated file within bound" true
    (size rotated <= max_bytes);
  (* the surviving suffix is contiguous, line-parseable, and ends at 99 *)
  let lines p =
    let ic = open_in p in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  let seqs =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok v -> (
            match Option.bind (Json.member "seq" v) Json.to_int_opt with
            | Some s -> s
            | None -> Alcotest.failf "line without seq: %s" l)
        | Error e -> Alcotest.failf "unparseable line %s: %s" l e)
      (lines rotated @ lines path)
  in
  (match List.rev seqs with
  | last :: _ -> Alcotest.(check int) "last record survived" 99 last
  | [] -> Alcotest.fail "no surviving records");
  let rec contiguous = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check int) "contiguous sequence" (a + 1) b;
        contiguous rest
    | _ -> ()
  in
  contiguous seqs;
  (* reopening continues where the file left off, no truncation *)
  let t2 = Journal.Lines.open_ ~max_bytes path in
  let before = size path in
  Journal.Lines.append t2 "{\"seq\":100}";
  Journal.Lines.close t2;
  Alcotest.(check bool) "reopen appends" true (size path > before);
  match Journal.Lines.open_ ~max_bytes:0 path with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive max_bytes accepted"

(* --- live server: access log, rid correlation, metrics --- *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s/hlp_flight_test_%d_%d.sock"
      (Filename.get_temp_dir_name ()) (Unix.getpid ()) !n

let with_server ?access_log ?slow_s f =
  let path = fresh_socket () in
  let token = Guard.token ~name:"test_flight" () in
  let ready = Atomic.make false in
  let service = Service.create () in
  let srv =
    Domain.spawn (fun () ->
        Server.serve ?access_log ?slow_s ~token
          ~on_ready:(fun () -> Atomic.set ready true)
          ~path (Service.handle service))
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Alcotest.(check bool) "server came up" true (Atomic.get ready);
  Fun.protect
    ~finally:(fun () ->
      Guard.cancel token;
      Domain.join srv)
    (fun () -> f path)

let parse_ok what raw =
  match Service.parse_response raw with
  | Error e -> Alcotest.failf "%s: bad response %s: %s" what raw e
  | Ok r -> r

let read_log path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  List.map
    (fun l ->
      match Json.parse l with
      | Ok v -> v
      | Error e -> Alcotest.failf "unparseable access-log line %s: %s" l e)
    (go [])

let str_field name v =
  match Option.bind (Json.member name v) Json.to_str_opt with
  | Some s -> s
  | None -> Alcotest.failf "access-log line missing %s" name

let test_access_log_and_rid_echo () =
  with_telemetry @@ fun () ->
  let log = Filename.temp_file "hlp_access" ".log" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ log; log ^ ".1" ])
  @@ fun () ->
  let sent = ref 0 in
  with_server ~access_log:log (fun path ->
      let conn = Server.connect path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
      @@ fun () ->
      let ask what payload =
        incr sent;
        parse_ok what (Server.request conn payload)
      in
      (* caller rid echoed in the envelope *)
      let r = ask "ping" (Service.ping_request ~id:1 ~rid:"flight-ping" ()) in
      Alcotest.(check string) "rid echoed" "flight-ping"
        r.Service.rid;
      (* builder-stamped rids carry the client prefix *)
      let r2 = ask "ping2" (Service.ping_request ~id:2 ()) in
      Alcotest.(check bool) "client rid stamped" true
        (String.length r2.Service.rid > 0 && r2.Service.rid.[0] = 'c');
      (* no rid at all: the transport stamps a server-side fallback *)
      let r3 = ask "bare" "{\"id\":3,\"op\":\"ping\"}" in
      Alcotest.(check bool) "server fallback rid" true
        (String.length r3.Service.rid > 0 && r3.Service.rid.[0] = 's');
      (* a miss/hit estimate pair: both cache outcomes on the record *)
      let est id =
        Service.estimate_request ~id
          ~rid:(Printf.sprintf "flight-est-%d" id)
          ~circuit:"adder" ~width:6 ~seed:3 ()
      in
      let m = ask "estimate miss" (est 4) in
      Alcotest.(check bool) "first estimate uncached" false m.Service.cached;
      let h = ask "estimate hit" (est 5) in
      Alcotest.(check bool) "second estimate cached" true h.Service.cached;
      (* an error still logs, with its typed class *)
      let e =
        ask "unknown circuit"
          (Service.estimate_request ~id:6 ~rid:"flight-bad"
             ~circuit:"nonesuch" ~width:4 ())
      in
      Alcotest.(check bool) "error response" false e.Service.ok;
      Alcotest.(check string) "error rid echoed" "flight-bad" e.Service.rid);
  (* drained: read the whole log back *)
  let lines = read_log log in
  Alcotest.(check int) "one line per request" !sent (List.length lines);
  let rids = List.map (str_field "rid") lines in
  Alcotest.(check int) "rids unique" (List.length rids)
    (List.length (List.sort_uniq compare rids));
  Alcotest.(check bool) "caller rid in log" true
    (List.mem "flight-ping" rids);
  let by_rid r =
    List.find_opt (fun v -> str_field "rid" v = r) lines
  in
  (match by_rid "flight-est-4" with
  | Some v ->
      Alcotest.(check string) "miss outcome" "miss" (str_field "cache" v);
      Alcotest.(check string) "op" "estimate" (str_field "op" v);
      Alcotest.(check bool) "key recorded" true (str_field "key" v <> "");
      Alcotest.(check string) "ok status" "ok" (str_field "status" v)
  | None -> Alcotest.fail "miss line not found");
  (match by_rid "flight-est-5" with
  | Some v ->
      Alcotest.(check string) "hit outcome" "hit" (str_field "cache" v);
      (* identical request, identical fingerprint key *)
      Alcotest.(check bool) "hit and miss share the key" true
        (Option.map (str_field "key") (by_rid "flight-est-4")
        = Some (str_field "key" v))
  | None -> Alcotest.fail "hit line not found");
  (match by_rid "flight-bad" with
  | Some v ->
      Alcotest.(check string) "typed error class as status" "invalid-input"
        (str_field "status" v)
  | None -> Alcotest.fail "error line not found");
  List.iter
    (fun v ->
      let num name =
        match Option.bind (Json.member name v) Json.to_float_opt with
        | Some x -> x
        | None -> Alcotest.failf "line missing %s" name
      in
      Alcotest.(check bool) "service_s nonnegative" true (num "service_s" >= 0.0);
      Alcotest.(check bool) "queue_s nonnegative" true (num "queue_s" >= 0.0);
      Alcotest.(check bool) "bytes_in positive" true (num "bytes_in" > 0.0);
      Alcotest.(check bool) "bytes_out positive" true (num "bytes_out" > 0.0))
    lines

let test_slow_request_correlated () =
  with_telemetry @@ fun () ->
  with_trace @@ fun () ->
  let log = Filename.temp_file "hlp_slow" ".log" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ log; log ^ ".1" ])
  @@ fun () ->
  with_server ~access_log:log ~slow_s:0.02 (fun path ->
      let conn = Server.connect path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
      @@ fun () ->
      let fast =
        parse_ok "fast" (Server.request conn (Service.ping_request ~id:1 ()))
      in
      Alcotest.(check bool) "fast ok" true fast.Service.ok;
      let slow =
        parse_ok "slow"
          (Server.request conn
             (Service.ping_request ~id:2 ~rid:"slow-rid" ~sleep_s:0.05 ()))
      in
      Alcotest.(check bool) "slow ok" true slow.Service.ok);
  Alcotest.(check bool) "slow counter bumped" true
    (Telemetry.count (Telemetry.counter "server.slow_requests") >= 1);
  (* the same rid in the log... *)
  let slow_line =
    List.find_opt
      (fun v -> str_field "rid" v = "slow-rid")
      (read_log log)
  in
  (match slow_line with
  | Some v ->
      let s =
        Option.value ~default:0.0
          (Option.bind (Json.member "service_s" v) Json.to_float_opt)
      in
      Alcotest.(check bool) "service time covers the sleep" true (s >= 0.05)
  | None -> Alcotest.fail "slow request not in access log");
  (* ...and in the trace, as a slow-request instant *)
  let found =
    match Json.member "traceEvents" (Trace.json_value ()) with
    | Some (Json.List events) ->
        List.exists
          (fun e ->
            Option.bind (Json.member "name" e) Json.to_str_opt
            = Some "server.slow_request"
            && Option.bind (Json.member "args" e) (fun a ->
                   Option.bind (Json.member "rid" a) Json.to_str_opt)
               = Some "slow-rid")
          events
    | _ -> false
  in
  Alcotest.(check bool) "slow instant carries the rid" true found

let test_metrics_op_and_stats_alias () =
  with_telemetry @@ fun () ->
  with_server (fun path ->
      let conn = Server.connect path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
      @@ fun () ->
      (* traffic first, so the snapshot has something to show *)
      let est id =
        Service.estimate_request ~id ~circuit:"adder" ~width:6 ~seed:9 ()
      in
      ignore (parse_ok "miss" (Server.request conn (est 1)));
      ignore (parse_ok "hit" (Server.request conn (est 2)));
      let m =
        parse_ok "metrics"
          (Server.request conn (Service.metrics_request ~id:3 ()))
      in
      Alcotest.(check bool) "metrics ok" true m.Service.ok;
      let mv = Option.get m.Service.result in
      let get name = Json.member name mv in
      Alcotest.(check bool) "uptime present" true
        (Option.bind (get "uptime_s") Json.to_float_opt <> None);
      Alcotest.(check bool) "telemetry flag" true
        (get "telemetry_enabled" = Some (Json.Bool true));
      (* per-op service histogram observed the estimate requests *)
      (match Option.bind (get "histograms") (Json.member "server.op.estimate.service_ns") with
      | Some h ->
          Alcotest.(check bool) "estimate observations" true
            (match Option.bind (Json.member "count" h) Json.to_int_opt with
            | Some c -> c >= 2
            | None -> false);
          Alcotest.(check bool) "p50 present" true
            (Option.bind (Json.member "p50" h) Json.to_float_opt <> None)
      | None -> Alcotest.fail "per-op histogram missing from metrics");
      (* cache occupancy objects with hit ratios *)
      (match Option.bind (get "caches") (Json.member "server.estimates") with
      | Some c ->
          Alcotest.(check (option int)) "estimate hits" (Some 1)
            (Option.bind (Json.member "hits" c) Json.to_int_opt);
          Alcotest.(check (option int)) "estimate misses" (Some 1)
            (Option.bind (Json.member "misses" c) Json.to_int_opt);
          Alcotest.(check (option (float 1e-9))) "hit ratio" (Some 0.5)
            (Option.bind (Json.member "hit_ratio" c) Json.to_float_opt)
      | None -> Alcotest.fail "estimate cache missing from metrics");
      (* stats stays a thin alias: its fields agree with metrics *)
      let s =
        parse_ok "stats" (Server.request conn (Service.stats_request ~id:4 ()))
      in
      let sv = Option.get s.Service.result in
      List.iter
        (fun field ->
          Alcotest.(check bool) (field ^ " present in stats") true
            (Json.member field sv <> None);
          Alcotest.(check bool)
            (field ^ " agrees between stats and metrics")
            true
            (Json.member field sv = Json.member field mv))
        [ "netlists"; "symbolic"; "models"; "estimates"; "estimates_inflight";
          "kernel_plans" ];
      (* prometheus rendering of the same snapshot *)
      let prom = Service.prometheus_of_metrics mv in
      let contains needle =
        let nl = String.length needle and hl = String.length prom in
        let rec go i =
          i + nl <= hl && (String.sub prom i nl = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("prometheus has " ^ needle) true
            (contains needle))
        [ "hlpower_uptime_seconds";
          "# TYPE hlpower_server_requests counter";
          "hlpower_cache_hits{cache=\"server.estimates\"} 1";
          "hlpower_server_op_estimate_service_ns_bucket{le=\"+Inf\"}";
          "hlpower_server_op_estimate_service_ns_count" ])

let suite =
  [ Alcotest.test_case "hdr basics" `Quick test_hdr_basics;
    Alcotest.test_case "hdr bucket bounds" `Quick test_hdr_bucket_bounds;
    Alcotest.test_case "hdr merge identity" `Quick test_hdr_merge_identity;
    QCheck_alcotest.to_alcotest qcheck_merge_associative_commutative;
    QCheck_alcotest.to_alcotest qcheck_quantile_relative_error_bound;
    Alcotest.test_case "telemetry histogram gating" `Quick
      test_telemetry_histogram_gating;
    Alcotest.test_case "lines rotation bound" `Quick test_lines_rotation_bound;
    Alcotest.test_case "access log and rid echo" `Quick
      test_access_log_and_rid_echo;
    Alcotest.test_case "slow request correlated" `Quick
      test_slow_request_correlated;
    Alcotest.test_case "metrics op and stats alias" `Quick
      test_metrics_op_and_stats_alias ]
