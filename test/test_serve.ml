(* The estimation daemon, exercised in-process: frame codec identities
   and corruption walls, cold/warm byte-identity through a live
   server+service pair, deterministic overload shedding, handler
   exception containment, and graceful drain via token cancellation. *)

open Hlp_util
open Hlp_power

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s/hlp_serve_test_%d_%d.sock" (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !n

(* --- frame codec --- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payloads =
        [ ""; "x"; "{\"op\":\"ping\"}"; String.make 70_000 'q';
          "\x00\xff binary \x01" ]
      in
      List.iter (fun p -> Server.write_frame a p) payloads;
      List.iter
        (fun p ->
          match Server.read_frame b with
          | Some got ->
              Alcotest.(check int) "length" (String.length p) (String.length got);
              Alcotest.(check bool) "payload bytes" true (String.equal p got)
          | None -> Alcotest.fail "eof before all frames read")
        payloads;
      Unix.close a;
      Alcotest.(check bool) "clean eof after close" true
        (Server.read_frame b = None))

let test_frame_corruption () =
  (* flip one payload byte after the CRC was computed: loud Invalid_input,
     not a silently different payload *)
  with_socketpair (fun a b ->
      let payload = "{\"id\":1,\"op\":\"ping\"}" in
      let buf = Buffer.create 64 in
      Buffer.add_string buf (String.make 4 '\x00');
      let frame = Bytes.create (8 + String.length payload) in
      Bytes.set_int32_le frame 0 (Int32.of_int (String.length payload));
      Bytes.set_int32_le frame 4 (Journal.crc32 payload);
      Bytes.blit_string payload 0 frame 8 (String.length payload);
      Bytes.set frame 10 (Char.chr (Char.code (Bytes.get frame 10) lxor 0x40));
      let n = Unix.write a frame 0 (Bytes.length frame) in
      Alcotest.(check int) "frame written whole" (Bytes.length frame) n;
      (match Server.read_frame b with
      | exception Err.Error (Err.Invalid_input _) -> ()
      | exception e ->
          Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | Some _ -> Alcotest.fail "corrupted frame accepted"
      | None -> Alcotest.fail "corrupted frame read as eof");
      ignore buf)

let test_frame_oversized_and_torn () =
  with_socketpair (fun a b ->
      (* a length header over the cap is rejected before allocation *)
      let hdr = Bytes.create 8 in
      Bytes.set_int32_le hdr 0 (Int32.of_int (Server.max_frame_bytes + 1));
      Bytes.set_int32_le hdr 4 0l;
      ignore (Unix.write a hdr 0 8);
      (match Server.read_frame b with
      | exception Err.Error (Err.Invalid_input _) -> ()
      | _ -> Alcotest.fail "oversized length accepted"));
  with_socketpair (fun a b ->
      (* peer dying mid-frame is Invalid_input, not a clean eof *)
      let payload = "abcdef" in
      let frame = Bytes.create (8 + String.length payload) in
      Bytes.set_int32_le frame 0 (Int32.of_int (String.length payload));
      Bytes.set_int32_le frame 4 (Journal.crc32 payload);
      Bytes.blit_string payload 0 frame 8 (String.length payload);
      ignore (Unix.write a frame 0 10);
      Unix.close a;
      match Server.read_frame b with
      | exception Err.Error (Err.Invalid_input _) -> ()
      | Some _ -> Alcotest.fail "torn frame accepted"
      | None -> Alcotest.fail "torn frame read as clean eof")

(* One frame's exact bytes, from both writers of the format: the socket
   codec (every request and response) and the journal (WAL records and
   snapshots). A change to the layout or the checksum fails here. *)
let test_frame_golden_bytes () =
  let payload = {|{"id":1,"op":"ping"}|} in
  let golden = "\x14\x00\x00\x00\xac\x3f\x7a\x3a" ^ payload in
  Alcotest.(check string) "journal record" golden (Journal.frame payload);
  with_socketpair (fun a b ->
      Server.write_frame a payload;
      let got = Bytes.create (String.length golden) in
      let rec fill off =
        if off < Bytes.length got then
          fill (off + Unix.read b got off (Bytes.length got - off))
      in
      fill 0;
      Alcotest.(check string) "socket frame" golden (Bytes.to_string got))

let test_oversized_write_rejected () =
  with_socketpair (fun a _b ->
      match Server.write_frame a (String.make (Server.max_frame_bytes + 1) 'z')
      with
      | exception Err.Error (Err.Invalid_input _) -> ()
      | () -> Alcotest.fail "oversized payload written")

(* --- live server harness --- *)

(* Start a server on its own domain, run [f], then cancel the token and
   join: every test also exercises graceful drain on the way out. *)
let with_server ?max_inflight ?queue_budget ?(handler : Server.handler option)
    f =
  let path = fresh_socket () in
  let token = Guard.token ~name:"test_serve" () in
  let ready = Atomic.make false in
  let service = Service.create () in
  let handler =
    match handler with Some h -> h | None -> Service.handle service
  in
  let srv =
    Domain.spawn (fun () ->
        Server.serve ?max_inflight
          ?knobs:
            (Option.map
               (fun queue_budget ->
                 Atomic.make { Server.default_knobs with Server.queue_budget })
               queue_budget)
          ~token
          ~on_ready:(fun () -> Atomic.set ready true)
          ~path handler)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Alcotest.(check bool) "server came up" true (Atomic.get ready);
  Fun.protect
    ~finally:(fun () ->
      Guard.cancel token;
      Domain.join srv;
      Alcotest.(check bool) "socket unlinked after drain" false
        (Sys.file_exists path))
    (fun () -> f path service)

let parse_ok what raw =
  match Service.parse_response raw with
  | Error e -> Alcotest.failf "%s: bad response %s: %s" what raw e
  | Ok r -> r

let test_cold_warm_byte_identity () =
  with_server (fun path _service ->
      let conn = Server.connect path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
        (fun () ->
          let req id =
            Service.estimate_request ~id ~engine:"bitparallel" ~seed:11
              ~relative_precision:0.1 ~circuit:"adder" ~width:6 ()
          in
          let cold = parse_ok "cold" (Server.request conn (req 1)) in
          let warm = parse_ok "warm" (Server.request conn (req 2)) in
          Alcotest.(check bool) "cold ok" true cold.Service.ok;
          Alcotest.(check bool) "warm ok" true warm.Service.ok;
          Alcotest.(check bool) "cold is a miss" false cold.Service.cached;
          Alcotest.(check bool) "warm is a hit" true warm.Service.cached;
          Alcotest.(check int) "ids echoed" 2 warm.Service.id;
          match
            (Service.result_string cold, Service.result_string warm)
          with
          | Some c, Some w ->
              Alcotest.(check string) "warm result byte-identical" c w
          | _ -> Alcotest.fail "result missing from an ok response"))

let test_distinct_keys_not_conflated () =
  with_server (fun path _service ->
      let conn = Server.connect path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
        (fun () ->
          let ask seed =
            parse_ok "estimate"
              (Server.request conn
                 (Service.estimate_request ~seed ~relative_precision:0.2
                    ~circuit:"parity" ~width:5 ()))
          in
          let a = ask 3 and b = ask 4 in
          Alcotest.(check bool) "different seed is a different key" false
            (b.Service.cached);
          Alcotest.(check bool) "both succeeded" true
            (a.Service.ok && b.Service.ok)))

let test_error_envelopes () =
  with_server (fun path _service ->
      let conn = Server.connect path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
        (fun () ->
          let checks =
            [ ("not json at all", "]]junk[[", "invalid-input");
              ("unknown op", {|{"id":7,"op":"divine"}|}, "invalid-input");
              ( "unknown circuit",
                {|{"id":8,"op":"estimate","circuit":"warp","width":4}|},
                "invalid-input" );
              ( "bad width",
                {|{"id":9,"op":"estimate","circuit":"adder","width":-2}|},
                "invalid-input" );
              ("nesting too deep", String.make 100_000 '[', "invalid-input") ]
          in
          List.iter
            (fun (what, req, cls) ->
              let r = parse_ok what (Server.request conn req) in
              Alcotest.(check bool) (what ^ ": not ok") false r.Service.ok;
              match r.Service.error with
              | Some (c, _msg, code) ->
                  Alcotest.(check string) (what ^ ": class") cls c;
                  Alcotest.(check int) (what ^ ": exit code") 65 code
              | None -> Alcotest.failf "%s: error field missing" what)
            checks;
          (* the connection survived every bad request *)
          let pong = parse_ok "ping after errors"
              (Server.request conn (Service.ping_request ~id:10 ()))
          in
          Alcotest.(check bool) "still serving" true pong.Service.ok))

let histogram_names () =
  match Json.member "histograms" (Telemetry.json_value ()) with
  | Some (Json.Obj kvs) -> List.map fst kvs
  | _ -> []

(* Only an op the service recognises names a request. Distinct unknown
   ops each answer invalid-input and record under "unknown", so a peer
   cannot grow the telemetry registry by inventing names. *)
let test_unknown_ops_add_no_histograms () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
  @@ fun () ->
  with_server (fun path _service ->
      let conn = Server.connect path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
        (fun () ->
          let ask op =
            parse_ok op
              (Server.request conn (Printf.sprintf {|{"id":1,"op":"%s"}|} op))
          in
          ignore (ask "ping");
          ignore (ask "x0");
          let before = histogram_names () in
          let n = 200 in
          for i = 1 to n do
            let op = Printf.sprintf "x%d" i in
            let r = ask op in
            Alcotest.(check bool) (op ^ ": not ok") false r.Service.ok;
            match r.Service.error with
            | Some (cls, _, code) ->
                Alcotest.(check string) (op ^ ": class") "invalid-input" cls;
                Alcotest.(check int) (op ^ ": exit code") 65 code
            | None -> Alcotest.failf "%s: error field missing" op
          done;
          Alcotest.(check (list string)) "no histogram added" before
            (histogram_names ());
          Alcotest.(check (list string)) "per-op histograms: protocol ops only"
            [ "server.op.ping.bytes_in"; "server.op.ping.bytes_out";
              "server.op.ping.service_ns"; "server.op.unknown.bytes_in";
              "server.op.unknown.bytes_out"; "server.op.unknown.service_ns" ]
            (List.filter
               (fun k -> String.starts_with ~prefix:"server.op." k)
               before);
          Alcotest.(check int) "every unknown op recorded as unknown" (n + 1)
            (Telemetry.hist_count
               (Telemetry.histogram "server.op.unknown.service_ns"))))

let result_str r name =
  Option.bind r.Service.result (fun j ->
      Option.bind (Json.member name j) Json.to_str_opt)

(* A node budget of 64 trips the symbolic attempt, so the requests run
   Monte Carlo: the omitted engine is the compiled kernel, and its answer
   has the bits of the bit-parallel interpreter's. The retired name
   "parallel" parses to the compiled kernel, so it hits the omitted
   request's cache entry. *)
let test_default_engine_is_compiled () =
  with_server (fun path _service ->
      let conn = Server.connect path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
        (fun () ->
          let ask ?engine id =
            parse_ok "estimate"
              (Server.request conn
                 (Service.estimate_request ~id ?engine ~seed:13
                    ~relative_precision:0.02 ~node_limit:64
                    ~circuit:"multiplier" ~width:6 ()))
          in
          let omitted = ask 1 and explicit = ask ~engine:"bitparallel" 2 in
          let retired = ask ~engine:"parallel" 3 in
          Alcotest.(check bool) "both ok" true
            (omitted.Service.ok && explicit.Service.ok);
          Alcotest.(check bool) "distinct keys" false explicit.Service.cached;
          Alcotest.(check (option string)) "estimator" (Some "monte_carlo")
            (result_str omitted "estimator");
          Alcotest.(check (option string)) "engine" (Some "compiled")
            (result_str omitted "engine");
          Alcotest.(check (option string)) "engine used" (Some "compiled")
            (result_str omitted "engine_used");
          Alcotest.(check (option string)) "bit-parallel engine"
            (Some "bitparallel") (result_str explicit "engine");
          Alcotest.(check (option string)) "capacitance bits"
            (result_str explicit "capacitance_bits")
            (result_str omitted "capacitance_bits");
          Alcotest.(check bool) "parallel ok and cached" true
            (retired.Service.ok && retired.Service.cached);
          Alcotest.(check (option string)) "parallel runs compiled"
            (Some "compiled") (result_str retired "engine");
          Alcotest.(check (option string)) "parallel capacitance bits"
            (result_str omitted "capacitance_bits")
            (result_str retired "capacitance_bits")))

(* An omitted bound is folded into the cache key as 0, so an explicit 0
   must be rejected: served, it would answer the omitted request from the
   cache with a different computation's result. *)
let test_non_positive_bounds_rejected () =
  with_server (fun path _service ->
      let conn = Server.connect path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
        (fun () ->
          let ask ?max_cycles ?node_limit id =
            parse_ok "estimate"
              (Server.request conn
                 (Service.estimate_request ~id ~seed:5 ~relative_precision:0.001
                    ?max_cycles ?node_limit ~circuit:"multiplier" ~width:8 ()))
          in
          List.iter
            (fun (what, r) ->
              Alcotest.(check bool) (what ^ ": not ok") false r.Service.ok;
              match r.Service.error with
              | Some (cls, _msg, code) ->
                  Alcotest.(check string) (what ^ ": class") "invalid-input" cls;
                  Alcotest.(check int) (what ^ ": exit code") 65 code
              | None -> Alcotest.failf "%s: error field missing" what)
            [ ("max_cycles 0", ask ~max_cycles:0 ~node_limit:64 1);
              ("max_cycles -5", ask ~max_cycles:(-5) ~node_limit:64 2);
              ("node_limit 0", ask ~node_limit:0 3) ];
          let omitted = ask ~node_limit:64 4 in
          Alcotest.(check bool) "omitted max_cycles ok" true omitted.Service.ok;
          Alcotest.(check bool) "omitted max_cycles computed fresh" false
            omitted.Service.cached))

(* Each bound is capped, so one well-formed request cannot hold a worker
   for an unbounded run: the cap itself is served, one past it is a typed
   invalid-input that names the field. *)
let test_bounds_capped () =
  with_server (fun path _service ->
      let conn = Server.connect path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
        (fun () ->
          let ask ?max_cycles ?node_limit id =
            parse_ok "estimate"
              (Server.request conn
                 (Service.estimate_request ~id ~seed:5 ?max_cycles ?node_limit
                    ~circuit:"adder" ~width:4 ()))
          in
          let at_caps = ask ~max_cycles:10_000_000 ~node_limit:2_000_000 1 in
          Alcotest.(check bool) "both caps served" true at_caps.Service.ok;
          List.iter
            (fun (field, r) ->
              Alcotest.(check bool) (field ^ ": not ok") false r.Service.ok;
              match r.Service.error with
              | Some (cls, msg, code) ->
                  Alcotest.(check string)
                    (field ^ ": class") "invalid-input" cls;
                  Alcotest.(check int) (field ^ ": exit code") 65 code;
                  Alcotest.(check bool)
                    (field ^ " named in: " ^ msg)
                    true
                    (Test_logic.contains msg field)
              | None -> Alcotest.failf "%s: error field missing" field)
            [ ("max_cycles", ask ~max_cycles:10_000_001 2);
              ("node_limit", ask ~node_limit:2_000_001 3) ]))

(* A peer that stalls mid-frame must not hold the drain: the worker drops
   the half-sent request (never handled, so nothing in flight is lost) on
   its next receive-timeout tick after the token is cancelled. The stalled
   socket is closed after 3 s either way, so a server that waits for the
   peer fails this test instead of hanging it. *)
let test_half_frame_does_not_block_drain () =
  let path = fresh_socket () in
  let token = Guard.token ~name:"test_half_frame" () in
  let ready = Atomic.make false in
  let returned_at = Atomic.make infinity in
  let srv =
    Domain.spawn (fun () ->
        Server.serve ~max_inflight:1 ~token
          ~on_ready:(fun () -> Atomic.set ready true)
          ~path
          (fun _ req -> req);
        Atomic.set returned_at (Unix.gettimeofday ()))
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Alcotest.(check bool) "server came up" true (Atomic.get ready);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* a header announcing 100 payload bytes, then only 10 of them *)
  let header = Bytes.create 8 in
  Bytes.set_int32_le header 0 100l;
  Bytes.set_int32_le header 4 0l;
  ignore (Unix.write fd header 0 8);
  ignore (Unix.write_substring fd (String.make 10 'x') 0 10);
  Unix.sleepf 0.2;
  let cancelled_at = Unix.gettimeofday () in
  Guard.cancel token;
  while
    Atomic.get returned_at = infinity
    && Unix.gettimeofday () -. cancelled_at < 3.0
  do
    Unix.sleepf 0.01
  done;
  Unix.close fd;
  Domain.join srv;
  let took = Atomic.get returned_at -. cancelled_at in
  Alcotest.(check bool)
    (Printf.sprintf "serve returned within 1 s of cancel (took %.2f s)" took)
    true (took < 1.0)

let test_overload_sheds_typed_frame () =
  (* one worker, admission budget one: a sleeper pins the worker, one
     connection waits in the queue, and the third must get the typed
     Overloaded frame instead of queueing without bound. *)
  with_server ~max_inflight:1 ~queue_budget:1 (fun path _service ->
      let c1 = Server.connect path in
      let sleeper =
        Domain.spawn (fun () ->
            Server.request c1 (Service.ping_request ~id:1 ~sleep_s:1.0 ()))
      in
      Unix.sleepf 0.25;
      (* worker is now asleep in c1's request *)
      let c2 = Server.connect path in
      let waiter =
        Domain.spawn (fun () ->
            Server.request c2 (Service.ping_request ~id:2 ()))
      in
      Unix.sleepf 0.25;
      (* c2 occupies the whole queue budget; c3 must be shed *)
      let c3 = Server.connect path in
      let shed =
        match Server.request c3 (Service.ping_request ~id:3 ()) with
        | raw -> parse_ok "shed frame" raw
        | exception Err.Error (Err.Invalid_input _) ->
            (* server closed after writing the overload frame and our
               request raced the close: read what it did send *)
            Alcotest.fail "overload frame lost"
      in
      Alcotest.(check bool) "shed response not ok" false shed.Service.ok;
      (match shed.Service.error with
      | Some (cls, _msg, code) ->
          Alcotest.(check string) "typed class" "overloaded" cls;
          Alcotest.(check int) "exit code 70" 70 code
      | None -> Alcotest.fail "shed frame carried no error");
      (* the worker stays parked on c1 until that connection closes, so
         free it before expecting the queued connection to be served *)
      let pong1 = parse_ok "sleeper completes" (Domain.join sleeper) in
      Server.close c1;
      let pong2 = parse_ok "queued request completes" (Domain.join waiter) in
      Alcotest.(check bool) "in-flight request finished" true pong1.Service.ok;
      Alcotest.(check bool) "queued request finished" true pong2.Service.ok;
      Server.close c2;
      Server.close c3)

let test_handler_exception_closes_only_that_connection () =
  let handler _guard payload =
    if String.equal payload "boom" then failwith "handler exploded"
    else payload
  in
  with_server ~handler (fun path _service ->
      let c1 = Server.connect path in
      (match Server.request c1 "boom" with
      | exception Err.Error (Err.Invalid_input _) -> ()
      | _ -> Alcotest.fail "connection survived a handler exception");
      Server.close c1;
      (* the server itself is still alive for the next connection *)
      let c2 = Server.connect path in
      Alcotest.(check string) "echo after crash" "hello"
        (Server.request c2 "hello");
      Server.close c2)

let test_sampler_deterministic_across_requests () =
  with_server (fun path _service ->
      let conn = Server.connect path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
        (fun () ->
          let ask () =
            let r =
              parse_ok "sampler"
                (Server.request conn
                   (Service.sampler_request ~seed:23 ~cycles:64
                      ~circuit:"multiplier" ~width:4 ()))
            in
            Alcotest.(check bool) "sampler ok" true r.Service.ok;
            Option.get (Service.result_string r)
          in
          let first = ask () in
          let second = ask () in
          Alcotest.(check string) "same request, same bytes" first second))

let suite =
  [
    Alcotest.test_case "frame: write/read roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame: CRC corruption is loud" `Quick
      test_frame_corruption;
    Alcotest.test_case "frame: oversized and torn frames rejected" `Quick
      test_frame_oversized_and_torn;
    Alcotest.test_case "frame: golden bytes on the wire and on disk" `Quick
      test_frame_golden_bytes;
    Alcotest.test_case "frame: oversized write rejected" `Quick
      test_oversized_write_rejected;
    Alcotest.test_case "serve: warm estimate is cached and byte-identical"
      `Quick test_cold_warm_byte_identity;
    Alcotest.test_case "serve: distinct parameters are distinct cache keys"
      `Quick test_distinct_keys_not_conflated;
    Alcotest.test_case "serve: typed error envelopes, connection survives"
      `Quick test_error_envelopes;
    Alcotest.test_case "serve: unknown ops add no histograms" `Quick
      test_unknown_ops_add_no_histograms;
    Alcotest.test_case "serve: omitted engine is compiled, same bits" `Quick
      test_default_engine_is_compiled;
    Alcotest.test_case "serve: non-positive max_cycles/node_limit rejected"
      `Quick test_non_positive_bounds_rejected;
    Alcotest.test_case "serve: max_cycles/node_limit capped" `Quick
      test_bounds_capped;
    Alcotest.test_case "serve: overload sheds a typed frame" `Quick
      test_overload_sheds_typed_frame;
    Alcotest.test_case "serve: half-sent frame does not block drain" `Quick
      test_half_frame_does_not_block_drain;
    Alcotest.test_case "serve: handler exception contained to one connection"
      `Quick test_handler_exception_closes_only_that_connection;
    Alcotest.test_case "serve: sampler responses deterministic" `Quick
      test_sampler_deterministic_across_requests;
  ]
