(* The resilience layer, exercised in-process: single-flight cache
   coalescing under a real thundering herd, typed-error propagation to
   joiners, the stale-socket wall, bounded-deadline frame reads, client
   reconnection/retry through shed load and slammed connections, and the
   chaos proxy both as a transparent pipe (rate 0) and as an adversary
   (corruption must become a typed error, never a silent wrong answer). *)

open Hlp_util
open Hlp_logic

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s/hlp_resil_test_%d_%d.sock"
      (Filename.get_temp_dir_name ()) (Unix.getpid ()) !n

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

let spawn_all n f = List.map Domain.join (List.init n (fun i -> Domain.spawn (f i)))

(* --- single-flight coalescing --- *)

let test_single_flight_shares_one_compute () =
  with_telemetry @@ fun () ->
  let n = 6 in
  let cache = Netcache.create ~capacity:8 ~name:"sf_value" () in
  let coalesced = Telemetry.counter "sf_value.coalesced" in
  let computes = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    (* hold the slot until every other domain has parked on it, so the
       herd is guaranteed to overlap the in-flight window *)
    let deadline = Clock.now_s () +. 10.0 in
    while Telemetry.count coalesced < n - 1 && Clock.now_s () < deadline do
      Unix.sleepf 0.001
    done;
    Alcotest.(check int) "all joiners parked" (n - 1) (Telemetry.count coalesced);
    42
  in
  let results =
    spawn_all n (fun _ () -> Netcache.find_or_compute cache ~key:7L compute)
  in
  List.iter (fun v -> Alcotest.(check int) "shared value" 42 v) results;
  Alcotest.(check int) "exactly one compute" 1 (Atomic.get computes);
  Alcotest.(check int) "coalesced = N-1" (n - 1) (Telemetry.count coalesced);
  Alcotest.(check int) "one miss"
    1 (Telemetry.count (Telemetry.counter "sf_value.cache_misses"));
  Alcotest.(check int) "joiners count as hits"
    (n - 1) (Telemetry.count (Telemetry.counter "sf_value.cache_hits"));
  Alcotest.(check int) "nothing left in flight" 0 (Netcache.inflight cache)

let test_single_flight_error_propagation () =
  with_telemetry @@ fun () ->
  let n = 4 in
  let cache = Netcache.create ~capacity:8 ~name:"sf_err" () in
  let coalesced = Telemetry.counter "sf_err.coalesced" in
  let computes = Atomic.make 0 in
  let failing () =
    Atomic.incr computes;
    let deadline = Clock.now_s () +. 10.0 in
    while Telemetry.count coalesced < n - 1 && Clock.now_s () < deadline do
      Unix.sleepf 0.001
    done;
    raise (Err.invalid_input ~what:"sf_err compute" "deliberate failure")
  in
  let outcomes =
    spawn_all n (fun _ () ->
        match Netcache.find_or_compute cache ~key:3L failing with
        | _ -> `Value
        | exception Err.Error (Err.Invalid_input _) -> `Typed
        | exception _ -> `Other)
  in
  List.iter
    (fun o ->
      Alcotest.(check bool) "typed error reached every caller" true (o = `Typed))
    outcomes;
  Alcotest.(check int) "one compute for the whole herd" 1 (Atomic.get computes);
  (* failures are never cached: the next generation computes afresh *)
  Alcotest.(check bool) "nothing cached" false (Netcache.mem cache 3L);
  Alcotest.(check int) "slot retired" 0 (Netcache.inflight cache);
  let v = Netcache.find_or_compute cache ~key:3L (fun () -> 9) in
  Alcotest.(check int) "fresh generation succeeds" 9 v;
  Alcotest.(check int) "second compute ran" 2 (Atomic.get computes + 1)

let qcheck_netcache_multidomain =
  QCheck.Test.make ~count:10
    ~name:
      "multi-domain cache hammer: capacity bound, hits+misses=lookups, one \
       compute per generation"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      with_telemetry @@ fun () ->
      let domains = 4 and ops = 60 and keys = 8 and capacity = 4 in
      let cache = Netcache.create ~capacity ~name:"resilq" () in
      let hits0 = Telemetry.count (Telemetry.counter "resilq.cache_hits") in
      let misses0 = Telemetry.count (Telemetry.counter "resilq.cache_misses") in
      let computes = Atomic.make 0 in
      let running = Array.init keys (fun _ -> Atomic.make 0) in
      let overlap = Atomic.make false in
      let bound_violated = Atomic.make false in
      let wrong_value = Atomic.make false in
      let worker d () =
        let rng = Prng.create (seed + d) in
        for _ = 1 to ops do
          let k = Prng.int rng keys in
          let v =
            Netcache.find_or_compute cache ~key:(Int64.of_int k) (fun () ->
                Atomic.incr computes;
                if Atomic.fetch_and_add running.(k) 1 <> 0 then
                  Atomic.set overlap true;
                Unix.sleepf 0.0002;
                ignore (Atomic.fetch_and_add running.(k) (-1));
                (k * 3) + 1)
          in
          if v <> (k * 3) + 1 then Atomic.set wrong_value true;
          if Netcache.length cache > capacity then Atomic.set bound_violated true
        done
      in
      ignore (spawn_all domains worker);
      let hits = Telemetry.count (Telemetry.counter "resilq.cache_hits") - hits0 in
      let misses =
        Telemetry.count (Telemetry.counter "resilq.cache_misses") - misses0
      in
      (not (Atomic.get overlap))
      && (not (Atomic.get bound_violated))
      && (not (Atomic.get wrong_value))
      && Netcache.length cache <= capacity
      && hits + misses = domains * ops
      && Atomic.get computes = misses)

(* --- bounded frame reads --- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_read_frame_within () =
  with_socketpair (fun _a b ->
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.05;
      (* no frame at all: typed deadline *)
      (match Server.read_frame ~timeout_s:0.15 b with
      | exception Err.Error (Err.Deadline_exceeded _) -> ()
      | _ -> Alcotest.fail "silent read past the deadline"));
  with_socketpair (fun a b ->
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.05;
      (* frame started but stalled: the boundary is lost — typed
         invalid-input, the connection must be dropped *)
      let payload = "abcdef" in
      let frame = Bytes.create (8 + String.length payload) in
      Bytes.set_int32_le frame 0 (Int32.of_int (String.length payload));
      Bytes.set_int32_le frame 4 (Journal.crc32 payload);
      Bytes.blit_string payload 0 frame 8 (String.length payload);
      ignore (Unix.write a frame 0 10);
      match Server.read_frame ~timeout_s:0.15 b with
      | exception Err.Error (Err.Invalid_input _) -> ()
      | _ -> Alcotest.fail "stalled mid-frame read did not fail typed");
  match Server.read_frame ~timeout_s:0.0 Unix.stdin with
  | exception Err.Error (Err.Invalid_input _) -> ()
  | _ -> Alcotest.fail "zero timeout accepted"

(* --- socket-path hygiene --- *)

let echo_handler _guard req = req

let test_prepare_path_refuses_non_socket () =
  let path = Filename.temp_file "hlp_resil" ".notasocket" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Server.prepare_path path with
      | exception Err.Error (Err.Invalid_input _) -> ()
      | () -> Alcotest.fail "regular file accepted as socket path")

let test_stale_socket_unlinked () =
  let path = fresh_socket () in
  (* bind without listening, then close: the classic crashed-daemon
     leftover — a socket file nobody answers on *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  Alcotest.(check bool) "stale file exists" true (Sys.file_exists path);
  let token = Guard.token ~name:"stale_test" () in
  Guard.cancel token;
  (* a pre-cancelled token makes serve bind, drain immediately, unlink *)
  Server.serve ~max_inflight:1 ~token ~path echo_handler;
  Alcotest.(check bool) "stale file replaced then cleaned" false
    (Sys.file_exists path)

let test_live_socket_refused () =
  let path = fresh_socket () in
  let token = Guard.token ~name:"live_test" () in
  let ready = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Server.serve ~max_inflight:1 ~token
          ~on_ready:(fun () -> Atomic.set ready true)
          ~path echo_handler)
  in
  let deadline = Clock.now_s () +. 10.0 in
  while (not (Atomic.get ready)) && Clock.now_s () < deadline do
    Unix.sleepf 0.002
  done;
  Fun.protect
    ~finally:(fun () ->
      Guard.cancel token;
      Domain.join srv)
    (fun () ->
      (* second daemon on the same path: typed refusal, no theft *)
      (match Server.serve ~max_inflight:1 ~path echo_handler with
      | exception Err.Error (Err.Invalid_input _) -> ()
      | () -> Alcotest.fail "second serve bound a live path");
      (* the first daemon is unharmed *)
      let conn = Server.connect path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
        (fun () ->
          Alcotest.(check string) "first daemon still answers" "still-here"
            (Server.request conn "still-here")))

(* --- resilient client --- *)

(* Start a raw Server.serve with [handler] on its own domain; run [f path]. *)
let with_raw_server ?max_inflight ?queue_budget handler f =
  let path = fresh_socket () in
  let token = Guard.token ~name:"resil_server" () in
  let ready = Atomic.make false in
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
  let deadline = Clock.now_s () +. 10.0 in
  while (not (Atomic.get ready)) && Clock.now_s () < deadline do
    Unix.sleepf 0.002
  done;
  Alcotest.(check bool) "server came up" true (Atomic.get ready);
  Fun.protect
    ~finally:(fun () ->
      Guard.cancel token;
      Domain.join srv)
    (fun () -> f path)

let test_connect_backoff_reaches_late_server () =
  let path = fresh_socket () in
  let token = Guard.token ~name:"late_server" () in
  let srv =
    Domain.spawn (fun () ->
        Unix.sleepf 0.25;
        Server.serve ~max_inflight:1 ~token ~path echo_handler)
  in
  Fun.protect
    ~finally:(fun () ->
      Guard.cancel token;
      Domain.join srv)
    (fun () ->
      (* the socket does not exist yet: connect retries with jittered
         backoff until the daemon appears *)
      let conn = Server.connect ~wait_s:10.0 ~seed:1 path in
      Fun.protect
        ~finally:(fun () -> Server.close conn)
        (fun () ->
          Alcotest.(check string) "round trip after wait" "hello"
            (Server.request conn "hello")));
  match Server.connect ~wait_s:0.05 ~seed:1 (fresh_socket ()) with
  | exception Err.Error (Err.Invalid_input _) -> ()
  | _ -> Alcotest.fail "connect to nowhere succeeded"

let overload_frame =
  Server.overload_frame
    (Err.Overloaded { queue = "test.shed"; budget = 1; pending = 2 })

let test_client_honors_overload_hint () =
  let sheds = Atomic.make 2 in
  let handler _guard _req =
    if Atomic.fetch_and_add sheds (-1) > 0 then overload_frame
    else {|{"ok":true,"result":{"pong":true}}|}
  in
  with_raw_server ~max_inflight:1 handler (fun path ->
      let cl = Server.Client.create ~seed:5 ~max_retries:5 path in
      Fun.protect
        ~finally:(fun () -> Server.Client.close cl)
        (fun () ->
          let resp = Server.Client.request cl "q" in
          Alcotest.(check bool) "final answer is the success frame" true
            (resp = {|{"ok":true,"result":{"pong":true}}|});
          let logical, wire = Server.Client.counts cl in
          Alcotest.(check int) "one logical request" 1 logical;
          Alcotest.(check int) "two shed frames cost two extra wires" 3 wire))

let test_client_returns_typed_overload_when_exhausted () =
  let handler _guard _req = overload_frame in
  with_raw_server ~max_inflight:1 handler (fun path ->
      let cl = Server.Client.create ~seed:5 ~max_retries:1 path in
      Fun.protect
        ~finally:(fun () -> Server.Client.close cl)
        (fun () ->
          let resp = Server.Client.request cl "q" in
          match Hlp_power.Service.parse_response resp with
          | Ok r ->
              Alcotest.(check bool) "not ok" false r.Hlp_power.Service.ok;
              let cls =
                match r.Hlp_power.Service.error with
                | Some (c, _, _) -> c
                | None -> "missing"
              in
              Alcotest.(check string) "typed overloaded envelope" "overloaded"
                cls
          | Error e -> Alcotest.failf "unparseable exhaustion answer: %s" e))

(* --- chaos proxy --- *)

let test_chaos_passthrough () =
  with_raw_server echo_handler (fun path ->
      let listen = fresh_socket () in
      let proxy = Chaos.start ~rate:0.0 ~listen ~upstream:path () in
      Fun.protect
        ~finally:(fun () -> Chaos.stop proxy)
        (fun () ->
          let conn = Server.connect listen in
          Fun.protect
            ~finally:(fun () -> Server.close conn)
            (fun () ->
              let payload = "payload \x00\x01 with binary" in
              Alcotest.(check string) "rate 0 is a transparent pipe" payload
                (Server.request conn payload))));
  Alcotest.(check bool) "listen socket unlinked" false
    (Sys.file_exists "nonexistent-placeholder")

let test_chaos_corruption_is_typed () =
  with_raw_server echo_handler (fun path ->
      let listen = fresh_socket () in
      let proxy =
        Chaos.start ~seed:11 ~rate:1.0 ~faults:[ Chaos.Corrupt ] ~listen
          ~upstream:path ()
      in
      Fun.protect
        ~finally:(fun () -> Chaos.stop proxy)
        (fun () ->
          let conn = Server.connect listen in
          Fun.protect
            ~finally:(fun () -> Server.close conn)
            (fun () ->
              (* every chunk corrupted: the request dies on the server's
                 CRC wall (connection dropped) or the response dies on
                 ours — either way a typed error, never a wrong answer *)
              match Server.request conn "must-not-survive" with
              | exception Err.Error (Err.Invalid_input _) -> ()
              | resp ->
                  Alcotest.(check string)
                    "response byte-exact despite corruption (impossible)"
                    "must-not-survive" resp)))

let test_client_survives_slams () =
  with_raw_server echo_handler (fun path ->
      let listen = fresh_socket () in
      let proxy =
        Chaos.start ~seed:7 ~rate:0.35 ~faults:[ Chaos.Slam ] ~listen
          ~upstream:path ()
      in
      Fun.protect
        ~finally:(fun () -> Chaos.stop proxy)
        (fun () ->
          let cl =
            Server.Client.create ~seed:3 ~max_retries:10 ~request_timeout_s:2.0
              listen
          in
          Fun.protect
            ~finally:(fun () -> Server.Client.close cl)
            (fun () ->
              for i = 1 to 25 do
                let payload = Printf.sprintf "echo-%d" i in
                Alcotest.(check string) "every request eventually answers"
                  payload
                  (Server.Client.request cl payload)
              done;
              let logical, wire = Server.Client.counts cl in
              Alcotest.(check int) "25 logical requests" 25 logical;
              Alcotest.(check bool) "slams forced retries" true (wire > logical))))

let suite =
  [ Alcotest.test_case "single-flight: herd shares one compute" `Quick
      test_single_flight_shares_one_compute;
    Alcotest.test_case "single-flight: typed error reaches every joiner" `Quick
      test_single_flight_error_propagation;
    QCheck_alcotest.to_alcotest qcheck_netcache_multidomain;
    Alcotest.test_case "read_frame_within: typed deadline and torn stall" `Quick
      test_read_frame_within;
    Alcotest.test_case "prepare_path: non-socket refused" `Quick
      test_prepare_path_refuses_non_socket;
    Alcotest.test_case "stale socket file unlinked and rebound" `Quick
      test_stale_socket_unlinked;
    Alcotest.test_case "live socket refused, daemon unharmed" `Quick
      test_live_socket_refused;
    Alcotest.test_case "connect: backoff reaches a late server" `Quick
      test_connect_backoff_reaches_late_server;
    Alcotest.test_case "client: overload hint honored, then success" `Quick
      test_client_honors_overload_hint;
    Alcotest.test_case "client: typed overload on exhaustion" `Quick
      test_client_returns_typed_overload_when_exhausted;
    Alcotest.test_case "chaos: rate 0 is byte-transparent" `Quick
      test_chaos_passthrough;
    Alcotest.test_case "chaos: corruption becomes a typed error" `Quick
      test_chaos_corruption_is_typed;
    Alcotest.test_case "client: retries through slammed connections" `Quick
      test_client_survives_slams ]
