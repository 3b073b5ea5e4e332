(* Crash-only lifecycle: snapshot spill/rehydrate byte-identity, the
   corruption wall (any truncation or bit flip degrades to a counted
   cold start, never a wrong byte), watchdog supervision over real
   child processes (crash restart, wedge detection, flap breaker,
   drain), memory-pressure admission driven through an injected RSS
   source, hot knob reload on a live connection, and client restart
   rides. *)

open Hlp_util
open Hlp_power
module Netcache = Hlp_logic.Netcache

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s/hlp_life_test_%d_%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !n

let temp tag = Filename.temp_file ("hlp_life_" ^ tag) ".tmp"

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let mk_ctx () =
  {
    Server.guard = Guard.create ();
    rid = "t-life";
    op = "";
    key = "";
    cache = "";
    status = "ok";
  }

let parse_ok what raw =
  match Service.parse_response raw with
  | Error e -> Alcotest.failf "%s: bad response %s: %s" what raw e
  | Ok r -> r

let result_bytes what r =
  match Service.result_string r with
  | Some s -> s
  | None -> Alcotest.failf "%s: response has no result" what

let eventually ?(timeout_s = 10.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* --- Netcache: second-chance eviction and the audit trail --- *)

let test_netcache_second_chance () =
  let c = Netcache.create ~capacity:4 ~name:"life.sc" () in
  List.iter (fun k -> Netcache.put c ~key:(Int64.of_int k) k) [ 1; 2; 3; 4 ];
  (* a hit marks the entry's recency bit *)
  let v =
    Netcache.find_or_compute c ~key:1L (fun () ->
        Alcotest.fail "key 1 should be a hit")
  in
  Alcotest.(check int) "hit returns the cached value" 1 v;
  (* capacity insert: the clock hand spares marked 1, evicts unmarked 2 *)
  Netcache.put c ~key:5L 5;
  Alcotest.(check bool) "recently-hit entry survives" true (Netcache.mem c 1L);
  Alcotest.(check bool) "unmarked entry evicted" false (Netcache.mem c 2L);
  Alcotest.(check int) "still at capacity" 4 (Netcache.length c)

let test_netcache_eviction_audit () =
  Telemetry.enable ();
  let c = Netcache.create ~capacity:8 ~name:"life.audit" () in
  let ev = Telemetry.counter "life.audit.cache_evictions" in
  let before = Telemetry.count ev in
  List.iter (fun k -> Netcache.put c ~key:(Int64.of_int k) k) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "evict returns the actual count" 2 (Netcache.evict c 2);
  Alcotest.(check int) "clear returns the drop count" 3 (Netcache.clear c);
  Alcotest.(check int) "empty after clear" 0 (Netcache.length c);
  Alcotest.(check int)
    "every departure audited in cache_evictions" 5
    (Telemetry.count ev - before);
  Alcotest.(check int) "evict on empty cache is clamped" 0 (Netcache.evict c 3)

(* --- snapshots: round trip, walls, corruption property --- *)

let est_req =
  Service.estimate_request ~id:1 ~rid:"r-life" ~circuit:"adder" ~width:6 ()

(* pristine snapshot bytes plus the cold-computed reference result the
   whole corruption property compares against; computed once *)
let pristine = lazy (
  let svc = Service.create () in
  let r = parse_ok "cold reference" (Service.handle svc (mk_ctx ()) est_req) in
  let reference = result_bytes "cold reference" r in
  let path = temp "pristine" in
  let saved = Service.save_snapshot svc ~path in
  let bytes = read_file path in
  Sys.remove path;
  (bytes, reference, saved))

let test_snapshot_roundtrip () =
  let bytes, reference, saved = Lazy.force pristine in
  Alcotest.(check bool) "snapshot holds at least the estimate" true (saved >= 1);
  let path = temp "roundtrip" in
  write_file path bytes;
  let svc = Service.create () in
  (match Service.load_snapshot svc ~path with
  | `Restored k -> Alcotest.(check int) "every entry restored" saved k
  | `Cold why -> Alcotest.failf "pristine snapshot went cold: %s" why);
  let ctx = mk_ctx () in
  let warm = parse_ok "warm" (Service.handle svc ctx est_req) in
  Alcotest.(check bool) "restored hit marked cached" true warm.Service.cached;
  Alcotest.(check string) "attributed as a cache hit" "hit" ctx.Server.cache;
  Alcotest.(check string)
    "post-restart warm hit byte-identical to cold compute" reference
    (result_bytes "warm" warm);
  Sys.remove path

let frame_json j = Journal.frame (Json.to_string ~compact:true j)

let header ~version ~recipe =
  frame_json
    (Json.Obj
       [ ("magic", Json.Str "hlpower-snapshot");
         ("version", Json.Int version);
         ("recipe", Json.Str recipe) ])

let trailer n = frame_json (Json.Obj [ ("entries", Json.Int n) ])

let test_snapshot_version_and_recipe_wall () =
  Telemetry.enable ();
  let vc = Telemetry.counter "server.snapshot.version_mismatch" in
  let rc = Telemetry.counter "server.snapshot.recipe_mismatch" in
  let cold = Telemetry.counter "server.snapshot.cold_starts" in
  let v0 = Telemetry.count vc in
  let r0 = Telemetry.count rc in
  let c0 = Telemetry.count cold in
  let path = temp "wall" in
  let svc = Service.create () in
  write_file path
    (header ~version:(Service.snapshot_version + 1)
       ~recipe:Service.snapshot_recipe
    ^ trailer 0);
  (match Service.load_snapshot svc ~path with
  | `Cold "version-mismatch" -> ()
  | `Cold why -> Alcotest.failf "wrong cold reason: %s" why
  | `Restored _ -> Alcotest.fail "restored under version skew");
  (* version 1 carried budget-blind symbolic records: an upgrade is one
     counted cold start, never a restore *)
  write_file path
    (header ~version:1 ~recipe:Service.snapshot_recipe ^ trailer 0);
  (match Service.load_snapshot svc ~path with
  | `Cold "version-mismatch" -> ()
  | `Cold why -> Alcotest.failf "version 1: wrong cold reason: %s" why
  | `Restored _ -> Alcotest.fail "restored a version-1 snapshot");
  write_file path
    (header ~version:Service.snapshot_version ~recipe:"fnv64:not-this-recipe"
    ^ trailer 0);
  (match Service.load_snapshot svc ~path with
  | `Cold "recipe-mismatch" -> ()
  | `Cold why -> Alcotest.failf "wrong cold reason: %s" why
  | `Restored _ -> Alcotest.fail "restored under recipe skew");
  (* a compatible empty snapshot is a clean zero-entry restore *)
  write_file path
    (header ~version:Service.snapshot_version ~recipe:Service.snapshot_recipe
    ^ trailer 0);
  (match Service.load_snapshot svc ~path with
  | `Restored 0 -> ()
  | `Restored n -> Alcotest.failf "phantom entries: %d" n
  | `Cold why -> Alcotest.failf "empty snapshot went cold: %s" why);
  Alcotest.(check int) "version skew counted" 2 (Telemetry.count vc - v0);
  Alcotest.(check int) "recipe skew counted" 1 (Telemetry.count rc - r0);
  Alcotest.(check int) "every wall was a cold start" 3
    (Telemetry.count cold - c0);
  Sys.remove path

let test_snapshot_trailer_count_wall () =
  (* a trailer that overcounts the entries present must not restore *)
  let bytes, _, saved = Lazy.force pristine in
  let path = temp "trailer" in
  (* drop the trailer record and append one claiming an extra entry *)
  write_file path
    (header ~version:Service.snapshot_version ~recipe:Service.snapshot_recipe
    ^ trailer (saved + 1));
  let svc = Service.create () in
  (match Service.load_snapshot svc ~path with
  | `Cold _ -> ()
  | `Restored n -> Alcotest.failf "trailer overcount restored %d" n);
  ignore bytes;
  Sys.remove path

let qcheck_snapshot_corruption =
  QCheck.Test.make ~count:50
    ~name:"corrupted snapshot self-heals to cold start, never a wrong byte"
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (n, truncate) ->
      let bytes, reference, _ = Lazy.force pristine in
      let len = String.length bytes in
      let corrupted =
        if truncate then String.sub bytes 0 (n mod len)
        else begin
          let b = Bytes.of_string bytes in
          let bit = n mod (len * 8) in
          let i = bit / 8 in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
          Bytes.to_string b
        end
      in
      let path = temp "corrupt" in
      write_file path corrupted;
      let svc = Service.create () in
      (* must never raise, whatever the damage *)
      let outcome = Service.load_snapshot svc ~path in
      (* whatever was (not) restored, serving must produce the same
         bytes a cold compute does — the differential wall *)
      let r =
        parse_ok "post-corruption serve" (Service.handle svc (mk_ctx ()) est_req)
      in
      let served = result_bytes "post-corruption serve" r in
      Sys.remove path;
      (match outcome with `Cold _ | `Restored _ -> ());
      String.equal served reference)

(* --- purity: an answer depends only on its request ---

   Each reference is what a fresh service, with an empty symbolic memo,
   answers to that request alone. The memo is cleared once more before a
   sequence and then left alone, so it carries the sequence's history the
   way a long-lived daemon's does. *)

let clear_memo () = ignore (Netcache.clear Probprop.symbolic_memo)

(* the result bytes of [svc]'s answer to [req], or its typed error *)
let answer svc req =
  let r = parse_ok "answer" (Service.handle svc (mk_ctx ()) req) in
  match (Service.result_string r, r.Service.error) with
  | Some s, _ -> s
  | None, Some (cls, msg, _) -> Printf.sprintf "error %s: %s" cls msg
  | None, None -> Alcotest.fail "response with neither result nor error"

let fresh_answer req =
  clear_memo ();
  answer (Service.create ()) req

let result_field name s =
  match Json.parse s with
  | Ok v -> Json.member name v
  | Error e -> Alcotest.failf "unparseable result %s: %s" s e

let estimate ?node_limit ?(max_cycles = 2000) ~seed circuit width =
  Service.estimate_request ~seed ?node_limit ~max_cycles ~circuit ~width ()

(* multiplier 8 trips this budget in microseconds *)
let doomed seed = estimate ~node_limit:64 ~seed "multiplier" 8

(* spill [svc] and restart into a fresh service restored from the spill *)
let round_trip svc =
  let path = temp "purity" in
  ignore (Service.save_snapshot !svc ~path);
  let next = Service.create () in
  (match Service.load_snapshot next ~path with
  | `Restored _ -> ()
  | `Cold why -> Alcotest.failf "round trip went cold: %s" why);
  Sys.remove path;
  svc := next

let purity_circuits =
  [| ("adder", 4); ("multiplier", 4); ("parity", 6); ("comparator", 4);
     ("alu", 4); ("max", 4) |]

(* nine budgets, two of them multiplier 4's exact threshold N and N - 1 *)
let purity_limits =
  lazy
    (let m = Hlp_bdd.Bdd.manager () in
     let net = Hlp_logic.Generators.multiplier_circuit 4 in
     ignore
       (Hlp_bdd.Bdd.of_netlist_all ~order:(Hlp_bdd.Bdd.first_use_order net) m
          net);
     let n = Hlp_bdd.Bdd.node_count m in
     [| None; Some 10; Some 64; Some 200; Some (n - 1); Some n; Some 2000;
        Some 20_000; Some 2_000_000 |])

(* an op is (c, l, seed): c < 6 estimates circuit c under budget l, c = 6
   is a doomed request, c = 7 a snapshot round trip *)
let purity_op (c, l, seed) =
  if c = 7 then None
  else if c = 6 then Some (doomed seed)
  else
    let circuit, width = purity_circuits.(c) in
    Some
      (estimate ?node_limit:(Lazy.force purity_limits).(l) ~seed circuit width)

let qcheck_purity_wall =
  QCheck.Test.make ~count:60
    ~name:"purity: every answer equals a fresh service's answer to it alone"
    QCheck.(
      list_of_size
        Gen.(2 -- 7)
        (triple (int_bound 7) (int_bound 8) (int_range 1 3)))
    (fun ops ->
      let ops = List.map purity_op ops in
      let refs = List.map (Option.map fresh_answer) ops in
      clear_memo ();
      let svc = ref (Service.create ()) in
      List.for_all2
        (fun op want ->
          match (op, want) with
          | Some req, Some want -> String.equal (answer !svc req) want
          | _ ->
              round_trip svc;
              true)
        ops refs)

(* a symbolic success under a large budget must not answer a small one *)
let test_purity_small_budget_after_success () =
  let req =
    estimate ~node_limit:10 ~max_cycles:20_000 ~seed:5 "multiplier" 4
  in
  let want = fresh_answer req in
  Alcotest.(check bool) "the fresh answer sampled" true
    (result_field "estimator" want = Some (Json.Str "monte_carlo"));
  clear_memo ();
  let svc = Service.create () in
  ignore (answer svc (estimate ~node_limit:2_000_000 ~seed:1 "multiplier" 4));
  Alcotest.(check string) "same bytes as a fresh service" want (answer svc req)

(* doomed requests before a request must not change its answer *)
let test_purity_after_doomed_requests () =
  List.iter
    (fun (what, req) ->
      let want = fresh_answer req in
      clear_memo ();
      let svc = Service.create () in
      List.iter (fun seed -> ignore (answer svc (doomed seed))) [ 1; 2; 3 ];
      Alcotest.(check string) what want (answer svc req))
    [ ("the same doomed shape still reports its fallback", doomed 9);
      ("a friendly circuit is still symbolic", estimate ~seed:5 "adder" 8) ];
  Alcotest.(check bool) "a tripped request reports the fallback" true
    (result_field "symbolic_fallback" (fresh_answer (doomed 9))
    = Some (Json.Bool true))

(* A small-budget request must not join, or wait for, a large-budget
   build of the same circuit running in another worker. The large request
   takes a fraction of a second; the small one's answer is checked, so a
   service that shares the build answers wrongly instead of hanging. *)
let test_purity_concurrent_budgets () =
  let small = estimate ~node_limit:10 ~seed:2 "comparator" 13 in
  let want = fresh_answer small in
  clear_memo ();
  let svc = Service.create () in
  let large_done = Atomic.make false in
  let large =
    Domain.spawn (fun () ->
        let a =
          answer svc (estimate ~node_limit:2_000_000 ~seed:1 "comparator" 13)
        in
        Atomic.set large_done true;
        a)
  in
  let inflight () =
    let r =
      parse_ok "stats"
        (Service.handle svc (mk_ctx ()) (Service.stats_request ()))
    in
    Option.bind r.Service.result (fun v ->
        Option.bind (Json.member "estimates_inflight" v) Json.to_int_opt)
  in
  eventually "the large build in flight" (fun () ->
      inflight () = Some 1 || Atomic.get large_done);
  Unix.sleepf 0.05;
  let got = answer svc small in
  let large_answer = Domain.join large in
  Alcotest.(check string) "same bytes as a fresh service" want got;
  Alcotest.(check bool) "the large budget fits" true
    (result_field "estimator" large_answer = Some (Json.Str "symbolic"))

(* --- watchdog: real children via /bin/sh --- *)

let sh cmd () =
  Unix.create_process "/bin/sh" [| "sh"; "-c"; cmd |] Unix.stdin Unix.stdout
    Unix.stderr

let test_watchdog_flap_breaker () =
  let events = ref [] in
  let starts = ref 0 in
  let start () =
    incr starts;
    sh "exit 3" ()
  in
  let r =
    Supervisor.watch ~probe_every_s:0.02 ~backoff_base_s:0.004
      ~backoff_cap_s:0.01 ~flap_window_s:30.0 ~flap_max:2 ~grace_s:0.5 ~seed:7
      ~on_event:(fun e -> events := e :: !events)
      ~start ()
  in
  (match r with
  | `Gave_up n -> Alcotest.(check int) "three restarts in the window" 3 n
  | `Drained -> Alcotest.fail "flap breaker never tripped");
  Alcotest.(check int) "three incarnations started" 3 !starts;
  let evs = List.rev !events in
  let crashes =
    List.filter
      (function Supervisor.Wd_exited (_, "exit 3") -> true | _ -> false)
      evs
  in
  Alcotest.(check int) "every crash recorded with its status" 3
    (List.length crashes);
  let backoffs =
    List.filter (function Supervisor.Wd_restarting _ -> true | _ -> false) evs
  in
  Alcotest.(check int) "two backoff sleeps before giving up" 2
    (List.length backoffs);
  Alcotest.(check bool) "give-up recorded" true
    (List.exists
       (function Supervisor.Wd_gave_up 3 -> true | _ -> false)
       evs)

let test_watchdog_wedge_detect () =
  let events = ref [] in
  let r =
    Supervisor.watch
      ~probe:(fun () -> false)
      ~probe_every_s:0.02 ~probe_misses:3 ~backoff_base_s:0.004
      ~backoff_cap_s:0.01 ~flap_window_s:30.0 ~flap_max:1 ~grace_s:1.0 ~seed:5
      ~on_event:(fun e -> events := e :: !events)
      ~start:(sh "sleep 30") ()
  in
  (match r with
  | `Gave_up 2 -> ()
  | `Gave_up n -> Alcotest.failf "gave up after %d restarts" n
  | `Drained -> Alcotest.fail "wedge never detected");
  Alcotest.(check bool) "probe timeout recorded at the miss budget" true
    (List.exists
       (function Supervisor.Wd_probe_timeout (_, 3) -> true | _ -> false)
       !events);
  (* the wedged child really was terminated: the induced crash is
     recorded as such, carrying the kill status *)
  Alcotest.(check bool) "induced kill recorded as a wedge crash" true
    (List.exists
       (function
         | Supervisor.Wd_exited (_, st) ->
             String.length st >= 7 && String.sub st 0 7 = "wedged,"
         | _ -> false)
       !events)

let test_watchdog_drain () =
  let token = Guard.token ~name:"test_watchdog_drain" () in
  let events = ref [] in
  let canceller =
    Domain.spawn (fun () ->
        Unix.sleepf 0.3;
        Guard.cancel token)
  in
  let r =
    Supervisor.watch ~probe_every_s:0.02 ~grace_s:2.0 ~seed:3 ~token
      ~on_event:(fun e -> events := e :: !events)
      ~start:(sh "sleep 30") ()
  in
  Domain.join canceller;
  (match r with
  | `Drained -> ()
  | `Gave_up n -> Alcotest.failf "drain turned into give-up (%d)" n);
  Alcotest.(check bool) "SIGTERM propagation recorded" true
    (List.exists
       (function Supervisor.Wd_draining _ -> true | _ -> false)
       !events);
  match
    List.find_opt
      (function Supervisor.Wd_drained _ -> true | _ -> false)
      !events
  with
  | Some (Supervisor.Wd_drained (pid, _st)) -> (
      (* reaped: a second wait must find no such child *)
      match Unix.waitpid [] pid with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ()
      | _ -> Alcotest.fail "drained child was not reaped")
  | _ -> Alcotest.fail "no drained event recorded"

let test_watchdog_event_json () =
  let j =
    Supervisor.watchdog_event_json (Supervisor.Wd_exited (42, "signal SIGKILL"))
  in
  (match (Json.member "event" j, Json.member "pid" j, Json.member "status" j) with
  | Some (Json.Str "exited"), Some (Json.Int 42), Some (Json.Str "signal SIGKILL")
    ->
      ()
  | _ -> Alcotest.failf "exited event shape: %s" (Json.to_string ~compact:true j));
  match Json.member "event" (Supervisor.watchdog_event_json (Supervisor.Wd_gave_up 6)) with
  | Some (Json.Str "gave-up") -> ()
  | _ -> Alcotest.fail "gave-up event name"

(* --- memory-pressure admission through an injected RSS source --- *)

let test_memory_pressure_policy () =
  Telemetry.enable ();
  let rss = Atomic.make 1_000 in
  Memstat.with_source
    (fun () -> Some (Atomic.get rss))
    (fun () ->
      let knobs =
        Atomic.make
          {
            Server.default_knobs with
            Server.mem_soft_bytes = Some 10_000;
            mem_hard_bytes = Some 20_000;
          }
      in
      let path = fresh_socket () in
      let token = Guard.token ~name:"test_mem_pressure" () in
      let ready = Atomic.make false in
      let service = Service.create () in
      let soft_calls = Atomic.make 0 in
      let trimmed = Atomic.make 0 in
      let srv =
        Domain.spawn (fun () ->
            Server.serve ~knobs ~mem_sample_every_s:0.01
              ~on_memory_soft:(fun () ->
                Atomic.incr soft_calls;
                ignore
                  (Atomic.fetch_and_add trimmed (Service.trim service)))
              ~token
              ~on_ready:(fun () -> Atomic.set ready true)
              ~path (Service.handle service))
      in
      eventually "server ready" (fun () -> Atomic.get ready);
      Fun.protect
        ~finally:(fun () ->
          Guard.cancel token;
          Domain.join srv)
        (fun () ->
          let conn = Server.connect path in
          (* fill the estimate cache so soft pressure has prey *)
          ignore
            (parse_ok "fill 1"
               (Server.request conn
                  (Service.estimate_request ~id:1 ~circuit:"adder" ~width:4 ())));
          ignore
            (parse_ok "fill 2"
               (Server.request conn
                  (Service.estimate_request ~id:2 ~circuit:"adder" ~width:5 ())));
          (* soft budget: relief callback evicts, requests still served *)
          Atomic.set rss 15_000;
          eventually "soft relief evicted something" (fun () ->
              Atomic.get soft_calls > 0 && Atomic.get trimmed > 0);
          let r =
            parse_ok "served under soft pressure"
              (Server.request conn (Service.ping_request ~id:3 ()))
          in
          Alcotest.(check bool) "soft pressure still serves" true r.Service.ok;
          (* hard budget: typed Overloaded sheds, connection survives *)
          Atomic.set rss 25_000;
          let shed = ref None in
          eventually "hard-pressure shed" (fun () ->
              let r =
                parse_ok "hard probe"
                  (Server.request conn (Service.ping_request ~id:4 ()))
              in
              if r.Service.ok then false
              else begin
                shed := Some r;
                true
              end);
          (match !shed with
          | Some { Service.error = Some (cls, _, _); _ } ->
              Alcotest.(check string) "shed is the typed overload class"
                "overloaded" cls
          | _ -> Alcotest.fail "no typed shed captured");
          (* pressure recedes: the same connection serves again *)
          Atomic.set rss 1_000;
          eventually "recovered after pressure receded" (fun () ->
              (parse_ok "recovery probe"
                 (Server.request conn (Service.ping_request ~id:5 ())))
                .Service.ok);
          Alcotest.(check bool) "hard sheds counted" true
            (Telemetry.count (Telemetry.counter "server.memory.hard_sheds") > 0);
          Server.close conn))

(* --- knobs: validation and hot reload on a live connection --- *)

let test_knob_validation () =
  (match Server.validate_knobs { Server.default_knobs with Server.queue_budget = 0 } with
  | () -> Alcotest.fail "zero queue budget accepted"
  | exception Err.Error (Err.Invalid_input _) -> ());
  (match
     Server.validate_knobs
       {
         Server.default_knobs with
         Server.mem_soft_bytes = Some 10;
         mem_hard_bytes = Some 5;
       }
   with
  | () -> Alcotest.fail "soft budget above hard accepted"
  | exception Err.Error (Err.Invalid_input _) -> ());
  match
    Server.validate_knobs
      { Server.default_knobs with Server.deadline_s = Some (-1.0) }
  with
  | () -> Alcotest.fail "negative deadline accepted"
  | exception Err.Error (Err.Invalid_input _) -> ()

let test_knob_hot_reload_live_connection () =
  let knobs = Atomic.make Server.default_knobs in
  (* the handler reports whether its per-request guard carries a
     deadline — the directly observable effect of a deadline reload *)
  let handler (ctx : Server.ctx) _req =
    match Guard.remaining_s ctx.Server.guard with
    | None -> "unbounded"
    | Some _ -> "bounded"
  in
  let path = fresh_socket () in
  let token = Guard.token ~name:"test_knob_reload" () in
  let ready = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Server.serve ~knobs ~token
          ~on_ready:(fun () -> Atomic.set ready true)
          ~path handler)
  in
  eventually "server ready" (fun () -> Atomic.get ready);
  Fun.protect
    ~finally:(fun () ->
      Guard.cancel token;
      Domain.join srv)
    (fun () ->
      let conn = Server.connect path in
      Alcotest.(check string) "before reload: no deadline" "unbounded"
        (Server.request conn "probe");
      Server.set_knobs knobs
        { (Atomic.get knobs) with Server.deadline_s = Some 2.5 };
      (* same connection — no drop, no reconnect — sees the new knobs *)
      eventually "reload reaches requests on the live connection" (fun () ->
          String.equal (Server.request conn "probe") "bounded");
      Server.set_knobs knobs
        { (Atomic.get knobs) with Server.deadline_s = None };
      eventually "second reload also lands" (fun () ->
          String.equal (Server.request conn "probe") "unbounded");
      Server.close conn)

(* --- client restart rides --- *)

let test_client_rides_restart () =
  Telemetry.enable ();
  let path = fresh_socket () in
  let token = Guard.token ~name:"test_restart_ride" () in
  let ready = Atomic.make false in
  let service = Service.create () in
  (* the daemon comes up only after a delay — to the client this is
     exactly what a supervised restart looks like: no socket, refused
     connects, then a fresh listener *)
  let srv =
    Domain.spawn (fun () ->
        Unix.sleepf 0.4;
        Server.serve ~token
          ~on_ready:(fun () -> Atomic.set ready true)
          ~path (Service.handle service))
  in
  Fun.protect
    ~finally:(fun () ->
      Guard.cancel token;
      Domain.join srv)
    (fun () ->
      let rides = Telemetry.counter "client.restart_rides" in
      let before = Telemetry.count rides in
      (* max_retries 0: any charged retry fails the request, so success
         proves the connect exhaustions rode free under the deadline *)
      let client =
        Server.Client.create ~seed:11 ~max_retries:0 ~backoff_base_s:0.005
          ~backoff_cap_s:0.02 ~connect_wait_s:0.05 ~request_timeout_s:8.0 path
      in
      let r =
        parse_ok "request across the restart window"
          (Server.Client.request client (Service.ping_request ~id:9 ()))
      in
      Alcotest.(check bool) "served once the daemon came up" true r.Service.ok;
      Alcotest.(check bool) "the rides were counted" true
        (Telemetry.count rides > before);
      Server.Client.close client)

let suite =
  [
    Alcotest.test_case "netcache: second-chance eviction spares hit entries"
      `Quick test_netcache_second_chance;
    Alcotest.test_case "netcache: clear/evict audit trail" `Quick
      test_netcache_eviction_audit;
    Alcotest.test_case "snapshot: restore serves byte-identical warm hits"
      `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot: version and recipe walls" `Quick
      test_snapshot_version_and_recipe_wall;
    Alcotest.test_case "snapshot: trailer count wall" `Quick
      test_snapshot_trailer_count_wall;
    QCheck_alcotest.to_alcotest qcheck_snapshot_corruption;
    QCheck_alcotest.to_alcotest qcheck_purity_wall;
    Alcotest.test_case "purity: a success does not answer a smaller budget"
      `Quick test_purity_small_budget_after_success;
    Alcotest.test_case "purity: doomed requests change no later answer" `Quick
      test_purity_after_doomed_requests;
    Alcotest.test_case "purity: budgets never share an in-flight build" `Quick
      test_purity_concurrent_budgets;
    Alcotest.test_case "watchdog: restarts crashes, flap breaker gives up"
      `Quick test_watchdog_flap_breaker;
    Alcotest.test_case "watchdog: wedged child detected and terminated" `Quick
      test_watchdog_wedge_detect;
    Alcotest.test_case "watchdog: token cancel drains the child" `Quick
      test_watchdog_drain;
    Alcotest.test_case "watchdog: supervision journal event shapes" `Quick
      test_watchdog_event_json;
    Alcotest.test_case "memory pressure: soft trims, hard sheds, recovers"
      `Quick test_memory_pressure_policy;
    Alcotest.test_case "knobs: validation walls" `Quick test_knob_validation;
    Alcotest.test_case "knobs: hot reload lands on a live connection" `Quick
      test_knob_hot_reload_live_connection;
    Alcotest.test_case "client: restart rides under the request deadline"
      `Quick test_client_rides_restart;
  ]
