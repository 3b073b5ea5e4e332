(* E40: chaos soak — availability and retry amplification through a
   fault-injecting proxy, plus a thundering-herd coalescing pin.

   Soak: an in-process estimation daemon, its estimate cache warmed with
   a small key set (and the known-good response bytes recorded), then a
   seeded Chaos proxy between the clients and the daemon injecting
   delays, drops, truncation, corruption, split writes, and slammed
   connections at a fixed per-chunk rate. Closed-loop resilient clients
   (Server.Client: reconnect, jittered backoff, bounded retries — every
   protocol op is idempotent) hammer the warmed keys. The contract under
   chaos: every logical request ends as a byte-correct answer or a typed
   error — never silent corruption (the CRC wall must catch every
   mangled frame) and never a hung client (request timeouts bound every
   read). The measured numbers are the availability percentage
   (correct-or-typed over total) and the wire/logical retry
   amplification.

   Herd: N clients send the same cold estimate to a fresh daemon (one
   worker per client) that holds each request until all N have arrived.
   Single-flight coalescing in the estimate cache must collapse the herd
   to exactly one computation: misses == 1, coalesced == N-1, all N
   responses byte-identical. *)

open Hlp_util

let sock name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hlpower_e40_%s_%d.sock" name (Unix.getpid ()))

(* in-process daemon on a private socket; joins (graceful drain) before
   returning, so consecutive measurements never share a server *)
let with_server ?max_inflight ?(wrap = Fun.id) ~name f =
  let path = sock name in
  let token = Guard.token ~name:"bench_e40" () in
  let ready = Atomic.make false in
  let service = Hlp_power.Service.create () in
  let srv =
    Domain.spawn (fun () ->
        Server.serve ?max_inflight ~token
          ~on_ready:(fun () -> Atomic.set ready true)
          ~path
          (wrap (Hlp_power.Service.handle service)))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.001
  done;
  Fun.protect
    ~finally:(fun () ->
      Guard.cancel token;
      Domain.join srv)
    (fun () -> f path)

(* Soak keys: cheap symbolic estimates (the zoo's BDDs are tiny), so the
   soak measures the resilience machinery, not estimation throughput.
   Responses are cache hits after the warm pass — sub-millisecond — and
   byte-stable by the serialized-estimate-cache contract. *)
let soak_keys =
  [ ("adder", 6, 11); ("parity", 5, 23); ("comparator", 8, 5); ("max", 6, 7) ]

let soak_request (circuit, width, seed) ~id =
  Hlp_power.Service.estimate_request ~id ~engine:"bitparallel" ~seed
    ~relative_precision:0.1 ~circuit ~width ()

let parse_ok what raw =
  match Hlp_power.Service.parse_response raw with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "E40: %s: bad response: %s" what e)

let count name = Telemetry.count (Telemetry.counter name)

(* classify one soak response against the known-good bytes *)
type verdict = Correct | Typed | Corrupt | Untyped

let soak ~seed ~rate ~clients ~requests =
  with_server ~name:"soak" (fun server_path ->
      (* warm pass, clean path: record the known-good response bytes *)
      let expected = Hashtbl.create 8 in
      let conn = Server.connect server_path in
      List.iteri
        (fun i key ->
          let r = parse_ok "warm" (Server.request conn (soak_request key ~id:i)) in
          if not r.Hlp_power.Service.ok then failwith "E40: warm request failed";
          Hashtbl.replace expected key
            (Option.get (Hlp_power.Service.result_string r)))
        soak_keys;
      Server.close conn;
      let listen = sock "chaos" in
      let faults0 = count "chaos.faults" in
      let proxy = Chaos.start ~seed ~rate ~listen ~upstream:server_path () in
      Fun.protect
        ~finally:(fun () -> Chaos.stop proxy)
        (fun () ->
          let nkeys = List.length soak_keys in
          let run_client c () =
            let cl =
              Server.Client.create
                ~seed:((seed * 1000) + c)
                ~max_retries:8 ~request_timeout_s:1.0 listen
            in
            Fun.protect
              ~finally:(fun () -> Server.Client.close cl)
              (fun () ->
                let verdicts =
                  List.init requests (fun r ->
                      let key = List.nth soak_keys ((c + r) mod nkeys) in
                      let id = (c * requests) + r in
                      match Server.Client.request cl (soak_request key ~id) with
                      | raw -> (
                          match Hlp_power.Service.parse_response raw with
                          | Error _ -> Corrupt
                          | Ok pr when not pr.Hlp_power.Service.ok -> Typed
                          | Ok pr -> (
                              match Hlp_power.Service.result_string pr with
                              | Some bytes
                                when String.equal bytes (Hashtbl.find expected key)
                                ->
                                  Correct
                              | _ -> Corrupt))
                      | exception Err.Error _ -> Typed
                      | exception _ -> Untyped)
                in
                (verdicts, Server.Client.counts cl))
          in
          let per_client =
            List.map Domain.join
              (List.init clients (fun c -> Domain.spawn (run_client c)))
          in
          let verdicts = List.concat_map fst per_client in
          let tally v = List.length (List.filter (( = ) v) verdicts) in
          let logical, wire =
            List.fold_left
              (fun (l, w) (_, (cl, cw)) -> (l + cl, w + cw))
              (0, 0) per_client
          in
          ( tally Correct, tally Typed, tally Corrupt, tally Untyped,
            logical, wire, count "chaos.faults" - faults0 )))

let herd_clients = 6

(* Hold each request until all [n] are in the handler, then release them
   together, so the herd lands on the estimate cache at once however
   slowly the host schedules the client domains. The server runs one
   worker per client, so every held request has its own domain and the
   wait cannot deadlock. *)
let gathered n handle =
  let m = Mutex.create () and all_in = Condition.create () in
  let admitted = ref 0 in
  fun ctx payload ->
    Mutex.lock m;
    incr admitted;
    if !admitted >= n then Condition.broadcast all_in;
    while !admitted < n do
      Condition.wait all_in m
    done;
    Mutex.unlock m;
    handle ctx payload

(* thundering herd: n clients, one identical cold estimate, one compute *)
let herd () =
  let n = herd_clients in
  with_server ~max_inflight:n ~wrap:(gathered n) ~name:"herd" (fun path ->
      let misses0 = count "server.estimates.cache_misses" in
      let coalesced0 = count "server.estimates.coalesced" in
      (* the tight node budget trips the symbolic stage into a real Monte
         Carlo campaign. Released requests still wake a few ms after the
         first one runs (~4 ms on two vCPUs, whatever holds them), so the
         compute must outlast that: at 0.002 precision it can finish in
         4.5 ms, at 0.001 it takes 15-64 ms *)
      let req id =
        Hlp_power.Service.estimate_request ~id ~engine:"bitparallel" ~seed:47
          ~relative_precision:0.001 ~node_limit:60 ~circuit:"multiplier"
          ~width:8 ()
      in
      let run_client c () =
        let conn = Server.connect path in
        Fun.protect
          ~finally:(fun () -> Server.close conn)
          (fun () ->
            let r = parse_ok "herd" (Server.request conn (req c)) in
            if not r.Hlp_power.Service.ok then failwith "E40: herd request failed";
            Option.get (Hlp_power.Service.result_string r))
      in
      let results =
        List.map Domain.join (List.init n (fun c -> Domain.spawn (run_client c)))
      in
      let distinct = List.sort_uniq compare results in
      if List.length distinct <> 1 then
        failwith "E40: herd responses were not byte-identical";
      ( count "server.estimates.cache_misses" - misses0,
        count "server.estimates.coalesced" - coalesced0 ))

let e40_chaos ?(seed = 0) ?(rate = 0.08) ?(clients = 4) ?(requests = 40) () =
  Trace.span "bench.e40_chaos" @@ fun () ->
  (* chaos/coalescing counters are the measurement: telemetry must be on
     for the duration, whatever the surrounding run chose *)
  let was_enabled = Telemetry.enabled () in
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Telemetry.disable ())
  @@ fun () ->
  let ok_correct, typed, corrupt, untyped, logical, wire, faults =
    soak ~seed ~rate ~clients ~requests
  in
  let total = clients * requests in
  let availability =
    100.0 *. float_of_int (ok_correct + typed) /. float_of_int total
  in
  let amplification = float_of_int wire /. float_of_int (max 1 logical) in
  let computes, coalesced = herd () in
  Printf.printf
    "E40: chaos soak (seed %d, rate %.2f, %d clients x %d requests through \
     the fault proxy):\n"
    seed rate clients requests;
  Printf.printf
    "  %d byte-correct, %d typed errors, %d corrupt, %d untyped; %d faults \
     injected\n"
    ok_correct typed corrupt untyped faults;
  Printf.printf
    "  availability %.2f%%; retry amplification %.3f (%d wire / %d logical)\n"
    availability amplification wire logical;
  Printf.printf
    "  herd: %d identical clients -> %d computation(s), %d coalesced\n"
    herd_clients computes coalesced;
  print_newline ();
  let open Json in
  Obj
    [ ("experiment", Str "E40 chaos soak availability");
      ( "transport",
        Str "unix socket, CRC-framed, seeded chaos proxy, resilient client" );
      ("seed", Int seed);
      ("fault_rate", Float rate);
      ("clients", Int clients);
      ("requests_per_client", Int requests);
      ("total_requests", Int total);
      ("ok_correct", Int ok_correct);
      ("typed_errors", Int typed);
      ("corrupt", Int corrupt);
      ("untyped", Int untyped);
      (* correct-or-typed over total *)
      ("availability_pct", Float availability);
      ("logical_requests", Int logical);
      ("wire_requests", Int wire);
      ("retry_amplification", Float amplification);
      ("faults_injected", Int faults);
      ( "coalescing",
        Obj
          [ ("clients", Int herd_clients);
            ("computations", Int computes);
            ("coalesced", Int coalesced) ] ) ]
