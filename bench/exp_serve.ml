(* E39: estimation-service latency — cold estimates vs warm cache hits.

   An in-process [Hlp_util.Server] running [Hlp_power.Service.handle] is
   driven through a real Unix-domain socket by a closed-loop client: one
   cold pass over a set of distinct estimate keys (every request pays a
   full guarded estimation — a tripped symbolic budget followed by a
   Monte Carlo campaign), then several warm rounds over the same keys
   (every request is answered from the serialized-estimate cache). Per-request latencies give p50/p99 for
   both regimes; the warm responses are asserted byte-identical to the
   cold ones (the cache stores the serialized result, so this is the
   protocol's correctness contract, not a float tolerance). A second
   server with one worker and a one-connection admission budget
   demonstrates overload: the surplus connection must receive the typed
   [Overloaded] frame, not an unbounded queue slot.

   The gated number is the cold-p50 / warm-p50 ratio — a within-machine
   ratio (both sides measured in the same process on the same socket), so
   it transfers across runners the way the E33/E38 ratios do. A warm hit
   must cost at least an order of magnitude less than recomputation, else
   the daemon's reason to exist is gone. *)

open Hlp_util

let time f =
  let t0 = Clock.now_s () in
  let r = f () in
  (r, Clock.now_s () -. t0)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

(* in-process daemon on a private socket; joins (graceful drain) before
   returning, so consecutive measurements never share a server *)
let with_server ?max_inflight ?queue_budget f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hlpower_e39_%d.sock" (Unix.getpid ()))
  in
  let token = Guard.token ~name:"bench_e39" () in
  let ready = Atomic.make false in
  let service = Hlp_power.Service.create () in
  let srv =
    Domain.spawn (fun () ->
        Hlp_util.Server.serve ?max_inflight
          ?knobs:
            (Option.map
               (fun queue_budget ->
                 Atomic.make
                   {
                     Hlp_util.Server.default_knobs with
                     Hlp_util.Server.queue_budget;
                   })
               queue_budget)
          ~token
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

(* The estimate key set: distinct circuits, widths, and seeds. The node
   budget is deliberately small, so every cold request trips the symbolic
   stage and runs a real Monte Carlo campaign — thousands of simulated
   cycles per request, which is the regime a designer's iteration loop
   pays without the cache. (The generator zoo's symbolic BDDs are all
   tiny — microseconds — so a symbolic cold pass would only measure
   framing overhead; it would also make the two seeds per circuit share
   all their work, since a symbolic answer is seed-independent.) *)
let keys =
  List.concat_map
    (fun (circuit, width) ->
      List.map (fun seed -> (circuit, width, seed)) [ 11; 23 ])
    [ ("multiplier", 6); ("multiplier", 8); ("alu", 6); ("alu", 8);
      ("adder", 16); ("comparator", 16) ]

let request_of (circuit, width, seed) ~id =
  Hlp_power.Service.estimate_request ~id ~engine:"bitparallel" ~seed
    ~relative_precision:0.002 ~node_limit:60 ~circuit ~width ()

let parse_ok raw =
  match Hlp_power.Service.parse_response raw with
  | Ok r -> r
  | Error e -> failwith ("E39: bad response: " ^ e)

(* overload demo: one worker, one queued connection allowed, a sleeper
   pinning the worker — the third connection must get the typed frame *)
let overload_demo () =
  with_server ~max_inflight:1 ~queue_budget:1 (fun path ->
      let c1 = Hlp_util.Server.connect path in
      let sleeper =
        Domain.spawn (fun () ->
            Hlp_util.Server.request c1
              (Hlp_power.Service.ping_request ~id:1 ~sleep_s:0.6 ()))
      in
      Unix.sleepf 0.2;
      let c2 = Hlp_util.Server.connect path in
      let waiter =
        Domain.spawn (fun () ->
            Hlp_util.Server.request c2
              (Hlp_power.Service.ping_request ~id:2 ()))
      in
      Unix.sleepf 0.2;
      let c3 = Hlp_util.Server.connect path in
      let shed =
        parse_ok
          (Hlp_util.Server.request c3
             (Hlp_power.Service.ping_request ~id:3 ()))
      in
      let typed =
        match shed.Hlp_power.Service.error with
        | Some ("overloaded", _, 70) when not shed.Hlp_power.Service.ok -> 1
        | _ -> 0
      in
      ignore (Domain.join sleeper);
      Hlp_util.Server.close c1;
      ignore (Domain.join waiter);
      Hlp_util.Server.close c2;
      Hlp_util.Server.close c3;
      typed)

let e39_serve ?(warm_rounds = 4) () =
  Trace.span "bench.e39_serve" @@ fun () ->
  let cold_results = Hashtbl.create 16 in
  let cold_ms, warm_ms, byte_identical =
    with_server (fun path ->
        let conn = Hlp_util.Server.connect path in
        Fun.protect
          ~finally:(fun () -> Hlp_util.Server.close conn)
          (fun () ->
            let ask key ~id =
              let raw, s =
                time (fun () ->
                    Hlp_util.Server.request conn (request_of key ~id))
              in
              let r = parse_ok raw in
              if not r.Hlp_power.Service.ok then
                failwith "E39: estimate request failed";
              ( Option.get (Hlp_power.Service.result_string r),
                r.Hlp_power.Service.cached,
                s *. 1e3 )
            in
            (* cold pass: every key is a miss *)
            let cold =
              List.mapi
                (fun i key ->
                  let result, cached, ms = ask key ~id:i in
                  if cached then failwith "E39: cold request was a cache hit";
                  Hashtbl.replace cold_results key result;
                  ms)
                keys
            in
            (* warm rounds: every key is a hit, bytes must match cold *)
            let identical = ref true in
            let warm = ref [] in
            for round = 1 to warm_rounds do
              List.iteri
                (fun i key ->
                  let result, cached, ms =
                    ask key ~id:((round * 1000) + i)
                  in
                  if not cached then failwith "E39: warm request missed";
                  if not (String.equal result (Hashtbl.find cold_results key))
                  then identical := false;
                  warm := ms :: !warm)
                keys
            done;
            (Array.of_list cold, Array.of_list (List.rev !warm), !identical)))
  in
  let typed_sheds = overload_demo () in
  let sorted a =
    let c = Array.copy a in
    Array.sort Float.compare c;
    c
  in
  let cold_sorted = sorted cold_ms and warm_sorted = sorted warm_ms in
  let per_s ms =
    float_of_int (Array.length ms) /. (Array.fold_left ( +. ) 0.0 ms /. 1e3)
  in
  let cold_p50 = percentile cold_sorted 50.0 in
  let cold_p99 = percentile cold_sorted 99.0 in
  let warm_p50 = percentile warm_sorted 50.0 in
  let warm_p99 = percentile warm_sorted 99.0 in
  Printf.printf
    "E39: estimation service (%d keys, %d warm rounds, unix socket):\n"
    (List.length keys) warm_rounds;
  Printf.printf "  cold: p50 %.3f ms, p99 %.3f ms, %.0f req/s\n" cold_p50
    cold_p99 (per_s cold_ms);
  Printf.printf "  warm: p50 %.3f ms, p99 %.3f ms, %.0f req/s\n" warm_p50
    warm_p99 (per_s warm_ms);
  Printf.printf "  warm speedup (cold p50 / warm p50): %.0fx\n"
    (cold_p50 /. warm_p50);
  Printf.printf "  warm responses byte-identical to cold: %b\n" byte_identical;
  Printf.printf "  overload demo: %d typed Overloaded frame(s)\n" typed_sheds;
  print_newline ();
  let open Json in
  Obj
    [ ("experiment", Str "E39 estimation service latency");
      ("transport", Str "unix socket, CRC-framed, in-process server");
      ("distinct_keys", Int (List.length keys));
      ("warm_rounds", Int warm_rounds);
      ("cold_ms", Gate.floats cold_ms);
      ("warm_ms", Gate.floats warm_ms);
      ("cold_p50_ms", Float cold_p50);
      ("cold_p99_ms", Float cold_p99);
      ("warm_p50_ms", Float warm_p50);
      ("warm_p99_ms", Float warm_p99);
      ("cold_requests_per_s", Float (per_s cold_ms));
      ("warm_requests_per_s", Float (per_s warm_ms));
      (* within-machine cold/warm latency ratio *)
      ("cold_vs_warm_p50", Float (cold_p50 /. warm_p50));
      ("byte_identical", Bool byte_identical);
      ("overload_typed_sheds", Int typed_sheds) ]
