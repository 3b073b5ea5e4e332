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

   The pinned number is the cold-p50 / warm-p50 ratio — a within-machine
   ratio (both sides measured in the same process on the same socket), so
   it transfers across runners the way the E33/E38 ratios do. The
   acceptance floor is 10x: a warm hit must cost at least an order of
   magnitude less than recomputation, else the daemon's reason to exist
   is gone. *)

open Hlp_util

type serve_result = {
  sv_distinct_keys : int;
  sv_warm_rounds : int;
  sv_cold_ms : float array;  (** per-request latency, cold pass *)
  sv_warm_ms : float array;  (** per-request latency, all warm rounds *)
  sv_cold_p50_ms : float;
  sv_cold_p99_ms : float;
  sv_warm_p50_ms : float;
  sv_warm_p99_ms : float;
  sv_cold_requests_per_s : float;
  sv_warm_requests_per_s : float;
  sv_cold_vs_warm_p50 : float;
  sv_byte_identical : bool;
  sv_typed_sheds : int;  (** overload demo: typed frames received *)
}

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
        Hlp_util.Server.serve ?max_inflight ?queue_budget ~token
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

let e39_serve ?(warm_rounds = 4) ?(assert_speedup = true) () =
  Trace.span "bench.e39_serve" @@ fun () ->
  let cold_results = Hashtbl.create 16 in
  let sv_cold_ms, sv_warm_ms, sv_byte_identical =
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
  let sv_typed_sheds = overload_demo () in
  let sorted a =
    let c = Array.copy a in
    Array.sort Float.compare c;
    c
  in
  let cold_sorted = sorted sv_cold_ms and warm_sorted = sorted sv_warm_ms in
  let total = Array.fold_left ( +. ) 0.0 in
  let sv_cold_p50_ms = percentile cold_sorted 50.0 in
  let sv_warm_p50_ms = percentile warm_sorted 50.0 in
  let r =
    {
      sv_distinct_keys = List.length keys;
      sv_warm_rounds = warm_rounds;
      sv_cold_ms;
      sv_warm_ms;
      sv_cold_p50_ms;
      sv_cold_p99_ms = percentile cold_sorted 99.0;
      sv_warm_p50_ms;
      sv_warm_p99_ms = percentile warm_sorted 99.0;
      sv_cold_requests_per_s =
        float_of_int (Array.length sv_cold_ms) /. (total sv_cold_ms /. 1e3);
      sv_warm_requests_per_s =
        float_of_int (Array.length sv_warm_ms) /. (total sv_warm_ms /. 1e3);
      sv_cold_vs_warm_p50 = sv_cold_p50_ms /. sv_warm_p50_ms;
      sv_byte_identical;
      sv_typed_sheds;
    }
  in
  Printf.printf
    "E39: estimation service (%d keys, %d warm rounds, unix socket):\n"
    r.sv_distinct_keys warm_rounds;
  Printf.printf "  cold: p50 %.3f ms, p99 %.3f ms, %.0f req/s\n"
    r.sv_cold_p50_ms r.sv_cold_p99_ms r.sv_cold_requests_per_s;
  Printf.printf "  warm: p50 %.3f ms, p99 %.3f ms, %.0f req/s\n"
    r.sv_warm_p50_ms r.sv_warm_p99_ms r.sv_warm_requests_per_s;
  Printf.printf
    "  warm speedup (cold p50 / warm p50): %.0fx (target >= 10x)\n"
    r.sv_cold_vs_warm_p50;
  Printf.printf "  warm responses byte-identical to cold: %s\n"
    (if r.sv_byte_identical then "yes" else "NO");
  Printf.printf "  overload demo: %d typed Overloaded frame(s)\n"
    r.sv_typed_sheds;
  if not r.sv_byte_identical then
    failwith "E39: warm response bytes diverged from cold";
  if r.sv_typed_sheds <> 1 then
    failwith "E39: overload did not shed exactly one typed frame";
  if assert_speedup && r.sv_cold_vs_warm_p50 < 10.0 then
    failwith "E39: warm cache hits below the 10x latency target";
  print_newline ();
  r

let floats a = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) a))

let json_obj r =
  let open Json in
  Obj
    [ ("experiment", Str "E39 estimation service latency");
      ("transport", Str "unix socket, CRC-framed, in-process server");
      ("distinct_keys", Int r.sv_distinct_keys);
      ("warm_rounds", Int r.sv_warm_rounds);
      ("cold_ms", floats r.sv_cold_ms);
      ("warm_ms", floats r.sv_warm_ms);
      ("cold_p50_ms", Float r.sv_cold_p50_ms);
      ("cold_p99_ms", Float r.sv_cold_p99_ms);
      ("warm_p50_ms", Float r.sv_warm_p50_ms);
      ("warm_p99_ms", Float r.sv_warm_p99_ms);
      ("cold_requests_per_s", Float r.sv_cold_requests_per_s);
      ("warm_requests_per_s", Float r.sv_warm_requests_per_s);
      (* the gated number: within-machine cold/warm latency ratio *)
      ("cold_vs_warm_p50", Float r.sv_cold_vs_warm_p50);
      ("speedup_floor", Float 10.0);
      ("byte_identical", Bool r.sv_byte_identical);
      ("overload_typed_sheds", Int r.sv_typed_sheds) ]
