(* Untraced end-to-end runs: what a user of each path waits for. *)

open Util
module S = Hlp_power.Service
module P = Hlp_power.Probprop
module Parsim = Hlp_sim.Parsim
module W = Workloads

(* set-ups per run; set-up time is their median *)
let setup_count = 7

type run = {
  e2e : e2e;
  setup_s : float;
  sim_cycles : float;  (** cycles simulated by the measured operations *)
  tally : tally;
  digest : digest;
}

let parse raw = Result.to_option (S.parse_response raw)

let field r k conv =
  Option.bind r.S.result (fun j -> Option.bind (J.member k j) conv)

let expect_ok what raw =
  match parse raw with
  | Some r when r.S.ok -> r
  | _ -> failwith (what ^ ": unexpected response " ^ raw)

(* one closed-loop round over the daemon connection: each request's
   latency and the round's wall time; the responses are checked after *)
let daemon_round d reqs =
  let n = Array.length reqs in
  let resps = Array.make n "" and lat = Array.make n 0.0 in
  let t0 = now_ns () in
  Array.iteri
    (fun k q ->
      let t = now_ns () in
      resps.(k) <- Daemon.request d q;
      lat.(k) <- since t)
    reqs;
  (resps, lat, since t0)

let cold_mc ~dir ~seed ~seconds =
  let socket = Filename.concat dir "s.sock" in
  let tally = tally () and digest = digest () and cycles = ref 0 in
  let warm d =
    for j = 0 to W.cold_warmup - 1 do
      ignore
        (expect_ok "cold-mc warm-up"
           (Daemon.request d (W.cold_warmup_request ~seed j)))
    done
  in
  let d0, setup_s =
    setups setup_count (fun () -> Daemon.start_warm ~socket warm) Daemon.stop
  in
  (* Every round runs on a daemon fresh from its set-up: the daemon's heap
     grows with the estimates it has served, so a round's cost would
     otherwise depend on how many rounds a run fitted before it. *)
  let d = ref d0 in
  Fun.protect ~finally:(fun () -> Daemon.stop !d) @@ fun () ->
  let e =
    rounds ~seconds ~proc:(fun () -> Daemon.proc !d) (fun r ->
        if r > 0 then begin
          Daemon.stop !d;
          d := Daemon.start_warm ~socket warm
        end;
        let reqs =
          Array.init W.cold_round (fun k ->
              W.cold_request ~seed ((r * W.cold_round) + k))
        in
        let resps, lat, wall = daemon_round !d reqs in
        Array.iter
          (fun raw ->
            let r = parse raw in
            (* a fresh Monte Carlo estimate *)
            let ok =
              match r with
              | Some r ->
                  r.S.ok && (not r.S.cached)
                  && field r "estimator" J.to_str_opt = Some "monte_carlo"
              | None -> false
            in
            record tally ok (fun () -> "cold-mc: " ^ raw);
            Option.iter
              (fun r ->
                cycles :=
                  !cycles + Option.value ~default:0 (field r "cycles_used" J.to_int_opt);
                add digest (fun () -> Option.value ~default:"" (S.result_string r)))
              r)
          resps;
        (lat, wall))
  in
  { e2e = e;
    setup_s;
    sim_cycles = float_of_int !cycles;
    tally;
    digest }

let warm_zipf ~dir ~seed ~seconds =
  let socket = Filename.concat dir "s.sock" in
  let tally = tally () and digest = digest () in
  let keys = W.zipf_requests ~seed in
  let answers = Array.map (Array.map (fun _ -> "")) keys in
  (* set-up fills the estimate cache with every key *)
  let fill d =
    Array.iteri
      (fun c row ->
        Array.iteri
          (fun k q ->
            let r = expect_ok "warm-zipf fill" (Daemon.request d q) in
            answers.(c).(k) <- Option.value ~default:"" (S.result_string r))
          row)
      keys
  in
  let d, setup_s =
    setups setup_count (fun () -> Daemon.start_warm ~socket fill) Daemon.stop
  in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let z = W.zipf_seq ~seed in
  let e =
    rounds ~seconds ~proc:(fun () -> Daemon.proc d) (fun _ ->
        let ops = Array.init W.zipf_round (fun _ -> W.zipf_next z) in
        let resps, lat, wall =
          daemon_round d (Array.map (fun (c, k) -> keys.(c).(k)) ops)
        in
        Array.iteri
          (fun i raw ->
            let c, k = ops.(i) in
            let answer =
              Option.bind (parse raw) (fun r ->
                  if r.S.ok && r.S.cached then S.result_string r else None)
            in
            (* a hit, byte-identical to its key's fill answer *)
            record tally (answer = Some answers.(c).(k)) (fun () ->
                "warm-zipf: " ^ raw);
            add digest (fun () -> Option.value ~default:"" answer))
          resps;
        (lat, wall))
  in
  { e2e = e;
    setup_s;
    sim_cycles = 0.0;
    tally;
    digest }

let batch_campaign ~dir ~seed ~seconds =
  let tally = tally () and digest = digest () and cycles = ref 0 in
  let campaign ~jobs r =
    let js = W.campaign ~seed ~jobs r in
    let cdir = Filename.concat dir (Printf.sprintf "c%d" r) in
    let c = Batch.run Spans.off ~dir:cdir js in
    let v = Batch.verdicts ~dir:cdir js c in
    rm_rf cdir;
    (c, v)
  in
  (* set-up: build a short campaign's netlists and run it *)
  let setup () =
    let _, v = campaign ~jobs:W.warmup_jobs 999 in
    Array.iter
      (fun (ok, why) -> if not ok then failwith ("batch-campaign warm-up: " ^ why))
      v
  in
  let (), setup_s = setups setup_count setup ignore in
  let e =
    rounds ~seconds ~proc:(fun () -> "self") (fun r ->
        let c, v = campaign ~jobs:W.campaign_jobs r in
        Array.iter (fun (ok, why) -> record tally ok (fun () -> why)) v;
        Array.iter
          (function
            | Ok g ->
                cycles := !cycles + g.P.provenance.P.cycles_used;
                add digest (fun () -> fbits g.P.capacitance)
            | Error _ -> ())
          c.Batch.results;
        (c.Batch.latency, c.Batch.wall_s))
  in
  { e2e = e;
    setup_s;
    sim_cycles = float_of_int !cycles;
    tally;
    digest }

let same_replay (a : Parsim.replay) (b : Parsim.replay) =
  a.Parsim.out_words = b.Parsim.out_words
  && Array.length a.Parsim.transition_caps = Array.length b.Parsim.transition_caps
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a.Parsim.transition_caps b.Parsim.transition_caps

let replay_lowact ~seed ~seconds =
  let tally = tally () and digest = digest () and cycles = ref 0 in
  let circuit, width = W.replay_circuit in
  (* set-up: build the netlist, compile its kernel plan, warm up *)
  let setup () =
    Hlp_sim.Kernel.clear_cache ();
    let net = W.generator circuit width in
    let nin = Array.length net.Hlp_logic.Netlist.inputs in
    for j = 0 to W.replay_warmup - 1 do
      match W.replay net (W.replay_trace ~seed ~nin (1_000_000 + j)) with
      | Ok _ -> ()
      | Error e -> failwith ("replay-lowact warm-up: " ^ Hlp_util.Err.to_string e)
    done;
    net
  in
  let net, setup_s = setups setup_count setup ignore in
  let nin = Array.length net.Hlp_logic.Netlist.inputs in
  let e =
    rounds ~seconds ~proc:(fun () -> "self") (fun r ->
        let traces =
          Array.init W.replay_round (fun k ->
              W.replay_trace ~seed ~nin ((r * W.replay_round) + k))
        in
        let lat = Array.make W.replay_round 0.0 in
        let t0 = now_ns () in
        let outs =
          Array.mapi
            (fun k tr ->
              let t = now_ns () in
              let o = W.replay net tr in
              lat.(k) <- since t;
              o)
            traces
        in
        let wall = since t0 in
        Array.iteri
          (fun k o ->
            let ok =
              match o with
              | Ok d ->
                  d.Parsim.engine_used = Hlp_sim.Engine.Compiled
                  && d.Parsim.fallbacks = 0
                  (* every eighth trace, against the bit-parallel interpreter *)
                  && (k mod 8 <> 0
                     ||
                     match W.replay ~engine:Hlp_sim.Engine.Bitparallel net traces.(k) with
                     | Ok b -> same_replay d.Parsim.value b.Parsim.value
                     | Error _ -> false)
              | Error _ -> false
            in
            record tally ok (fun () ->
                Printf.sprintf "replay-lowact: trace %d of round %d" k r);
            cycles := !cycles + W.replay_cycles;
            match o with
            | Ok d ->
                add digest (fun () ->
                    Digest.to_hex
                      (Digest.string
                         (String.concat ","
                            (Array.to_list
                               (Array.map fbits d.Parsim.value.Parsim.transition_caps)))))
            | Error _ -> ())
          outs;
        (lat, wall))
  in
  { e2e = e;
    setup_s;
    sim_cycles = float_of_int !cycles;
    tally;
    digest }

let run workload ~dir ~seed ~seconds =
  match workload with
  | "cold-mc" -> cold_mc ~dir ~seed ~seconds
  | "warm-zipf" -> warm_zipf ~dir ~seed ~seconds
  | "batch-campaign" -> batch_campaign ~dir ~seed ~seconds
  | _ -> replay_lowact ~seed ~seconds

(* the end-to-end metrics BENCHMARK.json names *)
let metrics r =
  [ ("setup_s", r.setup_s, "s");
    ("ops_per_s", r.e2e.ops_per_s, "1/s");
    ("latency_p50_ms", r.e2e.p50_ms, "ms");
    ("latency_p90_ms", r.e2e.p90_ms, "ms");
    ("rss_peak_mb", r.e2e.rss_mb, "MB") ]

(* Printed beside them. Simulation speed is zero on warm-zipf, and the
   error rate is zero on a correct run, so neither can carry a relative
   bound; the error rate is also the result's failed / attempted. *)
let extras r =
  [ ("sim_mcycles_per_s", r.sim_cycles /. r.e2e.wall_s /. 1e6, "Mcycles/s");
    ( "error_rate",
      float_of_int r.tally.failed /. float_of_int (max 1 r.tally.attempted),
      "ratio" );
    ("operations", float_of_int r.e2e.ops, "count") ]
