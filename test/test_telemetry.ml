open Hlp_util

(* Every test leaves the global registry disabled and zeroed so the other
   suites (which run with telemetry off) are unaffected. *)
let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_disabled_noop () =
  Telemetry.disable ();
  Telemetry.reset ();
  let c = Telemetry.counter "test.noop" in
  Telemetry.add c 5;
  Telemetry.incr c;
  Alcotest.(check int) "counter unchanged" 0 (Telemetry.count c);
  let s = Telemetry.series "test.noop_series" in
  Telemetry.observe s 1.0;
  Alcotest.(check int) "series empty" 0 (Array.length (Telemetry.observations s));
  let t = Telemetry.timer "test.noop_timer" in
  let r = Telemetry.time t (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "timer idle" 0 (fst (Telemetry.timer_stats t))

let test_enabled_counts () =
  with_telemetry @@ fun () ->
  let c = Telemetry.counter "test.counts" in
  Telemetry.add c 5;
  Telemetry.incr c;
  Alcotest.(check int) "5 + 1" 6 (Telemetry.count c);
  let s = Telemetry.series "test.counts_series" in
  Telemetry.observe s 1.5;
  Telemetry.observe s 2.5;
  Alcotest.(check (array (float 0.0))) "append order" [| 1.5; 2.5 |]
    (Telemetry.observations s);
  let t = Telemetry.timer "test.counts_timer" in
  ignore (Telemetry.time t (fun () -> Sys.opaque_identity 0));
  let calls, secs = Telemetry.timer_stats t in
  Alcotest.(check int) "one call" 1 calls;
  Alcotest.(check bool) "nonnegative duration" true (secs >= 0.0)

let test_idempotent_registration () =
  with_telemetry @@ fun () ->
  let a = Telemetry.counter "test.same_name" in
  let b = Telemetry.counter "test.same_name" in
  Telemetry.add a 3;
  Alcotest.(check int) "one underlying counter" 3 (Telemetry.count b)

let test_reset_zeroes () =
  with_telemetry @@ fun () ->
  let c = Telemetry.counter "test.reset" in
  let s = Telemetry.series "test.reset_series" in
  Telemetry.add c 7;
  Telemetry.observe s 9.0;
  Telemetry.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Telemetry.count c);
  Alcotest.(check int) "series cleared" 0 (Array.length (Telemetry.observations s));
  Alcotest.(check bool) "switch survives reset" true (Telemetry.enabled ())

let test_series_ring () =
  (* a series keeps its newest observations, in append order, and counts
     every one it was given *)
  with_telemetry @@ fun () ->
  let s = Telemetry.series "test.ring_series" in
  for k = 0 to 9_999 do
    Telemetry.observe s (float_of_int k)
  done;
  Alcotest.(check (array (float 0.0))) "newest 4096, append order"
    (Array.init 4096 (fun k -> float_of_int (10_000 - 4096 + k)))
    (Telemetry.observations s);
  Alcotest.(check int) "total count" 10_000 (Telemetry.observed s);
  Telemetry.reset ();
  Telemetry.observe s 1.0;
  Alcotest.(check (array (float 0.0))) "fresh after reset" [| 1.0 |]
    (Telemetry.observations s);
  Alcotest.(check int) "count restarts" 1 (Telemetry.observed s)

let test_multidomain_adds () =
  (* the whole point of atomic counters: concurrent adds from Parsim-style
     worker domains must not lose increments *)
  with_telemetry @@ fun () ->
  let c = Telemetry.counter "test.domains" in
  let worker () =
    for _ = 1 to 10_000 do
      Telemetry.incr c
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  Alcotest.(check int) "5 x 10k" 50_000 (Telemetry.count c)

let test_to_json () =
  with_telemetry @@ fun () ->
  let c = Telemetry.counter "test.json_counter" in
  let s = Telemetry.series "test.json_series" in
  Telemetry.add c 11;
  Telemetry.observe s 2.5;
  let j = Telemetry.to_json () in
  Alcotest.(check bool) "enabled flag" true (contains j "\"enabled\":true");
  Alcotest.(check bool) "counter value" true (contains j "\"test.json_counter\":11");
  Alcotest.(check bool) "series values" true (contains j "\"test.json_series\":[2.5]")

let test_engine_wiring () =
  (* the simulators must actually report: run each engine briefly and check
     its instruments moved *)
  with_telemetry @@ fun () ->
  let net = Hlp_logic.Generators.adder_circuit 4 in
  let rng = Prng.create 11 in
  let sim = Hlp_sim.Funcsim.create net in
  Hlp_sim.Funcsim.run sim (fun _ -> Array.init 8 (fun _ -> Prng.bool rng)) 10;
  Alcotest.(check int) "funcsim cycles" 10
    (Telemetry.count (Telemetry.counter "funcsim.cycles"));
  Alcotest.(check bool) "funcsim gate evals" true
    (Telemetry.count (Telemetry.counter "funcsim.gate_evals") > 0);
  let bsim = Hlp_sim.Bitsim.create net in
  Hlp_sim.Bitsim.step bsim (Array.init 8 (fun _ -> Int64.to_int (Prng.bits64 rng)));
  Alcotest.(check int) "bitsim steps" 1
    (Telemetry.count (Telemetry.counter "bitsim.steps"));
  Alcotest.(check int) "bitsim lane cycles" Hlp_sim.Bitsim.lanes
    (Telemetry.count (Telemetry.counter "bitsim.lane_cycles"));
  Alcotest.(check bool) "bitsim popcounts" true
    (Telemetry.count (Telemetry.counter "bitsim.popcount_ops") > 0);
  let esim = Hlp_sim.Eventsim.create net in
  Hlp_sim.Eventsim.run esim (fun _ -> Array.init 8 (fun _ -> Prng.bool rng)) 5;
  Alcotest.(check int) "eventsim cycles" 5
    (Telemetry.count (Telemetry.counter "eventsim.cycles"));
  Alcotest.(check bool) "eventsim events" true
    (Telemetry.count (Telemetry.counter "eventsim.events_drained") > 0)

let test_monte_carlo_convergence_series () =
  (* the stopping rule must leave a convergence trajectory behind: one
     (running mean, half-width) pair per evaluation from batch 2 on, with
     the final half-width matching the returned interval *)
  with_telemetry @@ fun () ->
  let net = Hlp_logic.Generators.adder_circuit 6 in
  let mc = Hlp_power.Probprop.monte_carlo ~seed:5 net in
  let hw =
    Telemetry.observations (Telemetry.series "probprop.ci_half_width")
  in
  let rm = Telemetry.observations (Telemetry.series "probprop.running_mean") in
  Alcotest.(check int) "one point per batch after the first"
    (mc.Hlp_power.Probprop.batches - 1)
    (Array.length hw);
  Alcotest.(check int) "mean series same length" (Array.length hw)
    (Array.length rm);
  Alcotest.(check (float 1e-9)) "last half-width = returned interval"
    mc.Hlp_power.Probprop.half_interval
    hw.(Array.length hw - 1);
  Alcotest.(check (float 1e-9)) "last running mean = estimate"
    mc.Hlp_power.Probprop.estimate
    rm.(Array.length rm - 1);
  Alcotest.(check int) "batch counter" mc.Hlp_power.Probprop.batches
    (Telemetry.count (Telemetry.counter "probprop.batches"));
  Alcotest.(check int) "cycle counter" mc.Hlp_power.Probprop.cycles_used
    (Telemetry.count (Telemetry.counter "probprop.mc_cycles"))

let suite =
  [
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "enabled counts" `Quick test_enabled_counts;
    Alcotest.test_case "idempotent registration" `Quick test_idempotent_registration;
    Alcotest.test_case "reset zeroes" `Quick test_reset_zeroes;
    Alcotest.test_case "series keep the newest observations" `Quick
      test_series_ring;
    Alcotest.test_case "multi-domain adds" `Quick test_multidomain_adds;
    Alcotest.test_case "json output" `Quick test_to_json;
    Alcotest.test_case "engine wiring" `Quick test_engine_wiring;
    Alcotest.test_case "mc convergence series" `Quick test_monte_carlo_convergence_series;
  ]
